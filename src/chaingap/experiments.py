"""Scaling scans, ensemble tails, least-squares fits, and report files.

The scan runs one family template over a grid of sizes through the
family's closed-form gap, which every sized family has; the fit
quantifies power-law growth of the relaxation time. Reports are
bit-stable: fixed header order, LF line endings, 17-significant-digit
floats, CSV cells quoted only when they hold a comma, quote or newline
(RFC 4180), JSON with sorted keys.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import tolerances as tol
from .audit import BoundAudit
from .bounds import CheegerResult, PathBoundResult
from .empirical import DeltaCurve, _lemire, _philox_key
from .errors import InsufficientData, NotPrime, _whole
from .families import ChainSpec, _character_gap, _normalize_steps
from .spectral import SingularSpectrum

__all__ = [
    "ExperimentRow",
    "ScalingFit",
    "EnsembleRow",
    "scan",
    "fit_scaling",
    "random_steps_ensemble",
    "emit_report",
]


@dataclass(frozen=True)
class ExperimentRow:
    family: str
    params_digest: str
    N: int
    gamma: float
    tau: float
    method: str
    wall_ms: float


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class EnsembleRow:
    L: float
    fraction: float


def scan(template: ChainSpec, N_list) -> list[ExperimentRow]:
    """One row of (gamma, tau, timing) per size, sorted by N.

    Every family with a size (circulant, torus, doubling, card) has a
    closed form, ChainSpec.closed_form(), and no dense chain is built;
    with_size refuses an explicit template with ValueError. Values are
    deterministic; only the wall-clock column varies between runs.
    Refuses an empty size list and a size that is not an integer with
    ValueError.
    """
    sizes = sorted(_whole(n, "N") for n in N_list)
    if not sizes:
        raise ValueError("the size list is empty")
    rows = []
    for N in sizes:
        spec = template.with_size(N)
        start = time.perf_counter()
        gap, tau = spec.closed_form()
        wall_ms = 1000.0 * (time.perf_counter() - start)
        rows.append(
            ExperimentRow(
                family=spec.family,
                params_digest=spec.params_digest(),
                N=N,
                gamma=float(gap),
                tau=tau,
                method="closed_form",
                wall_ms=wall_ms,
            )
        )
    return rows


def fit_scaling(rows: list[ExperimentRow]) -> ScalingFit:
    """OLS of log tau against log N. Requires at least three rows with finite tau."""
    pts = [(r.N, r.tau) for r in rows]
    if len(pts) < 3 or any(not math.isfinite(t) for _, t in pts):
        raise InsufficientData("need >= 3 rows with finite relaxation times")
    x = np.log([n for n, _ in pts])
    y = np.log([t for _, t in pts])
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    total = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 if total == 0 else 1.0 - float((residual**2).sum()) / total
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=min(max(r_squared, 0.0), 1.0),
        n_points=len(pts),
    )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def random_steps_ensemble(
    N: int,
    k: int,
    p,
    trials: int,
    L_grid,
    seed: int,
) -> list[EnsembleRow]:
    """Tail of the relaxation time over random step sets on Z/NZ.

    Draws ``trials`` step sets of k distinct residues uniformly from
    Z/NZ (without replacement), computes each tau from the circulant
    closed form, and reports the fraction exceeding L * N^{2/(k+1)} for
    each L. Deterministic given the seed, which keys Philox by
    empirical._philox_key: trial t's steps are the t-th
    rng.choice(N, size=k, replace=False) of a Generator on that Philox,
    decoded from its raw words a block of trials at a time
    (_choice_blocks). For a unit u mod N the walk with steps u S is the
    walk with steps S relabelled by x -> u x, so it has the same tau;
    one closed form serves every trial of such a class, and each tau
    keeps the bits of its own trial's closed form (_ensemble_taus).
    Fractions are automatically non-increasing in L.
    Refuses an N, k, trials or seed that is not an integer, an empty grid
    and an L that is not a number >= 0 (inf is one) with ValueError.
    """
    N, k, trials = _whole(N, "N"), _whole(k, "k"), _whole(trials, "trials")
    if not _is_prime(N):
        raise NotPrime(f"{N} is not prime")
    if not 1 <= k <= N:
        raise ValueError(f"k must lie in 1..{N}: the steps are distinct residues mod {N}")
    p = np.asarray(p, dtype=float)
    if len(p) != k:
        raise ValueError(f"p must list k = {k} probabilities")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _normalize_steps(N, zip(range(k), p.tolist()))  # refuse a bad p before the first draw
    L_grid = [float(L) for L in L_grid]
    if not L_grid:
        raise ValueError("the L grid is empty")
    bad = [L for L in L_grid if not L >= 0.0]  # nan compares false
    if bad:
        raise ValueError(f"every L must be a number >= 0, got {bad[0]}")
    taus = _ensemble_taus(N, p, trials, seed)
    scale = N ** (2.0 / (k + 1.0))
    return [EnsembleRow(L=L, fraction=float(np.mean(taus > L * scale))) for L in L_grid]


def _ensemble_taus(N: int, p: np.ndarray, trials: int, seed: int) -> np.ndarray:
    """tau of each trial's circulant walk, one closed form per class of trials.

    Trial t's residues are the t-th rng.choice(N, size=len(p),
    replace=False) of one Generator, bit for bit (_choice_blocks). Its
    steps are sorted with their p as _normalize_steps sorts them, the
    order in which _character_gap sums them. The trial's key is that list
    of (residue, weight) steps with every residue times u, the inverse
    mod N of the list's first nonzero residue (u = 1 when there is
    none); when the first two steps have equal weights, the lesser of
    that key and the key of the list with those two steps swapped
    (_unit_keys). Trials are drawn and keyed a chunk of at most
    tol.BLOCK_ENTRIES steps at a time, and a chunk's keys are grouped by
    integer ids. The first trial of each key not met before goes to
    _character_gap, as many a batch as fit tol.BLOCK_ENTRIES frequencies
    0..N//2, and every trial with that key takes its tau, kept by key
    across chunks.

    Why the bits hold. _axis_sums adds the first two terms as
    fl(fl(0 + t_1) + t_2), which is commutative, signed zeros included:
    swapping two steps of equal weight keeps every sum's bits and the
    weights, so S_hi. Now let trials s and t have one key, from lists
    (a_r, p_r) and (b_r, p_r) with multipliers u and v. Then
    b_r = w a_r mod N with w = u / v a unit (N is prime), and t's sum at
    m adds p_r table[(m b_r) mod N] = p_r table[(m w a_r) mod N] in the
    order of s's sum at m w: lambda_m(t) and lambda_{m w}(s) have the
    same bits for every m, and m -> m w permutes the frequencies, fixing
    0. The table is conjugate-symmetric (families._roots_of_unity), so
    the sum at -m is the conjugate of the sum at m, with the same bits of
    |1 - lambda|, and the half grid 0..N//2 that _character_gap reads
    holds the value of every frequency: its least value over m != 0 and
    its largest value are those of the whole grid, the same for s and t,
    and so is S_hi. So every tau has the bits of its own trial's
    ChainSpec("circulant", ...).closed_form().
    """
    k = p.size
    per = max(1, tol.BLOCK_ENTRIES // (N // 2 + 1))
    codes = np.unique(p, return_inverse=True)[1]  # equal p, equal codes
    known = {}  # a key's bytes -> its tau
    taus = []
    for a in _choice_blocks(N, k, trials, seed, max(1, tol.BLOCK_ENTRIES // k)):
        order = np.argsort(a, axis=1)
        a = np.take_along_axis(a, order, axis=1)
        key = _unit_keys(N, a, codes[order])
        cls = np.zeros(len(a), dtype=np.int64)
        for column in key.T:  # cls < len(a) and column < N, so no overflow
            _, first, cls = np.unique(cls * N + column, return_index=True, return_inverse=True)
        names = [row.tobytes() for row in key[first]]
        new = [i for i, name in enumerate(names) if name not in known]
        for start in range(0, len(new), per):
            batch = new[start : start + per]
            b = first[batch]
            walks = _character_gap(N, [(a[b], p[order[b]])])
            known.update((names[i], tau) for i, (_, tau) in zip(batch, walks))
        taus.append(np.array([known[name] for name in names])[cls])
    return np.concatenate(taus)


def _unit_keys(N: int, a: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The class keys of _ensemble_taus: rows of sorted residues a, each
    times the inverse mod N of its first nonzero residue, then their
    weight codes; where the first two weights tie, the lesser of that and
    the same for the first two steps swapped."""
    k = a.shape[1]
    swapped = np.concatenate((a[:, 1::-1], a[:, 2:]), axis=1)  # a itself when k = 1
    leads = [np.where(s[:, 0] > 0, s[:, 0], s[:, min(1, k - 1)]) for s in (a, swapped)]
    inverse = np.ones(N, dtype=np.int64)
    for x in np.unique(np.concatenate(leads)).tolist():
        inverse[x] = pow(x, -1, N) if x else 1
    key, other = (s * inverse[lead, None] % N for s, lead in zip((a, swapped), leads))
    col = (key != other).argmax(axis=1)[:, None]  # where the two keys first differ
    lesser = np.take_along_axis(other, col, axis=1) < np.take_along_axis(key, col, axis=1)
    swap = (weight[:, 0] == weight[:, min(1, k - 1)]) & lesser[:, 0]
    key[swap] = other[swap]
    return np.concatenate((key, weight), axis=1)


def _choice_blocks(N: int, k: int, trials: int, seed: int, per: int):
    """Yield the trials' residues in blocks of at most per rows, row t being
    the t-th rng.choice(N, size=k, replace=False) of
    rng = np.random.Generator(np.random.Philox(key=_philox_key(seed))).

    numpy draws such a choice by Floyd's algorithm (Bentley & Floyd,
    CACM 30, 1987) unless N > 10000 and k > N // 50: for j = N - k .. N - 1
    one draw t in 0..j (none at j = 0, where t = 0), and the value is t,
    or j when t is already taken; then it shuffles the k values, swapping
    value i with a draw in 0..i for i = k - 1 .. 1. Each draw is Lemire's
    from one 32-bit word (empirical._lemire), and the words are Philox's
    64-bit words split low half first, across calls, so a block's draws
    are decoded at once from random_raw, an odd half carried to the next.

    The per-trial loop stays where decoding would not be numpy's stream:
    numpy's other branch, for N > 10000 and k > N // 50, shuffles the
    tail of arange(N) instead; and a rejected draw takes one more word,
    so every trial from the first one whose draws hold a rejection is
    drawn by rng after a fresh Generator replays the trials before it.
    """
    key = _philox_key(seed)
    done = 0
    if not (N > 10000 and k > N // 50):
        # the bound j + 1 of each draw: Floyd's j = N - k .. N - 1 (none at 0), then the shuffle's i
        bounds = np.r_[max(N - k, 1) + 1 : N + 1, k:1:-1].astype(np.uint64)
        bitgen = np.random.Philox(key=key)
        spare = np.empty(0, dtype="<u4")  # the high half of a word a block left unused
        while done < trials:
            count = min(per, trials - done)
            need = count * bounds.size - spare.size
            words = bitgen.random_raw(-(-need // 2)).astype("<u8", copy=False).view("<u4")
            halves = np.concatenate((spare, words))
            spare = halves[count * bounds.size :]
            draws, rejected = _lemire(halves[: count * bounds.size].reshape(count, -1), bounds)
            draws = draws.astype(np.int64)
            a = np.zeros((count, k), dtype=np.int64)  # Floyd's t = 0 at j = 0 when k = N
            for s, j in enumerate(range(N - k, N)):
                if j:
                    t = draws[:, s - (k == N)]
                    a[:, s] = np.where((a[:, :s] == t[:, None]).any(axis=1), j, t)
            rows = np.arange(count)
            for i, j in zip(range(k - 1, 0, -1), draws.T[bounds.size - k + 1 :]):
                a[rows, i], a[rows, j] = a[rows, j], a[rows, i]
            bad = np.flatnonzero(rejected.any(axis=1))
            if bad.size:
                if bad[0]:
                    yield a[: bad[0]]
                done += int(bad[0])
                break
            yield a
            done += count
    if done < trials:
        rng = np.random.Generator(np.random.Philox(key=key))
        for _ in range(done):
            rng.choice(N, size=k, replace=False)
        for start in range(done, trials, per):
            count = min(per, trials - start)
            yield np.array([rng.choice(N, size=k, replace=False) for _ in range(count)])


# ---------------------------------------------------------------------------
# Bit-stable reports


def _records(obj) -> tuple[tuple[str, ...], list[tuple]] | None:
    """(columns, rows) of a tabular result, or None for any other object."""
    if isinstance(obj, BoundAudit):
        return ("name", "lhs", "relation", "rhs", "margin", "applicable", "pass"), [
            (c.name, c.lhs, c.relation, c.rhs, c.margin, c.applicable, c.passed)
            for c in obj.checks
        ]
    if isinstance(obj, DeltaCurve):
        return ("n", "delta_exact", "delta_mc", "mc_stderr"), [
            (e.n, e.delta_exact, e.delta_mc, e.mc_stderr) for e in obj.entries
        ]
    if isinstance(obj, list):
        cls = type(obj[0]) if obj else ExperimentRow  # an empty list is a scan table
        if cls in (ExperimentRow, EnsembleRow):
            columns = tuple(f.name for f in fields(cls))
            return columns, [tuple(getattr(r, c) for c in columns) for r in obj]
    return None


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def _json_value(value):
    """nan -> null, +-inf -> "inf"/"-inf", tuples and arrays -> lists, recursively."""
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return _json_value(value.tolist()) if isinstance(value, np.ndarray) else value


def _body(obj, table):
    """obj's JSON body given table = _records(obj): a table's rows as records
    (an audit's beside all_pass), a dict's values' bodies, a result's fields."""
    if table is not None:
        records = [dict(zip(table[0], row)) for row in table[1]]
        if isinstance(obj, BoundAudit):
            return {"all_pass": obj.all_pass, "checks": records}
        return {"entries": records} if isinstance(obj, DeltaCurve) else records
    if isinstance(obj, dict):
        return {key: _body(value, _records(value)) for key, value in obj.items()}
    if isinstance(obj, PathBoundResult):
        return obj._asdict()
    return vars(obj) if isinstance(obj, (CheegerResult, SingularSpectrum)) else obj


def render_report(obj, fmt: str) -> str:
    """Serialize a result to "csv" or "json" text: the only report writer.

    Audits, curves and lists of scan or ensemble rows have both forms;
    CSV cells are 17-digit floats, true/false, empty for None, quoted
    when they hold a comma, quote or newline (a skipped audit check
    carries its reason in its name). Cheeger, path-bound and spectrum
    results, and dicts (the gap report, a battery of audits), are JSON
    only. JSON has sorted keys, nan as null and +-inf as "inf"/"-inf",
    so it is valid JSON.
    """
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    table = _records(obj)
    results = (CheegerResult, PathBoundResult, SingularSpectrum, dict)
    if table is None and not isinstance(obj, results):
        raise TypeError(f"no report serializer for {type(obj).__name__}")
    if fmt == "json":
        return json.dumps(_json_value(_body(obj, table)), sort_keys=True, indent=2) + "\n"
    if table is None:
        raise ValueError(f"{type(obj).__name__} reports are json only")
    columns, rows = table
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(map(_cell, r) for r in [columns, *rows])
    return text.getvalue()


def emit_report(obj, path, fmt: str = "csv") -> None:
    """Write a bit-stable report file (LF endings, deterministic bytes)."""
    text = render_report(obj, fmt)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
