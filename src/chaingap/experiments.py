"""Scaling scans, ensemble tails, least-squares fits, and report files.

The scan runs one family template over a grid of sizes, preferring the
closed-form gap where the family has one and the dense SVD otherwise; the
fit quantifies power-law growth of the relaxation time. Reports are
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
from .empirical import DeltaCurve, _philox_key
from .errors import InsufficientData, NotPrime
from .families import ChainSpec, _character_gap, _normalize_steps
from .spectral import SingularSpectrum, weighted_singular_spectrum

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

    Uses the family's closed form where available (circulant, torus,
    doubling) and weighted_singular_spectrum otherwise (card, explicit).
    Values are deterministic; only the wall-clock column varies between
    runs. Refuses an empty size list with ValueError.
    """
    sizes = sorted(int(n) for n in N_list)
    if not sizes:
        raise ValueError("the size list is empty")
    rows = []
    for N in sizes:
        spec = template.with_size(N)
        start = time.perf_counter()
        closed = spec.closed_form()
        if closed is None:
            spectrum = weighted_singular_spectrum(spec.build())
            gap, tau, method = spectrum.gap, spectrum.relaxation, spectrum.method
        else:
            (gap, tau), method = closed, "closed_form"
        wall_ms = 1000.0 * (time.perf_counter() - start)
        rows.append(
            ExperimentRow(
                family=spec.family,
                params_digest=spec.params_digest(),
                N=N,
                gamma=float(gap),
                tau=tau,
                method=method,
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
    empirical._philox_key; fractions are automatically non-increasing
    in L. Refuses an empty grid and an L that is not a number >= 0 (inf
    is one) with ValueError.
    """
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
    """tau of each trial's circulant walk, trials drawn and solved in blocks.

    Each trial draws its len(p) residues with rng.choice, in trial order,
    so the Philox stream is a loop's. A block holds as many trials as fit
    tol.BLOCK_ENTRIES frequencies 0..N//2; its steps are sorted with their p
    as _normalize_steps sorts them and go to _character_gap as one batch,
    so each tau is the bits of ChainSpec("circulant", ...).closed_form().
    """
    rng = np.random.Generator(np.random.Philox(key=_philox_key(seed)))
    per = max(1, tol.BLOCK_ENTRIES // (N // 2 + 1))
    taus = np.empty(trials)
    for first in range(0, trials, per):
        count = min(per, trials - first)
        a = np.array([rng.choice(N, size=p.size, replace=False) for _ in range(count)])
        order = np.argsort(a, axis=1)
        walks = _character_gap(N, [(np.take_along_axis(a, order, axis=1), p[order])])
        taus[first : first + count] = [tau for _, tau in walks]
    return taus


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
