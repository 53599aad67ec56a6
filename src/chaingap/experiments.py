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
from dataclasses import asdict, dataclass, fields

import numpy as np

from .audit import BoundAudit
from .bounds import CheegerResult, PathBoundResult
from .empirical import DeltaCurve
from .errors import InsufficientData, NotPrime
from .families import ChainSpec
from .spectral import weighted_singular_spectrum

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
    runs.
    """
    rows = []
    for N in sorted(int(n) for n in N_list):
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
    each L. Deterministic given the seed; fractions are automatically
    non-increasing in L.
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
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    taus = np.empty(trials)
    for t in range(trials):
        steps = rng.choice(N, size=k, replace=False)
        spec = ChainSpec("circulant", N, steps=tuple(zip(steps.tolist(), p.tolist())))
        taus[t] = spec.closed_form()[1]
    scale = N ** (2.0 / (k + 1.0))
    return [
        EnsembleRow(L=float(L), fraction=float(np.mean(taus > float(L) * scale)))
        for L in L_grid
    ]


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
    """nan -> null, +-inf -> "inf"/"-inf", tuples -> lists, recursively."""
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value


def render_report(obj, fmt: str) -> str:
    """Serialize a result to "csv" or "json" text: the only report writer.

    Audits, curves and lists of scan or ensemble rows have both forms;
    CSV cells are 17-digit floats, true/false, empty for None, quoted
    when they hold a comma, quote or newline (a skipped audit check
    carries its reason in its name). Cheeger, path-bound and dict (gap)
    results are JSON only. JSON has sorted keys, nan as null and +-inf
    as "inf"/"-inf", so it is valid JSON.
    """
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    table = _records(obj)
    if table is None and not isinstance(obj, (CheegerResult, PathBoundResult, dict)):
        raise TypeError(f"no report serializer for {type(obj).__name__}")
    if fmt == "csv":
        if table is None:
            raise ValueError(f"{type(obj).__name__} reports are json only")
        columns, rows = table
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(
            map(_cell, line) for line in [columns, *rows]
        )
        return text.getvalue()
    if table is not None:
        columns, rows = table
        body = [dict(zip(columns, row)) for row in rows]
        if isinstance(obj, BoundAudit):
            body = {"all_pass": obj.all_pass, "checks": body}
        elif isinstance(obj, DeltaCurve):
            body = {"entries": body}
    elif isinstance(obj, CheegerResult):
        body = asdict(obj)
    elif isinstance(obj, PathBoundResult):
        body = obj._asdict()
    else:
        body = obj  # the gap payload
    return json.dumps(_json_value(body), sort_keys=True, indent=2) + "\n"


def emit_report(obj, path, fmt: str = "csv") -> None:
    """Write a bit-stable report file (LF endings, deterministic bytes)."""
    text = render_report(obj, fmt)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
