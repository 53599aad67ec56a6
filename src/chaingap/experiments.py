"""Scaling scans, ensemble tails, least-squares fits, and report files.

The scan runs one family template over a grid of sizes, preferring the
closed-form gap where the family has one and gap_spectrum otherwise; the
fit quantifies power-law growth of the relaxation time. Reports are
bit-stable: fixed header order, LF line endings, 17-significant-digit
floats, JSON with sorted keys.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .audit import BoundAudit
from .empirical import DeltaCurve
from .errors import InsufficientData, NotPrime
from .families import ChainSpec
from .spectral import gap_spectrum

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

    Uses the family's closed form where available (circulant, torus) and
    gap_spectrum otherwise. Values are deterministic; only the
    wall-clock column varies between runs.
    """
    rows = []
    for N in sorted(int(n) for n in N_list):
        spec = template.with_size(N)
        start = time.perf_counter()
        closed = spec.closed_form()
        if closed is None:
            spectrum = gap_spectrum(spec.build())
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


def fit_scaling(rows: list[ExperimentRow], mode: str = "power") -> ScalingFit:
    """OLS of log tau against log N ("power") or log log N ("log").

    The "log" mode quantifies logarithmic growth (slope 1 means
    tau ~ log N). Requires at least three rows with finite tau.
    """
    if mode not in ("power", "log"):
        raise ValueError("mode must be 'power' or 'log'")
    pts = [(r.N, r.tau) for r in rows]
    if len(pts) < 3 or any(not math.isfinite(t) for _, t in pts):
        raise InsufficientData("need >= 3 rows with finite relaxation times")
    x = np.log([n for n, _ in pts])
    if mode == "log":
        x = np.log(x)
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
    Z/NZ (resampling collisions), computes each tau from the circulant
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
        while True:
            steps = rng.integers(0, N, size=k)
            if len(set(steps.tolist())) == k:
                break
        spec = ChainSpec("circulant", N, steps=tuple(zip(steps.tolist(), p.tolist())))
        taus[t] = spec.closed_form()[1]
    scale = N ** (2.0 / (k + 1.0))
    return [
        EnsembleRow(L=float(L), fraction=float(np.mean(taus > float(L) * scale)))
        for L in L_grid
    ]


# ---------------------------------------------------------------------------
# Bit-stable reports


def _fmt(value: float) -> str:
    return format(value, ".17g")


EXPERIMENT_HEADER = "family,params_digest,N,gamma,tau,method,wall_ms"


def _rows_csv(rows: list[ExperimentRow]) -> str:
    lines = [EXPERIMENT_HEADER]
    for r in rows:
        lines.append(
            f"{r.family},{r.params_digest},{r.N},{_fmt(r.gamma)},{_fmt(r.tau)},"
            f"{r.method},{_fmt(r.wall_ms)}"
        )
    return "\n".join(lines) + "\n"


def _rows_json(rows: list[ExperimentRow]):
    return [
        {
            "family": r.family,
            "params_digest": r.params_digest,
            "N": r.N,
            "gamma": r.gamma,
            "tau": "inf" if math.isinf(r.tau) else r.tau,
            "method": r.method,
            "wall_ms": r.wall_ms,
        }
        for r in rows
    ]


def _ensemble_csv(rows: list[EnsembleRow]) -> str:
    lines = ["L,fraction"]
    for r in rows:
        lines.append(f"{_fmt(r.L)},{_fmt(r.fraction)}")
    return "\n".join(lines) + "\n"


def _audit_csv(audit: BoundAudit) -> str:
    lines = ["name,lhs,relation,rhs,margin,applicable,pass"]
    for c in audit.checks:
        lines.append(
            f"{c.name},{_fmt(c.lhs)},{c.relation},{_fmt(c.rhs)},{_fmt(c.margin)},"
            f"{str(c.applicable).lower()},{str(c.passed).lower()}"
        )
    return "\n".join(lines) + "\n"


def render_report(obj, fmt: str) -> str:
    """Serialize a result object to "csv" or "json" text."""
    if fmt not in ("csv", "json"):
        raise ValueError("format must be 'csv' or 'json'")
    if isinstance(obj, BoundAudit):
        body = obj.to_json() if fmt == "json" else None
        text = _audit_csv(obj) if fmt == "csv" else None
    elif isinstance(obj, DeltaCurve):
        body = obj.to_json() if fmt == "json" else None
        text = obj.to_csv() if fmt == "csv" else None
    elif isinstance(obj, list) and (not obj or isinstance(obj[0], ExperimentRow)):
        body = _rows_json(obj) if fmt == "json" else None
        text = _rows_csv(obj) if fmt == "csv" else None
    elif isinstance(obj, list) and isinstance(obj[0], EnsembleRow):
        body = [{"L": r.L, "fraction": r.fraction} for r in obj] if fmt == "json" else None
        text = _ensemble_csv(obj) if fmt == "csv" else None
    elif isinstance(obj, dict):
        body = obj if fmt == "json" else None
        text = None
        if fmt == "csv":
            raise ValueError("dict payloads serialize to json only")
    else:
        raise TypeError(f"no report serializer for {type(obj).__name__}")
    if fmt == "json":
        return json.dumps(body, sort_keys=True, indent=2) + "\n"
    return text


def emit_report(obj, path, fmt: str = "csv") -> None:
    """Write a bit-stable report file (LF endings, deterministic bytes)."""
    text = render_report(obj, fmt)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
