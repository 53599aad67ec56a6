"""Exact and Monte Carlo evaluation of the empirical-average deviation.

For a stationary chain and a test function g with mu g = 0 and unit
mu-norm, the worst-case L2 size of the running average
(1/n) sum g(X_i) defines Delta_n. Under stationarity

    E[((1/n) sum_{i<n} g(X_i))^2] = <g, M_n g>_mu,

    M_n = (1/n^2) sum_{|k| < n} (n - |k|) H_|k|,   H_k = (P^k + (P^k)*)/2,

so Delta_n^2 is the largest eigenvalue of M_n restricted to the
mu-orthogonal complement of the constants, over real g. The restriction
is realized by an explicit orthonormal basis of that complement in the
conjugated (symmetric) coordinates, and the H_k accumulate incrementally
so a whole curve costs one small eigensolve per n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .audit import BoundAudit, make_check, skipped_check
from .chains import FiniteChain, mu_inner, mu_norm
from .errors import BadTestFunction, DegenerateKernel
from .spectral import _require_spectral, spectral_gap

__all__ = [
    "DeltaPoint",
    "DeltaCurve",
    "delta_exact",
    "delta_curve",
    "delta_monte_carlo",
    "delta_bounds_audit",
]

# Rows of the transition matrix switch from inverse-CDF sampling to alias
# tables above this state count (reps * n draws dominate MC runtime).
ALIAS_THRESHOLD = 64


@dataclass(frozen=True)
class DeltaPoint:
    n: int
    delta_exact: float
    delta_mc: float | None = None
    mc_stderr: float | None = None
    maximizer: np.ndarray | None = None


@dataclass(frozen=True)
class DeltaCurve:
    """Exact deviation values over a range of n, with optional MC columns."""

    entries: tuple[DeltaPoint, ...]

    def to_csv(self) -> str:
        lines = ["n,delta_exact,delta_mc,mc_stderr"]
        for e in self.entries:
            mc = "" if e.delta_mc is None else format(e.delta_mc, ".17g")
            se = "" if e.mc_stderr is None else format(e.mc_stderr, ".17g")
            lines.append(f"{e.n},{format(e.delta_exact, '.17g')},{mc},{se}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "entries": [
                {
                    "n": e.n,
                    "delta_exact": e.delta_exact,
                    "delta_mc": e.delta_mc,
                    "mc_stderr": e.mc_stderr,
                }
                for e in self.entries
            ]
        }


def _complement_basis(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(mu), W) with W an orthonormal basis of sqrt(mu)-perp.

    W is the trailing columns of the Householder reflection sending e_0
    to -sqrt(mu).
    """
    d = np.sqrt(mu)
    u = d.copy()
    u[0] += 1.0
    Q = np.eye(len(d)) - 2.0 * np.outer(u, u) / (u @ u)
    return d, Q[:, 1:]


class _GramEvaluator:
    """Incremental evaluation of the deviation at nondecreasing n."""

    def __init__(self, chain: FiniteChain):
        self._d, self._w = _complement_basis(chain.stationary)
        self._b1 = self._d[:, None] * chain.transition / self._d[None, :]
        self._bk = np.eye(chain.size)
        self._reduced_sum = np.zeros((chain.size - 1, chain.size - 1))
        self._reduced_wsum = np.zeros_like(self._reduced_sum)
        self._k = 0  # powers accumulated so far

    def _advance(self, upto: int) -> None:
        while self._k < upto:
            self._k += 1
            self._bk = self._bk @ self._b1
            sym = 0.5 * (self._bk + self._bk.T)
            reduced = self._w.T @ sym @ self._w
            self._reduced_sum += reduced
            self._reduced_wsum += self._k * reduced

    def at(self, n: int) -> tuple[float, np.ndarray]:
        """(Delta_n, maximizing g); n must not decrease between calls."""
        if n < 1:
            raise ValueError("n must be >= 1")
        self._advance(n - 1)
        m = self._reduced_sum.shape[0]
        gram = (n * np.eye(m) + 2.0 * (n * self._reduced_sum - self._reduced_wsum)) / n**2
        w, vec = np.linalg.eigh(gram)
        top = float(w[-1])
        if top < tol.DELTA_SQ_FLOOR:
            top = 0.0
        value = min(np.sqrt(max(top, 0.0)), 1.0)
        g = (self._w @ vec[:, -1]) / self._d
        return value, g


def delta_exact(chain: FiniteChain, n: int) -> tuple[float, np.ndarray]:
    """Worst-case L2 deviation of the length-n empirical average.

    Returns (Delta_n, g) where g attains the supremum: mu g = 0 and
    ||g||_mu = 1, with the start drawn from mu.
    """
    _require_spectral(chain)
    return _GramEvaluator(chain).at(int(n))


def delta_curve(chain: FiniteChain, n_list) -> DeltaCurve:
    """Batch of delta_exact sharing one incremental power accumulation."""
    _require_spectral(chain)
    ns = sorted({int(n) for n in n_list})
    if ns and ns[0] < 1:
        raise ValueError("all n must be >= 1")
    ev = _GramEvaluator(chain)
    pts = []
    for n in ns:
        value, g = ev.at(n)
        g.setflags(write=False)
        pts.append(DeltaPoint(n=n, delta_exact=value, maximizer=g))
    return DeltaCurve(entries=tuple(pts))


def _replicate_rng(seed: int, rep: int) -> np.random.Generator:
    # Counter-based Philox keyed per (seed, replicate): reproducible and
    # embarrassingly parallel across replicates.
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(rep)])
    return np.random.Generator(np.random.Philox(key=key))


def _build_alias(prob: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker alias table for one probability row."""
    n = len(prob)
    scaled = prob * n
    accept = np.zeros(n)
    alias = np.zeros(n, dtype=np.int64)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s, l = small.pop(), large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] = scaled[l] - (1.0 - scaled[s])
        (small if scaled[l] < 1.0 else large).append(l)
    for i in large + small:
        accept[i] = 1.0
    return accept, alias


def delta_monte_carlo(
    chain: FiniteChain, g: np.ndarray, n: int, reps: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of ||mu_n g||_L2 over stationary trajectories.

    Each replicate draws X_0 exactly from mu and steps through the chain;
    the estimate is sqrt(mean((mu_n g)^2)) with a delta-method standard
    error. Deterministic given the seed: replicate r uses its own Philox
    stream keyed (seed, r), so results do not depend on scheduling.

    Raises:
        BadTestFunction: g is not mean-zero with unit mu-norm (to 1e-10).
    """
    _require_spectral(chain)
    g = np.asarray(g, dtype=float)
    mu = chain.stationary
    if abs(mu_inner(g, np.ones_like(g), mu)) > 1e-10:
        raise BadTestFunction("test function must have mu-average 0")
    if abs(mu_norm(g, mu) - 1.0) > 1e-10:
        raise BadTestFunction("test function must have unit mu-norm")
    if n < 1 or reps < 1:
        raise ValueError("n and reps must be >= 1")

    size = chain.size
    P = chain.transition
    mu_cdf = np.cumsum(mu)
    use_alias = size > ALIAS_THRESHOLD
    if use_alias:
        tables = [_build_alias(P[x]) for x in range(size)]
    else:
        row_cdf = np.cumsum(P, axis=1)

    squares = np.empty(reps)
    for rep in range(reps):
        rng = _replicate_rng(seed, rep)
        x = min(int(np.searchsorted(mu_cdf, rng.random(), side="right")), size - 1)
        acc = g[x]
        if use_alias:
            bucket = rng.integers(0, size, size=n - 1)
            coin = rng.random(n - 1)
            for i in range(n - 1):
                accept, alias = tables[x]
                b = int(bucket[i])
                x = b if coin[i] < accept[b] else int(alias[b])
                acc += g[x]
        else:
            u = rng.random(n - 1)
            for i in range(n - 1):
                x = min(int(np.searchsorted(row_cdf[x], u[i], side="right")), size - 1)
                acc += g[x]
        squares[rep] = (acc / n) ** 2

    mean_sq = float(squares.mean())  # fixed summation order: reduction-order independent
    if mean_sq <= 0.0:
        return 0.0, 0.0
    se_mean = float(squares.std(ddof=1)) / np.sqrt(reps)
    estimate = float(np.sqrt(mean_sq))
    return estimate, se_mean / (2.0 * estimate)


def delta_bounds_audit(chain: FiniteChain, n_max: int) -> BoundAudit:
    """Check the deviation-vs-relaxation-time inequalities up to n_max.

    Verifies, against the exact evaluator, that for all 1 <= n <= n_max
    the deviation is at most sqrt(4 tau / n); that it stays above 1/132
    for every n <= tau/3; and that for every n with 2n <= n_max the
    window max over n <= k <= 2n is at least tau / (2n + 3 tau). Each
    inequality is reported once with its worst margin (and the n where
    that occurs).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    gamma, tau = spectral_gap(chain)
    if not np.isfinite(tau):
        raise DegenerateKernel("deviation bounds need a finite relaxation time")
    curve = delta_curve(chain, range(1, n_max + 1))
    delta = np.array([e.delta_exact for e in curve.entries])
    ns = np.arange(1, n_max + 1)

    checks = []
    upper = np.sqrt(4.0 * tau / ns)
    worst = int(np.argmin(upper - delta))
    checks.append(
        make_check(f"avg_dev_upper[n={ns[worst]}]", delta[worst], upper[worst], "<=")
    )

    floor_ns = ns[ns <= tau / 3.0]
    if len(floor_ns) == 0:
        checks.append(skipped_check("avg_dev_floor", "no n <= tau/3"))
    else:
        vals = delta[: len(floor_ns)]
        worst = int(np.argmin(vals))
        checks.append(
            make_check(f"avg_dev_floor[n={floor_ns[worst]}]", vals[worst], 1.0 / 132.0, ">=")
        )

    if n_max < 2:
        checks.append(skipped_check("avg_dev_window_lower", "n_max < 2"))
    else:
        worst_margin, worst_n, worst_lhs, worst_rhs = np.inf, 1, 0.0, 0.0
        for n in range(1, n_max // 2 + 1):
            lhs = float(delta[n - 1 : 2 * n].max())
            rhs = tau / (2.0 * n + 3.0 * tau)
            if lhs - rhs < worst_margin:
                worst_margin, worst_n, worst_lhs, worst_rhs = lhs - rhs, n, lhs, rhs
        checks.append(
            make_check(f"avg_dev_window_lower[n={worst_n}]", worst_lhs, worst_rhs, ">=")
        )
    return BoundAudit(tuple(checks))
