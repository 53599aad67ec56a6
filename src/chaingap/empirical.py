"""Exact and Monte Carlo evaluation of the empirical-average deviation.

For a stationary chain and a test function g with mu g = 0 and unit
mu-norm, the worst-case L2 size of the running average
(1/n) sum g(X_i) defines Delta_n. Under stationarity

    E[((1/n) sum_{i<n} g(X_i))^2] = <g, M_n g>_mu,

    M_n = (1/n^2) sum_{|k| < n} (n - |k|) H_|k|,   H_k = (P^k + (P^k)*)/2,

so Delta_n^2 is the largest eigenvalue of M_n restricted to the
mu-orthogonal complement of the constants, over real g. The powers
accumulate incrementally in the conjugated (symmetric) coordinates, the
constants are deflated to eigenvalue -1, and only the top eigenpair is
computed, so a whole curve costs one matrix product per power and one
top-eigenpair solve per n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsyevx

from . import tolerances as tol
from .audit import BoundAudit, make_check, skipped_check
from .chains import FiniteChain
from .errors import BadTestFunction, DegenerateKernel
from .spectral import _conjugated, _require_spectral, spectral_gap

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

# Monte Carlo replicates advance in blocks sized so that no draw buffer,
# and on the inverse-CDF route no gathered block of CDF rows, holds more
# than this many entries (512 KiB of float64).
_BLOCK_ENTRIES = 1 << 16


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


class _GramEvaluator:
    """Incremental evaluation of the deviation at nondecreasing n.

    Works in the conjugated coordinates B = D^{1/2} P D^{-1/2}, where
    d = sqrt(mu) is a left and right eigenvector of B with eigenvalue 1.
    There n^2 M_n = n I + A + A^T with A = sum_{k<n} (n - k) B^k, which is
    the running sum of the running sums S_j = B + ... + B^j, j < n: every
    term is nonnegative, so nothing cancels. Subtracting
    (d^T (n^2 M_n) d + n^2) d d^T moves the constant direction to -n^2,
    below the rest of the spectrum, which is nonnegative; so the top
    eigenpair lies in sqrt(mu)-perp and is all that is computed.
    """

    def __init__(self, chain: FiniteChain):
        self._d = np.sqrt(chain.stationary)
        self._b1 = _conjugated(chain.transition, chain.stationary)
        self._bk = np.eye(chain.size)
        self._spare = np.empty_like(self._bk)
        self._sum = np.zeros_like(self._bk)  # S_k
        self._sum_of_sums = np.zeros_like(self._bk)  # S_1 + ... + S_k
        self._k = 0  # powers accumulated so far

    def _advance(self, upto: int) -> None:
        while self._k < upto:
            self._k += 1
            np.matmul(self._bk, self._b1, out=self._spare)
            self._bk, self._spare = self._spare, self._bk
            self._sum += self._bk
            self._sum_of_sums += self._sum

    def at(self, n: int) -> tuple[float, np.ndarray]:
        """(Delta_n, maximizing g); n must not decrease between calls."""
        if n < 1:
            raise ValueError("n must be >= 1")
        self._advance(n - 1)
        d = self._d
        gram = self._sum_of_sums + self._sum_of_sums.T
        gram.flat[:: len(d) + 1] += n
        gram -= np.outer((d @ gram @ d + n * n) * d, d)
        w, vec, found, _, info = dsyevx(gram, range="I", il=len(d), iu=len(d))
        if info == 0 and found == 1:
            top, u = float(w[0]), vec[:, 0]
        else:
            # dsyevx finds no eigenvalue (m = 0, info = 0) when the top one
            # is degenerate across the whole spectrum, as for I - 2 d d^T
            w, vec = np.linalg.eigh(gram)
            top, u = float(w[-1]), vec[:, -1]
        top /= n * n
        if n == 1:
            top = 1.0  # M_1 is the identity on sqrt(mu)-perp
        elif top < tol.DELTA_SQ_FLOOR:
            top = 0.0
        value = min(np.sqrt(max(top, 0.0)), 1.0)
        g = u / self._d
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


def _require_reps(reps: int) -> None:
    if reps < 2:
        raise ValueError("reps must be >= 2: the standard error needs two replicates")


def delta_monte_carlo(
    chain: FiniteChain, g: np.ndarray, n: int, reps: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of ||mu_n g||_L2 over stationary trajectories.

    Each replicate draws X_0 exactly from mu and steps through the chain;
    the estimate is sqrt(mean((mu_n g)^2)) with a delta-method standard
    error. Deterministic given the seed: replicate r uses its own Philox
    stream keyed (seed, r), so results do not depend on scheduling.
    Replicates advance in lockstep, one numpy step for a whole block of
    them, in blocks small enough that no buffer holds more than 2^16
    entries (a single replicate's n - 1 draws excepted). Each replicate
    draws and sums in the same order as a one-at-a-time walk, so neither
    the lockstep nor the block size moves a bit of the result.

    Raises:
        BadTestFunction: g is not mean-zero with unit mu-norm (to 1e-10).
        ValueError: n < 1, or reps < 2.
    """
    _require_spectral(chain)
    g = np.asarray(g, dtype=float)
    mu = chain.stationary
    if abs(g @ mu) > 1e-10:
        raise BadTestFunction("test function must have mu-average 0")
    if abs(np.sqrt(g * g @ mu) - 1.0) > 1e-10:
        raise BadTestFunction("test function must have unit mu-norm")
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_reps(reps)

    size = chain.size
    steps = n - 1
    P = chain.transition
    mu_cdf = np.cumsum(mu)
    use_alias = size > ALIAS_THRESHOLD
    if use_alias:
        accept, alias = (np.array(t) for t in zip(*(_build_alias(row) for row in P)))
        width = steps
    else:
        row_cdf = np.cumsum(P, axis=1)
        width = max(steps, size)  # the (block, size) gather of row_cdf[x]
    block = max(1, _BLOCK_ENTRIES // max(width, 1))

    # One Philox re-keyed per replicate: the stream a fresh
    # Philox(key=(seed, rep)) would give, without building a generator each time.
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bitgen = np.random.Philox()
    rng = np.random.Generator(bitgen)

    squares = np.empty(reps)
    for first in range(0, reps, block):
        count = min(block, reps - first)
        u0 = np.empty(count)
        coin = np.empty((count, steps))
        if use_alias:
            bucket = np.empty((count, steps), dtype=np.int64)
        for r in range(count):
            key[1] = first + r
            bitgen.state = fresh
            u0[r] = rng.random()
            if use_alias:
                bucket[r] = rng.integers(0, size, size=steps)
            rng.random(out=coin[r])

        x = np.minimum(np.searchsorted(mu_cdf, u0, side="right"), size - 1)
        acc = g[x]
        for i in range(steps):
            if use_alias:
                b = bucket[:, i]
                x = np.where(coin[:, i] < accept[x, b], b, alias[x, b])
            else:
                # rows of row_cdf are nondecreasing: the count is searchsorted(side="right")
                x = np.minimum((row_cdf[x] <= coin[:, i, None]).sum(axis=1), size - 1)
            acc = acc + g[x]
        # float_power calls libm pow like a scalar ``** 2``; an array ``** 2``
        # squares instead, which differs in the last bit about once in a thousand.
        squares[first : first + count] = np.float_power(acc / n, 2.0)

    mean_sq = float(squares.mean())  # fixed summation order: reduction-order independent
    if mean_sq <= 0.0:
        return 0.0, 0.0
    se_mean = float(squares.std(ddof=1)) / np.sqrt(reps)
    estimate = float(np.sqrt(mean_sq))
    return estimate, float(se_mean / (2.0 * estimate))


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
