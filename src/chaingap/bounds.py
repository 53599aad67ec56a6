"""Cheeger constant, canonical-path congestion, mixing time, and the audit.

Everything in here compares the singular-value gap gamma against the
classical machinery: the bottleneck ratio, path congestion, mixing time
in total variation, reversibilized gaps, and the pseudo-spectral gap.
``inequality_audit`` evaluates the whole battery of two-sided bounds on
one chain and returns a structured pass/fail record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from . import tolerances as tol
from .audit import BoundAudit, BoundCheck, make_check, skipped_check
from .chains import FiniteChain, _bfs_tree, period, reversibilize
from .errors import (
    MixingCapExceeded,
    NoPathExists,
    NotIrreducible,
    TooLargeForEnumeration,
)
from .spectral import pseudo_spectral_gap, self_adjoint_gap, spectral_gap

__all__ = [
    "CheegerResult",
    "PathBoundResult",
    "MixingResult",
    "BoundAudit",
    "BoundCheck",
    "cheeger_exact",
    "cheeger_search",
    "path_bound",
    "mixing_time",
    "inequality_audit",
]


@dataclass(frozen=True)
class CheegerResult:
    """Bottleneck ratio xi = Q(A, A^c) / mu(A), minimized over mu(A) <= 1/2.

    ``exact`` marks full enumeration; otherwise the value is an upper
    bound certified by ``argmin_set``.
    """

    xi: float
    argmin_set: tuple[int, ...]
    exact: bool


class PathBoundResult(NamedTuple):
    """Worst edge congestion B of the breadth-first path ensemble, and 1/B <= gamma."""

    congestion: float
    gap_lower: float


class MixingResult(NamedTuple):
    tmix: float  # nonnegative int, or math.inf for periodic chains
    tv_curve: list[tuple[int, float]]


def _require_irreducible(chain: FiniteChain) -> None:
    if not chain.irreducible:
        raise NotIrreducible("operation requires an irreducible chain")


# ---------------------------------------------------------------------------
# Cheeger constant


def _subset_values(chain: FiniteChain, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(masks, Q(A,A^c)/mu(A)) for the bitmask subsets with 0 < mu(A) <= 1/2.

    Only those subsets can attain the minimum, and A or its complement
    always qualifies, so about half the masks pay for Q(A, A).
    """
    octets = masks.astype("<u4").view(np.uint8).reshape(-1, 4)
    member = np.unpackbits(octets, axis=1, count=chain.size, bitorder="little").astype(float)
    mu_a = member @ chain.stationary
    ok = (mu_a > 0) & (mu_a <= 0.5 + tol.ROW_SUM)
    member, mu_a = member[ok], mu_a[ok]
    q_inside = ((member @ chain.edge_measure()) * member).sum(axis=1)
    return masks[ok], 1.0 - q_inside / mu_a  # Q(A, A^c) = mu(A) - Q(A, A)


def cheeger_exact(chain: FiniteChain) -> CheegerResult:
    """Exact bottleneck ratio by enumeration of all 2^size subsets.

    Ties are broken by the lexicographically smallest sorted state tuple.
    Refuses chains beyond tol.CHEEGER_ENUM_LIMIT states (about a million
    subsets).
    """
    _require_irreducible(chain)
    n, limit = chain.size, tol.CHEEGER_ENUM_LIMIT
    if n > limit:
        raise TooLargeForEnumeration(f"{n} states exceeds enumeration limit {limit}")
    best_val = np.inf
    best_sets: list[tuple[int, ...]] = []
    chunk = 1 << 16
    for start in range(1, 1 << n, chunk):
        masks = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint32)
        masks, ratio = _subset_values(chain, masks)
        if not len(ratio):
            continue
        lo = float(ratio.min())
        tie = 1e-15 * max(1.0, abs(best_val if best_val < lo else lo))
        if lo < best_val - tie:
            best_val = lo
            best_sets = []
        near = np.nonzero(ratio <= best_val + tie)[0]
        for i in near:
            m = int(masks[i])
            best_sets.append(tuple(j for j in range(n) if (m >> j) & 1))
    return CheegerResult(xi=best_val, argmin_set=min(best_sets), exact=True)


def _subset_value(mu: np.ndarray, q: np.ndarray, idx) -> float:
    """Q(A, A^c) / mu(A) for the sorted states idx; inf unless 0 < mu(A) <= 1/2."""
    mu_a = float(mu[idx].sum())
    if mu_a <= 0 or mu_a > 0.5 + tol.ROW_SUM:
        return np.inf
    inside = float(q[np.ix_(idx, idx)].sum())
    return 1.0 - inside / mu_a


def _may_pass(q_new, q_terms, m_new, m_terms, threshold, ulps):
    """Moves whose exactly summed score could fall below threshold.

    q_new and m_new are Q(A', A') and mu(A') updated from A; q_terms and
    m_terms are the summed magnitudes of their terms. Every sum involved,
    in the update or in _subset_value, adds nonnegative terms, so
    ``ulps`` times those magnitudes bounds how far the two can differ.
    """
    q_hi = q_new + ulps * q_terms
    m_lo = m_new - ulps * m_terms
    unsure = m_lo <= 0.0  # the mass may have cancelled: no bound on the ratio
    ratio = q_hi / np.where(unsure, 1.0, m_lo)
    low = 1.0 - ratio - ulps * (1.0 + ratio)
    return (m_lo <= 0.5 + tol.ROW_SUM) & (unsure | (low < threshold))


def _first_improvement(mu, q, inside, value):
    """The first move of the search order that scores below value - 1e-15.

    The order is: toggle each member, then each non-member, in ascending
    state order (never emptying the set), then swap each member for each
    non-member, member-major. Every move is scored at once from mu(A),
    Q(A, A) and r + c = Q a + Q^T a: a toggle changes Q(A, A) by
    +-(r + c)[x] + Q[x, x], and a swap also subtracts Q[x, y] + Q[y, x].
    Only the moves that could pass within the rounding margin are
    rescored exactly, in order, so the result is the one a plain walk
    through the order finds. Returns (trial states, score) or None.
    """
    n = len(mu)
    member = np.zeros(n, dtype=bool)
    member[inside] = True
    outside = np.flatnonzero(~member)
    a = member.astype(float)
    rc = q @ a + a @ q
    diag = q.diagonal()
    mass = float(mu[inside].sum())
    q_in = float(a @ q @ a)
    threshold = value - 1e-15
    # n-term sums in any order (BLAS) and numpy's pairwise sums of up to
    # n^2 terms, plus the few roundings of the update itself
    ulps = (2 * n + 64) * np.finfo(float).eps

    order = np.concatenate([inside, outside])
    sign = np.where(member[order], -1.0, 1.0)
    toggles = _may_pass(
        q_in + sign * rc[order] + diag[order], q_in + rc[order] + diag[order],
        mass + sign * mu[order], mass + mu[order], threshold, ulps,
    )
    if len(inside) == 1:
        toggles[0] = False  # the empty set is not a move
    for x in order[toggles]:
        trial = inside[inside != x] if member[x] else np.sort(np.append(inside, x))
        v = _subset_value(mu, q, trial)
        if v < threshold:
            return trial, v

    own = rc + diag
    cross = q[np.ix_(inside, outside)] + q[np.ix_(outside, inside)].T
    swaps = _may_pass(
        q_in + (diag - rc)[inside, None] + own[None, outside] - cross,
        q_in + own[inside, None] + own[None, outside] + cross,
        mass - mu[inside, None] + mu[None, outside],
        mass + mu[inside, None] + mu[None, outside], threshold, ulps,
    )
    for i, j in zip(*np.nonzero(swaps)):
        trial = np.sort(np.append(inside[inside != inside[i]], outside[j]))
        v = _subset_value(mu, q, trial)
        if v < threshold:
            return trial, v
    return None


def cheeger_search(chain: FiniteChain, iters: int = 50, seed: int = 0) -> CheegerResult:
    """Randomized local search over subsets: an upper bound on xi.

    Starts from every singleton plus ``iters`` random restarts; each
    start descends by single-state moves (toggle one state in or out, or
    swap a member for a non-member), taking the first improving move,
    until no move improves. Any subset certifies an upper bound, so the
    result is always >= the exact constant.
    """
    _require_irreducible(chain)
    n = chain.size
    mu, q = chain.stationary, chain.edge_measure()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    starts = [[x] for x in range(n)]
    for _ in range(max(iters, 0)):
        mask = rng.random(n) < rng.uniform(0.15, 0.6)
        starts.append(np.flatnonzero(mask).tolist() or [int(rng.integers(n))])

    best = (np.inf, (0,))
    for start in starts:
        subset = np.array(start)
        value = _subset_value(mu, q, subset)
        while (move := _first_improvement(mu, q, subset, value)) is not None:
            subset, value = move
        key = (value, tuple(subset.tolist()))
        if key < best:
            best = key
    return CheegerResult(xi=best[0], argmin_set=best[1], exact=False)


# ---------------------------------------------------------------------------
# Canonical paths


def _bfs_congestion(chain: FiniteChain) -> float:
    """B = max_e (1/Q(e)) sum_{paths through e} mu(x) mu(y) |path| over BFS paths.

    The paths are shortest directed paths in E = {(x, y): Q(x, y) > 0},
    ties resolved lexicographically. The path from s to t crosses the tree
    edge (pred[v], v) exactly when t is in the subtree of v, and has
    depth(t) edges: from source s that edge carries
    mu(s) sum_{t in subtree(v)} mu(t) depth(t). No path is built.
    """
    n = chain.size
    q = chain.edge_measure()
    mu = chain.stationary.tolist()
    graph = csr_matrix(q > 0, dtype=float)
    heads, tails, loads = [], [], []
    for s in range(n):
        order, pred, depth = _bfs_tree(graph, s)
        if len(order) < n:
            t = min(set(range(n)) - set(order))
            raise NoPathExists(f"no directed path from {s} to {t}")
        subtree = [m * d for m, d in zip(mu, depth)]
        for v in reversed(order[1:]):
            subtree[pred[v]] += subtree[v]
        tails += order[1:]
        heads += [pred[v] for v in order[1:]]
        loads += [mu[s] * subtree[v] for v in order[1:]]
    edges = np.array(heads) * n + np.array(tails)
    used = np.unique(edges)
    load = np.bincount(edges, weights=loads, minlength=n * n)[used]
    return float((load / q.ravel()[used]).max())


def path_bound(chain: FiniteChain) -> PathBoundResult:
    """Congestion B of breadth-first shortest paths, and the bound gamma >= 1/B.

    Any path ensemble would give a valid bound; this one is fixed so that
    B repeats to the bit. Only B is computed, never the paths.
    """
    _require_irreducible(chain)
    congestion = _bfs_congestion(chain)
    return PathBoundResult(congestion, 1.0 / congestion)


# ---------------------------------------------------------------------------
# Mixing time


def _worst_tv(powered: np.ndarray, mu: np.ndarray) -> float:
    return float(0.5 * np.abs(powered - mu[None, :]).sum(axis=1).max())


def mixing_time(chain: FiniteChain, eps: float) -> MixingResult:
    """First n with worst-start total variation distance <= eps.

    Exact evaluation of d(n) = max_x TV(P^n_x, mu) by matrix powering;
    doubling search followed by binary search, relying on (and checking)
    that d is non-increasing. Periodic chains that fail to reach eps by
    the cap of 10 N^2 + 1000 steps report infinity; aperiodic ones raise
    instead, since they always mix eventually.
    """
    _require_irreducible(chain)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    n_states = chain.size
    cap = 10 * n_states * n_states + 1000
    mu = chain.stationary
    P = chain.transition
    evaluated: dict[int, float] = {0: _worst_tv(np.eye(n_states), mu)}

    if evaluated[0] <= eps:
        return MixingResult(0, sorted(evaluated.items()))

    squares = [P]  # squares[j] = P^(2^j)
    step, power = 1, P
    hit = None
    while True:
        evaluated[step] = _worst_tv(power, mu)
        if evaluated[step] <= eps:
            hit = step
            break
        if 2 * step > cap:
            break
        power = power @ power
        squares.append(power)
        step *= 2

    def power_of(m: int) -> np.ndarray:
        out = np.eye(n_states)
        j = 0
        while m:
            if m & 1:
                out = out @ squares[j]
            m >>= 1
            j += 1
        return out

    if hit is None:
        curve = sorted(evaluated.items())
        _check_monotone(curve)
        if period(chain) > 1:
            return MixingResult(math.inf, curve)
        raise MixingCapExceeded(
            f"aperiodic chain still above eps={eps} after {step} steps (cap {cap})"
        )

    lo, hi = hit // 2, hit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        evaluated[mid] = _worst_tv(power_of(mid), mu)
        if evaluated[mid] <= eps:
            hi = mid
        else:
            lo = mid
    curve = sorted(evaluated.items())
    _check_monotone(curve)
    return MixingResult(hi, curve)


def _check_monotone(curve: list[tuple[int, float]]) -> None:
    for (_, a), (_, b) in zip(curve, curve[1:]):
        if b > a + 1e-12:
            raise AssertionError(f"worst-case TV increased along the curve: {a} -> {b}")


# ---------------------------------------------------------------------------
# The inequality audit


def inequality_audit(
    chain: FiniteChain,
    eps: float = 1.0 / 6.0,
    k_max: int = 10,
    group_walk: bool = False,
) -> BoundAudit:
    """Evaluate every applicable two-sided bound on gamma for one chain.

    Covers the reversibilization inequalities, the mixing-time
    comparisons in both directions (the second gated on laziness
    P(x, x) >= 1/2), the Cheeger sandwich (gated on the enumeration
    limit), the canonical-path bound with default paths, the
    pseudo-spectral-gap comparison, and for reversible lazy chains the
    classical relaxation/mixing inequalities. ``group_walk`` additionally
    reports the doubling bound against the symmetrized-generator walk,
    which for a group walk is its additive reversibilization.

    Inapplicable checks are recorded with ``applicable=False``, never
    silently dropped.
    """
    _require_irreducible(chain)
    gamma, tau = spectral_gap(chain)
    mu_min = float(chain.stationary.min())
    laziness = float(chain.transition.diagonal().min())
    is_lazy = laziness >= 0.5

    gamma_add = self_adjoint_gap(reversibilize(chain, "additive"))
    gamma_mult = self_adjoint_gap(reversibilize(chain, "multiplicative"))

    checks: list[BoundCheck] = [
        make_check("additive_gap_lower", 0.5 * gamma_add, gamma, "<="),
        make_check("additive_gap_upper", gamma, math.sqrt(2.0 * gamma_add), "<="),
        make_check("multiplicative_gap_lower", 0.5 * gamma_mult, gamma, "<="),
    ]
    if is_lazy:
        checks.append(
            make_check("multiplicative_gap_upper", gamma, math.sqrt(2.0 * gamma_mult), "<=")
        )
    else:
        checks.append(skipped_check("multiplicative_gap_upper", "min diag < 1/2"))

    if group_walk:
        if gamma_add > 0:
            checks.append(make_check("group_walk_doubling", tau, 2.0 / gamma_add, "<="))
        else:
            checks.append(skipped_check("group_walk_doubling", "symmetrized walk has gap 0"))

    mix = mixing_time(chain, eps)
    tmix = mix.tmix
    if not math.isfinite(tmix):
        checks.append(skipped_check("relaxation_vs_mixing", "mixing time infinite"))
    elif not (0.0 < eps < 0.2):
        checks.append(skipped_check("relaxation_vs_mixing", "eps outside (0, 1/5)"))
    elif not math.isfinite(tau):
        checks.append(skipped_check("relaxation_vs_mixing", "relaxation time infinite"))
    else:
        factor = 4.0 / math.log(2.0 / (1.0 + 4.0 * eps + 2.0 * eps * eps)) + 2.0
        checks.append(make_check("relaxation_vs_mixing", tau, factor * tmix, "<="))

    if not is_lazy:
        checks.append(skipped_check("mixing_vs_relaxation", "min diag < 1/2"))
    elif not math.isfinite(tmix):
        checks.append(skipped_check("mixing_vs_relaxation", "mixing time infinite"))
    elif not eps < 0.5:
        checks.append(skipped_check("mixing_vs_relaxation", "eps outside (0, 1/2)"))
    else:
        bound = 1.0 + 12.0 * tau * tau * math.log(1.0 / (2.0 * eps * mu_min))
        checks.append(make_check("mixing_vs_relaxation", tmix, bound, "<="))

    if chain.size <= tol.CHEEGER_ENUM_LIMIT:
        xi = cheeger_exact(chain).xi
        checks.append(make_check("cheeger_lower", xi * xi / 16.0, gamma, "<="))
        checks.append(make_check("cheeger_upper", gamma, 32.0 * xi, "<="))
    else:
        checks.append(skipped_check("cheeger_lower", "beyond enumeration limit"))
        checks.append(skipped_check("cheeger_upper", "beyond enumeration limit"))

    congestion_bound = path_bound(chain).gap_lower
    checks.append(make_check("path_congestion", congestion_bound, gamma, "<="))

    ps = pseudo_spectral_gap(chain, k_max=k_max)
    checks.append(make_check(f"pseudo_gap[k={ps.k}]", 0.5 * ps.value, gamma, "<="))

    if chain.reversible and is_lazy and math.isfinite(tmix) and eps < 0.5:
        lhs = (tau - 1.0) * math.log(1.0 / (2.0 * eps))
        checks.append(make_check("reversible_mixing_lower", lhs, tmix, "<="))
        rhs = tau * math.log(1.0 / (eps * mu_min))
        checks.append(make_check("reversible_mixing_upper", tmix, rhs, "<="))
    else:
        reason = "needs reversible, lazy, finite mixing, eps < 1/2"
        checks.append(skipped_check("reversible_mixing_lower", reason))
        checks.append(skipped_check("reversible_mixing_upper", reason))

    return BoundAudit(tuple(checks))
