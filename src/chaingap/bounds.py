"""Cheeger constant, canonical-path congestion, mixing time, and the audit.

Everything in here compares the singular-value gap gamma against the
classical machinery: the bottleneck ratio, path congestion, mixing time
in total variation, reversibilized gaps, and the pseudo-spectral gap.
``inequality_audit`` evaluates the whole battery of two-sided bounds on
one chain and returns a structured pass/fail record. The reversibilized
and pseudo-spectral gaps come from spectral's conjugated matrix
B = D^{1/2} P D^{-1/2}, in which the mu-adjoint is B^T, so the audit
builds no second chain and validates none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

from . import tolerances as tol
from .audit import BoundAudit, BoundCheck, make_check, skipped_check
from .chains import FiniteChain, _bfs_tree, period
from .errors import (
    MixingCapExceeded,
    NoPathExists,
    NotIrreducible,
    TooLargeForEnumeration,
)
from .spectral import _reversibilized_gaps, pseudo_spectral_gap, spectral_gap

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


def _members(masks: np.ndarray, count: int) -> np.ndarray:
    """0/1 float rows: bit j of each mask, for j < count."""
    octets = masks.astype("<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(octets, axis=1, count=count, bitorder="little").astype(float)


def _subset_values(chain: FiniteChain, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(masks, Q(A,A^c)/mu(A)) for the bitmask subsets with 0 < mu(A) <= 1/2.

    Only those subsets can attain the minimum, and A or its complement
    always qualifies, so about half the masks pay for Q(A, A).
    """
    member = _members(masks, chain.size)
    mu_a = member @ chain.stationary
    ok = (mu_a > 0) & (mu_a <= 0.5 + tol.ROW_SUM)
    member, mu_a = member[ok], mu_a[ok]
    q_inside = ((member @ chain.edge_measure()) * member).sum(axis=1)
    return masks[ok], 1.0 - q_inside / mu_a  # Q(A, A^c) = mu(A) - Q(A, A)


# Cells (pairs of half-subsets) scored per GEMM in cheeger_exact, and the
# most masks _subset_values rescores at once.
_CELLS = 1 << 16


def _require_cut(chain: FiniteChain) -> None:
    _require_irreducible(chain)
    if chain.size < 2:
        raise ValueError("no subset A of a one-state chain has 0 < mu(A) <= 1/2")


def _near_minimal(chain: FiniteChain) -> np.ndarray:
    """Masks that could attain the exact minimum or tie with it.

    Meet in the middle: split the states into L = [0, h) and H = [h, n).
    A set A = A_L + A_H has mu(A) = mu(A_L) + mu(A_H) and
    Q(A, A) = Q(A_L, A_L) + Q(A_H, A_H) + a_L^T C a_H with
    C = Q[L, H] + Q[H, L]^T, so every pair of half-subsets is scored by
    one GEMM of the L half-subsets times C against a block of H
    half-subsets.

    Here and in _subset_values every sum adds nonnegative terms: at most
    n^2 of them for Q(A, A) and n for mu(A). Each therefore carries a
    relative error of at most about n^2 eps / 2 and n eps / 2, and since
    Q(A, A) <= mu(A) the ratio 1 - Q(A, A) / mu(A) is off by at most
    (n^2 + n + 2) eps / 2, absolutely, in either route: the two differ
    by at most about (n^2 + n + 2) eps. The margin m is four times more
    than that, and at least 1.4e-14, which also covers the tie window of
    1e-15 * max(1, xi) (xi <= 1). The running minimum is taken only over
    sets whose mass surely passes the exact test (screened mass at most
    1/2 + ROW_SUM - m), so it never falls below the true minimum by more
    than the rounding; every set within m of it is kept, masses up to
    1/2 + ROW_SUM + m included, and the exact rescoring decides.
    """
    n = chain.size
    h = n // 2
    mu, q = chain.stationary, chain.edge_measure()
    margin = 4 * (n * n + 2 * n + 8) * np.finfo(float).eps
    cap = 0.5 + tol.ROW_SUM

    low = _members(np.arange(1 << h, dtype=np.uint32), h)
    high = _members(np.arange(1 << (n - h), dtype=np.uint32), n - h)
    mass_low, mass_high = low @ mu[:h], high @ mu[h:]
    q_low = ((low @ q[:h, :h]) * low).sum(axis=1)
    q_high = ((high @ q[h:, h:]) * high).sum(axis=1)
    cross = low @ (q[:h, h:] + q[h:, :h].T)

    best = np.inf
    kept = np.empty(0, dtype=np.uint32)
    kept_ratio = np.empty(0)
    step = max(1, _CELLS >> h)
    for start in range(0, 1 << (n - h), step):
        block = slice(start, min(start + step, 1 << (n - h)))
        mass = mass_low[:, None] + mass_high[None, block]
        inside = q_low[:, None] + q_high[None, block] + cross @ high[block].T
        ok = (mass > 0) & (mass <= cap + margin)
        ratio = np.where(ok, 1.0 - inside / np.where(ok, mass, 1.0), np.inf)
        sure = ratio[mass <= cap - margin]
        if sure.size:
            best = min(best, float(sure.min()))
        near = np.nonzero(ok & (ratio <= best + margin))
        masks = near[0].astype(np.uint32) + ((near[1] + start).astype(np.uint32) << h)
        kept = np.concatenate([kept, masks])
        kept_ratio = np.concatenate([kept_ratio, ratio[near]])
        keep = kept_ratio <= best + margin
        kept, kept_ratio = kept[keep], kept_ratio[keep]
    return kept


def _lex_smallest(masks: np.ndarray) -> int:
    """The mask whose sorted state tuple is lexicographically smallest.

    Keep the masks with the smallest lowest state, drop that state, and
    repeat: the first mask to run out of states is a prefix of the rest.
    """
    rest = masks.copy()
    while True:
        lowest = rest & (~rest + np.uint32(1))
        first = lowest == lowest.min()
        masks, rest = masks[first], rest[first] ^ lowest[first]
        if not rest.all():
            return int(masks[rest == 0][0])


def cheeger_exact(chain: FiniteChain) -> CheegerResult:
    """Exact bottleneck ratio over all 2^size subsets.

    All subsets are screened by meet in the middle, one GEMM per block of
    half-subset pairs (see _near_minimal); the few that could be minimal
    are rescored exactly by _subset_values. xi is the least exact score,
    and ties (within 1e-15 * max(1, xi)) are broken by the
    lexicographically smallest sorted state tuple. Refuses chains beyond
    tol.CHEEGER_ENUM_LIMIT states (about a million subsets), and
    one-state chains, which have no subset of mass at most 1/2.
    """
    _require_cut(chain)
    n, limit = chain.size, tol.CHEEGER_ENUM_LIMIT
    if n > limit:
        raise TooLargeForEnumeration(f"{n} states exceeds enumeration limit {limit}")
    candidates = _near_minimal(chain)
    scored = [_subset_values(chain, candidates[i:i + _CELLS])
              for i in range(0, len(candidates), _CELLS)]
    masks = np.concatenate([m for m, _ in scored])
    ratio = np.concatenate([r for _, r in scored])
    xi = float(ratio.min())
    ties = masks[ratio <= xi + 1e-15 * max(1.0, abs(xi))]
    best = _lex_smallest(ties)
    return CheegerResult(xi=xi, argmin_set=tuple(j for j in range(n) if best >> j & 1), exact=True)


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


def _require_iters(iters: int) -> None:
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")


def cheeger_search(chain: FiniteChain, iters: int = 50, seed: int = 0) -> CheegerResult:
    """Randomized local search over subsets: an upper bound on xi.

    Starts from every singleton plus ``iters`` random restarts; each
    start descends by single-state moves (toggle one state in or out, or
    swap a member for a non-member), taking the first improving move,
    until no move improves. Any subset certifies an upper bound, so the
    result is always >= the exact constant. Refuses one-state chains and
    a negative ``iters``.
    """
    _require_cut(chain)
    _require_iters(iters)
    n = chain.size
    mu, q = chain.stationary, chain.edge_measure()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    starts = [[x] for x in range(n)]
    for _ in range(iters):
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

    gamma_add, gamma_mult = _reversibilized_gaps(chain)

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

    if is_lazy and math.isfinite(tmix) and eps < 0.5 and chain.reversible:
        lhs = (tau - 1.0) * math.log(1.0 / (2.0 * eps))
        checks.append(make_check("reversible_mixing_lower", lhs, tmix, "<="))
        rhs = tau * math.log(1.0 / (eps * mu_min))
        checks.append(make_check("reversible_mixing_upper", tmix, rhs, "<="))
    else:
        reason = "needs reversible, lazy, finite mixing, eps < 1/2"
        checks.append(skipped_check("reversible_mixing_lower", reason))
        checks.append(skipped_check("reversible_mixing_upper", reason))

    return BoundAudit(tuple(checks))
