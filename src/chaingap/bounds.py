"""Cheeger constant, canonical-path congestion, mixing time, and the audit.

Everything in here compares the singular-value gap gamma against the
classical machinery: the bottleneck ratio, path congestion, mixing time
in total variation, reversibilized gaps, and the pseudo-spectral gap.
``inequality_audit`` evaluates the whole battery of two-sided bounds on
one chain and returns a structured pass/fail record.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .audit import BoundAudit, BoundCheck, make_check, skipped_check
from .chains import FiniteChain, period, reversibilize
from .errors import (
    MixingCapExceeded,
    NoPathExists,
    NotIrreducible,
    TooLargeForEnumeration,
)
from .spectral import pseudo_spectral_gap, self_adjoint_gap, spectral_gap

__all__ = [
    "CheegerResult",
    "PathEnsemble",
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


@dataclass(frozen=True)
class PathEnsemble:
    """One directed path per ordered pair of distinct states.

    Paths are edge lists inside E = {(x, y): Q(x, y) > 0}; ``congestion``
    is the worst edge load B = max_e (1/Q(e)) sum_{paths through e}
    mu(x) mu(y) |path|.
    """

    paths: dict[tuple[int, int], tuple[tuple[int, int], ...]]
    congestion: float


class PathBoundResult(NamedTuple):
    congestion: float
    gap_lower: float
    ensemble: PathEnsemble


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


def _subset_value(chain: FiniteChain, states: set[int]) -> float:
    mu = chain.stationary
    q = chain.edge_measure()
    idx = sorted(states)
    mu_a = float(mu[idx].sum())
    if mu_a <= 0 or mu_a > 0.5 + tol.ROW_SUM:
        return np.inf
    inside = float(q[np.ix_(idx, idx)].sum())
    return 1.0 - inside / mu_a


def cheeger_search(chain: FiniteChain, iters: int = 50, seed: int = 0) -> CheegerResult:
    """Randomized local search over subsets: an upper bound on xi.

    Starts from every singleton plus ``iters`` random restarts; each
    start descends by single-state moves (toggle one state in or out, or
    swap a member for a non-member) until no move improves. Any subset
    certifies an upper bound, so the result is always >= the exact
    constant.
    """
    _require_irreducible(chain)
    n = chain.size
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    starts = [{x} for x in range(n)]
    for _ in range(max(iters, 0)):
        mask = rng.random(n) < rng.uniform(0.15, 0.6)
        subset = {i for i in range(n) if mask[i]}
        starts.append(subset or {int(rng.integers(n))})

    def neighborhood(subset):
        inside = sorted(subset)
        outside = [x for x in range(n) if x not in subset]
        for x in inside + outside:
            trial = set(subset)
            (trial.remove if x in trial else trial.add)(x)
            if trial:
                yield trial
        for x in inside:
            for y in outside:
                trial = set(subset)
                trial.remove(x)
                trial.add(y)
                yield trial

    best = (np.inf, (0,))
    for subset in starts:
        value = _subset_value(chain, subset)
        improved = True
        while improved:
            improved = False
            for trial in neighborhood(subset):
                v = _subset_value(chain, trial)
                if v < value - 1e-15:
                    subset, value = trial, v
                    improved = True
                    break
        key = (value, tuple(sorted(subset)))
        if key < best:
            best = key
    return CheegerResult(xi=best[0], argmin_set=best[1], exact=False)


# ---------------------------------------------------------------------------
# Canonical paths


def _bfs_ensemble(chain: FiniteChain) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
    """Shortest directed paths in E for every ordered pair, deterministic:
    BFS expands neighbors in ascending state order, so ties resolve
    lexicographically."""
    n = chain.size
    q = chain.edge_measure()
    nbrs = [np.nonzero(q[x] > 0)[0].tolist() for x in range(n)]
    paths: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
    for s in range(n):
        parent: dict[int, int] = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        for t in range(n):
            if t == s:
                continue
            if t not in parent:
                raise NoPathExists(f"no directed path from {s} to {t}")
            edges = []
            node = t
            while node != s:
                edges.append((parent[node], node))
                node = parent[node]
            paths[(s, t)] = tuple(reversed(edges))
    return paths


def _congestion(chain: FiniteChain, paths) -> float:
    q = chain.edge_measure()
    mu = chain.stationary
    load: dict[tuple[int, int], float] = {}
    for (s, t), edges in paths.items():
        weight = mu[s] * mu[t] * len(edges)
        for e in edges:
            load[e] = load.get(e, 0.0) + weight
    return max(load[e] / q[e] for e in load)


def _validate_ensemble(chain: FiniteChain, ensemble: PathEnsemble) -> None:
    q = chain.edge_measure()
    n = chain.size
    want = {(s, t) for s in range(n) for t in range(n) if s != t}
    if set(ensemble.paths) != want:
        raise ValueError("ensemble must cover every ordered pair of distinct states")
    for (s, t), edges in ensemble.paths.items():
        if not edges or edges[0][0] != s or edges[-1][1] != t:
            raise ValueError(f"path for {(s, t)} does not run from {s} to {t}")
        for (a, b), (c, _) in zip(edges, edges[1:]):
            if b != c:
                raise ValueError(f"path for {(s, t)} is not contiguous")
        if any(q[a, b] <= 0 for a, b in edges):
            raise ValueError(f"path for {(s, t)} uses a zero-probability edge")


def path_bound(chain: FiniteChain, paths: PathEnsemble | None = None) -> PathBoundResult:
    """Congestion B of a path ensemble and the implied bound gamma >= 1/B.

    With no ensemble supplied, uses breadth-first shortest directed paths
    (deterministic lexicographic tie-breaking). Any valid ensemble gives
    a correct lower bound; shorter or better-spread paths give larger ones.
    """
    _require_irreducible(chain)
    if paths is None:
        mapping = _bfs_ensemble(chain)
    else:
        _validate_ensemble(chain, paths)
        mapping = paths.paths
    congestion = _congestion(chain, mapping)
    ensemble = PathEnsemble(paths=dict(mapping), congestion=congestion)
    return PathBoundResult(congestion, 1.0 / congestion, ensemble)


# ---------------------------------------------------------------------------
# Mixing time


def _worst_tv(powered: np.ndarray, mu: np.ndarray) -> float:
    return float(0.5 * np.abs(powered - mu[None, :]).sum(axis=1).max())


def mixing_time(chain: FiniteChain, eps: float, cap: int | None = None) -> MixingResult:
    """First n with worst-start total variation distance <= eps.

    Exact evaluation of d(n) = max_x TV(P^n_x, mu) by matrix powering;
    doubling search followed by binary search, relying on (and checking)
    that d is non-increasing. Periodic chains that fail to reach eps by
    the cap report infinity; aperiodic ones raise instead, since they
    always mix eventually.
    """
    _require_irreducible(chain)
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    n_states = chain.size
    if cap is None:
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
