"""Cheeger constant, canonical-path congestion, mixing time, and the audit.

Everything in here compares the singular-value gap gamma against the
classical machinery: the bottleneck ratio, path congestion, mixing time
in total variation, reversibilized gaps, and the pseudo-spectral gap.
``inequality_audit`` evaluates the whole battery of two-sided bounds on
one chain and returns a structured pass/fail record. The reversibilized
and pseudo-spectral gaps come from spectral's conjugated matrix
B = D^{1/2} P D^{-1/2}, in which the mu-adjoint is B^T, so the audit
builds no second chain and validates none.

Past the enumeration limit, cheeger_search descends all its starts in
lockstep: each round screens the moves of every live start as arrays,
and one batched exact scorer (_scores) rescores the few that could
improve, so every start takes the steps it would take alone, bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from . import tolerances as tol
from .audit import BoundAudit, BoundCheck, make_check, skipped_check
from .chains import FiniteChain, period
from .empirical import _philox_key
from .errors import MixingCapExceeded, NotIrreducible, TooLargeForEnumeration, _whole
from .spectral import _reversibilized_gaps, pseudo_spectral_gap, relaxation_time, spectral_gap

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


def _require_cut(chain: FiniteChain) -> None:
    _require_irreducible(chain)
    if chain.size < 2:
        raise ValueError("no subset A of a one-state chain has 0 < mu(A) <= 1/2")


def _near_minimal(chain: FiniteChain) -> np.ndarray:
    """Masks that could attain the exact minimum or tie with it.

    Meet in the middle: split the states into L = [0, h) and H = [h, n).
    A set A = A_L + A_H has mu(A) = mu(A_L) + mu(A_H) and
    Q(A, A) = Q(A_L, A_L) + Q(A_H, A_H) + a_L^T C a_H with
    C = Q[L, H] + Q[H, L]^T, so a block of pairs of half-subsets is
    scored by one GEMM of L half-subsets times C against H half-subsets.

    Only pairs whose screened mass fl(mu(A_L) + mu(A_H)) is at most
    cap + m, cap = 1/2 + ROW_SUM, can be kept or lower the running
    minimum, so both halves are sorted by mass (sorted halves, as in
    Horowitz & Sahni, J. ACM 21, 1974) and the H half-subsets are taken
    in ascending blocks. A block scores only the prefix of L rows whose
    pair with the block's lightest H set passes, and the walk stops at the
    first block with no such row. Rounded addition is monotone, so every
    pair skipped has a screened mass above cap + m and would have failed
    the mass test. The kept set does not depend on the order of the walk:
    the running minimum ends as the exact minimum over every sure pair,
    and the last filter keeps every passing pair within m of it, so, for
    the same screened values, it is the set a walk over every pair keeps.

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
    # each half by ascending mass; a half-subset's mask is its index before sorting
    low_masks = np.argsort(mass_low, kind="stable").astype(np.uint32)
    high_masks = np.argsort(mass_high, kind="stable").astype(np.uint32)
    mass_low, q_low, cross = mass_low[low_masks], q_low[low_masks], cross[low_masks]
    mass_high, q_high, high = mass_high[high_masks], q_high[high_masks], high[high_masks]

    best = np.inf
    kept = np.empty(0, dtype=np.uint32)
    kept_ratio = np.empty(0)
    step = max(1, tol.BLOCK_ENTRIES >> h)
    for start in range(0, 1 << (n - h), step):
        # the L rows whose pair with the block's lightest H set can pass
        rows = int(np.count_nonzero(mass_low + mass_high[start] <= cap + margin))
        if not rows:
            break
        block = slice(start, start + step)
        mass = mass_low[:rows, None] + mass_high[None, block]
        inside = q_low[:rows, None] + q_high[None, block] + cross[:rows] @ high[block].T
        ok = (mass > 0) & (mass <= cap + margin)
        ratio = np.where(ok, 1.0 - inside / np.where(ok, mass, 1.0), np.inf)
        sure = ratio[mass <= cap - margin]
        if sure.size:
            best = min(best, float(sure.min()))
        near = np.nonzero(ok & (ratio <= best + margin))
        masks = low_masks[near[0]] + (high_masks[near[1] + start] << np.uint32(h))
        kept = np.concatenate([kept, masks])
        kept_ratio = np.concatenate([kept_ratio, ratio[near]])
        keep = kept_ratio <= best + margin
        kept, kept_ratio = kept[keep], kept_ratio[keep]
    # the order of a walk over unsorted halves (H block, L set, H set): a
    # small batch's BLAS rounding in _subset_values depends on that order
    low_of, high_of = kept & np.uint32((1 << h) - 1), kept >> np.uint32(h)
    return kept[np.lexsort((high_of, low_of, high_of // step))]


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
    half-subset pairs, and the pairs whose mass cannot pass the 1/2 cap
    are skipped unscored (see _near_minimal); the few that could be
    minimal are rescored exactly by _subset_values. xi is the least exact
    score, and ties (within 1e-15 * max(1, xi)) are broken by the
    lexicographically smallest sorted state tuple. Refuses chains beyond
    tol.CHEEGER_ENUM_LIMIT states (about a million subsets), and
    one-state chains, which have no subset of mass at most 1/2.
    """
    _require_cut(chain)
    n, limit = chain.size, tol.CHEEGER_ENUM_LIMIT
    if n > limit:
        raise TooLargeForEnumeration(f"{n} states exceeds enumeration limit {limit}")
    candidates = _near_minimal(chain)
    scored = [_subset_values(chain, candidates[i:i + tol.BLOCK_ENTRIES])
              for i in range(0, len(candidates), tol.BLOCK_ENTRIES)]
    masks = np.concatenate([m for m, _ in scored])
    ratio = np.concatenate([r for _, r in scored])
    xi = float(ratio.min())
    ties = masks[ratio <= xi + 1e-15 * max(1.0, abs(xi))]
    best = _lex_smallest(ties)
    return CheegerResult(xi=xi, argmin_set=tuple(j for j in range(n) if best >> j & 1), exact=True)


def _scores(mu: np.ndarray, q: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """Q(A, A^c) / mu(A) for each 0/1 row A of sets; inf unless 0 < mu(A) <= 1/2.

    The sets of each size k are gathered as (B, k) rows of mu and
    (B, k * k) rows of Q, and each row is summed along its contiguous
    axis: numpy adds such a row pairwise, as it adds mu[idx] and
    Q[idx, idx] of one sorted index array, so every score is bit for bit
    1 - float(Q[idx, idx].sum()) / float(mu[idx].sum()). A block of Q rows
    holds at most tol.BLOCK_ENTRIES entries (one set, if k * k is more).
    """
    size = sets.sum(axis=1)
    out = np.full(len(sets), np.inf)
    for k in np.unique(size).tolist():
        rows = np.flatnonzero(size == k)
        idx = np.nonzero(sets[rows])[1].reshape(-1, k)
        mass = mu[idx].sum(axis=1)
        ok = (mass > 0) & (mass <= 0.5 + tol.ROW_SUM)
        rows, idx, mass = rows[ok], idx[ok], mass[ok]
        step = max(1, tol.BLOCK_ENTRIES // (k * k))
        for i in range(0, len(rows), step):
            block = idx[i:i + step]
            inside = q[block[:, :, None], block[:, None, :]].reshape(len(block), -1).sum(axis=1)
            out[rows[i:i + step]] = 1.0 - inside / mass[i:i + step]  # Q(A, A^c) = mu(A) - Q(A, A)
    return out


def _may_pass(q_new, q_terms, m_new, m_terms, threshold, ulps):
    """Moves whose exactly summed score could fall below threshold.

    q_new and m_new are Q(A', A') and mu(A') updated from A; q_terms and
    m_terms are the summed magnitudes of their terms. Every sum involved,
    in the update or in _scores, adds nonnegative terms, so ``ulps``
    times those magnitudes bounds how far the two can differ. The four
    arrays are overwritten.
    """
    q_terms *= ulps
    q_hi = np.add(q_new, q_terms, out=q_new)
    m_terms *= ulps
    m_lo = np.subtract(m_new, m_terms, out=m_new)
    del q_terms, m_terms
    may_fit = m_lo <= 0.5 + tol.ROW_SUM
    unsure = m_lo <= 0.0  # the mass may have cancelled: no bound on the ratio
    m_lo[unsure] = 1.0
    ratio = np.divide(q_hi, m_lo, out=q_hi)
    slack = ratio + 1.0
    slack *= ulps
    low = np.subtract(1.0, ratio, out=ratio)
    low -= slack  # 1 - ratio - ulps (1 + ratio)
    return may_fit & (unsure | (low < threshold))


def _first_below(mu, q, sets, threshold, rows, flips):
    """Each set's first candidate move that scores exactly below its threshold.

    Candidate c toggles the states flips[c] of set rows[c]; rows is
    nondecreasing, and a set's candidates come in its search order. They
    are rescored in waves, 1, 2, 4, ... candidates per set at a time,
    until each set has a hit or none left, so a set rescores less than
    twice the candidates up to its first hit. Returns, per set, the
    index of that candidate (-1 for none) and its score.
    """
    first = np.full(len(sets), -1)
    score = np.full(len(sets), np.inf)
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
    step = max(1, tol.BLOCK_ENTRIES // sets.shape[1])
    lo, width = 0, 1
    while True:
        pick = np.flatnonzero((rank >= lo) & (rank < lo + width))
        pick = pick[first[rows[pick]] < 0]
        if not pick.size:
            return first, score
        value = np.empty(len(pick))
        for i in range(0, len(pick), step):
            part = pick[i:i + step]
            trials = sets[rows[part]]
            trials[np.arange(len(part))[:, None], flips[part]] ^= True
            value[i:i + step] = _scores(mu, q, trials)
        hit = pick[value < threshold[rows[pick]]]
        hit_rows, at = np.unique(rows[hit], return_index=True)  # the first hit of each set
        first[hit_rows] = hit[at]
        score[hit_rows] = value[np.searchsorted(pick, hit[at])]
        lo, width = lo + width, 2 * width


def _first_improvements(mu, q, cross, sets, value):
    """The first move of the search order that scores below value - 1e-15, for each set.

    The order is: toggle each member, then each non-member, in ascending
    state order (never emptying the set), then swap each member for each
    non-member, member-major. Every toggle of every set is screened at
    once from mu(A), Q(A, A) and r + c = (Q + Q^T) a, with cross = Q + Q^T:
    a toggle changes Q(A, A) by +-(r + c)[x] + Q[x, x], and a swap also
    subtracts cross[x, y]. The swaps are screened only for the sets that no
    toggle improves, against each set's non-members, in blocks of
    tol.BLOCK_ENTRIES // size (set, member) pairs; the sets with the most
    members go first, so a block's sets have about as many non-members.
    Only the moves that could pass within the rounding margin are
    rescored exactly, by _first_below, so each result is the one a plain
    walk through the order finds. Returns (found, sets, scores): which
    sets moved, and their moved sets and scores.
    """
    n = len(mu)
    a = sets.astype(float)
    aq = a @ q
    rc = a @ cross
    diag = q.diagonal()
    mass = a @ mu
    q_in = (aq * a).sum(axis=1)
    del a, aq
    threshold = value - 1e-15
    # n-term sums in any order (BLAS) and numpy's pairwise sums of up to
    # n^2 terms, plus the few roundings of the update itself
    ulps = (2 * n + 64) * np.finfo(float).eps

    sign = np.where(sets, -1.0, 1.0)
    toggles = _may_pass(
        q_in[:, None] + sign * rc + diag, q_in[:, None] + rc + diag,
        mass[:, None] + sign * mu, mass[:, None] + mu, threshold[:, None], ulps,
    )
    toggles &= ~(sets & (sets.sum(axis=1) == 1)[:, None])  # the empty set is not a move
    order = np.argsort(~sets, axis=1, kind="stable")  # members, then non-members
    rows, at = np.nonzero(np.take_along_axis(toggles, order, axis=1))
    flips = order[rows, at][:, None]
    del sign, toggles, order
    first, score = _first_below(mu, q, sets, threshold, rows, flips)
    found = first >= 0
    moved = sets.copy()
    moved[found, flips[first[found], 0]] ^= True

    own = rc + diag
    size = sets.sum(axis=1)
    waiting = np.flatnonzero(~found)
    waiting = waiting[np.argsort(-size[waiting], kind="stable")]  # fewest non-members first
    held, limit = sets[waiting], threshold[waiting]
    outside = np.argsort(held, axis=1, kind="stable")  # non-members first
    pair_set, pair_x = np.nonzero(held)
    step = max(1, tol.BLOCK_ENTRIES // n)
    for i in range(0, len(pair_set), step):
        s, x = pair_set[i:i + step], pair_x[i:i + step]
        keep = ~found[waiting[s]]  # a set with a hit in an earlier block is done
        if not keep.any():
            continue
        s, x = s[keep], x[keep]
        r = waiting[s]
        width = n - int(size[r].min())
        y = outside[s, :width]  # each pair's non-members, then padding
        own_y, cross_xy, mu_y = own[r[:, None], y], cross[x[:, None], y], mu[y]
        q_new = own_y + (q_in[r] + (diag[x] - rc[r, x]))[:, None]
        q_new -= cross_xy
        own_y += (q_in[r] + own[r, x])[:, None]
        own_y += cross_xy
        del cross_xy
        swaps = _may_pass(
            q_new, own_y, (mass[r] - mu[x])[:, None] + mu_y, mu_y + (mass[r] + mu[x])[:, None],
            threshold[r, None], ulps,
        )
        del q_new, own_y, mu_y
        swaps &= np.arange(width) < (n - size[r])[:, None]
        pair, at = np.nonzero(swaps)
        swap_flips = np.stack([x[pair], y[pair, at]], axis=1)
        part, part_score = _first_below(mu, q, held, limit, s[pair], swap_flips)
        hit = np.flatnonzero(part >= 0)
        moved[waiting[hit, None], swap_flips[part[hit]]] ^= True
        found[waiting[hit]], score[waiting[hit]] = True, part_score[hit]
    return found, moved[found], score[found]


def _require_iters(iters: int) -> None:
    if _whole(iters, "iters") < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")


def _starts(n: int, iters: int, rng: np.random.Generator):
    """Every singleton, then ``iters`` random sets, as 0/1 rows."""
    for x in range(n):
        yield np.arange(n) == x
    for _ in range(iters):
        mask = rng.random(n) < rng.uniform(0.15, 0.6)
        if not mask.any():
            mask[int(rng.integers(n))] = True
        yield mask


def cheeger_search(chain: FiniteChain, iters: int = 50, seed: int = 0) -> CheegerResult:
    """Randomized local search over subsets: an upper bound on xi.

    Starts from every singleton plus ``iters`` random restarts; each
    start descends by single-state moves (toggle one state in or out, or
    swap a member for a non-member), taking the first improving move,
    until no move improves. The starts descend in lockstep, a block of
    tol.BLOCK_ENTRIES // size of them at a time, one round of
    _first_improvements per step, and each takes the steps it would take
    alone. Any subset certifies an upper bound, so the result is always
    >= the exact constant. The seed keys Philox by empirical._philox_key.
    Refuses one-state chains and a negative ``iters``.
    """
    _require_cut(chain)
    _require_iters(iters)
    n = chain.size
    mu, q = chain.stationary, chain.edge_measure()
    cross = q + q.T
    rng = np.random.Generator(np.random.Philox(key=_philox_key(seed)))
    starts = _starts(n, iters, rng)
    block = max(1, tol.BLOCK_ENTRIES // n)
    best = (np.inf, (0,))
    while (sets := np.array(list(itertools.islice(starts, block)), dtype=bool)).size:
        value = _scores(mu, q, sets)
        live = np.arange(len(sets))
        while live.size:
            found, moved, scores = _first_improvements(mu, q, cross, sets[live], value[live])
            live = live[found]
            sets[live], value[live] = moved, scores
        for row, v in zip(sets, value.tolist()):
            key = (v, tuple(np.flatnonzero(row).tolist()))
            if key < best:
                best = key
    return CheegerResult(xi=best[0], argmin_set=best[1], exact=False)


# ---------------------------------------------------------------------------
# Canonical paths


def _bfs_congestion(chain: FiniteChain) -> float:
    """B = max_e (1/Q(e)) sum_{paths through e} mu(x) mu(y) |path| over BFS paths.

    The paths are shortest directed paths in E = {(x, y): P(x, y) > 0},
    ties resolved lexicographically by scipy's breadth_first_order from
    each source; an irreducible chain connects every pair. The path from
    s to t crosses the tree edge (pred[v], v) exactly when t is in the
    subtree of v, and has depth(t) edges: from source s that edge carries
    mu(s) sum_{t in subtree(v)} mu(t) depth(t). No path is built.

    The trees are held as N x N arrays, order[s, j] the j-th state
    reached from s, and walked one BFS position at a time across all the
    sources: depths forward, subtree sums backward, so each source's
    additions come in the order of a walk of its own tree. The loads are
    summed by one bincount, which adds them one at a time in (source,
    position) order; so B is bit for bit that of a per-source loop. A few
    N x N arrays are held at a time. An edge whose Q(e) = mu(x) P(x, y)
    underflows to zero has congestion inf, and gamma >= 1/B = 0 still
    holds.
    """
    n = chain.size
    graph = csr_matrix(chain.transition > 0, dtype=float)
    order = np.empty((n, n), dtype=np.intp)
    heads = np.empty((n, n - 1), dtype=np.intp)  # pred[v] of each v = order[s, j], j >= 1
    for s in range(n):
        order[s], pred = breadth_first_order(graph, s, directed=True, return_predecessors=True)
        heads[s] = pred[order[s, 1:]]
    sources = np.arange(n)
    depth = np.zeros((n, n), dtype=np.intp)
    for j in range(1, n):
        depth[sources, order[:, j]] = depth[sources, heads[:, j - 1]] + 1
    mu = chain.stationary
    subtree = mu * depth
    del depth
    for j in range(n - 1, 0, -1):
        subtree[sources, heads[:, j - 1]] += subtree[sources, order[:, j]]
    tails = order[:, 1:]
    loads = mu[:, None] * subtree[sources[:, None], tails]
    del subtree
    edges = np.multiply(heads, n, out=heads)
    edges += tails
    del order, tails
    load = np.bincount(edges.ravel(), weights=loads.ravel(), minlength=n * n)
    used = np.zeros(n * n, dtype=bool)
    used[edges] = True
    weight = chain.edge_measure().ravel()[used]
    if (weight == 0).any():
        return math.inf  # a tree edge whose mu(x) P(x, y) underflowed
    return float((load[used] / weight).max())


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
    that d is non-increasing. The binary search lifts P^lo by the held
    squares, largest first, so each probe costs one product. Periodic
    chains that fail to reach eps by the cap of 10 N^2 + 1000 steps report
    infinity; aperiodic ones raise instead, since they always mix eventually.
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

    if hit is None:
        curve = sorted(evaluated.items())
        _check_monotone(curve)
        if period(chain) > 1:
            return MixingResult(math.inf, curve)
        raise MixingCapExceeded(
            f"aperiodic chain still above eps={eps} after {step} steps (cap {cap})"
        )

    lo = hit // 2  # d(lo) > eps >= d(2 lo), and power = P^lo once lo >= 1
    power = squares[-2] if lo else None
    for j in range(len(squares) - 3, -1, -1):
        trial, probe = power @ squares[j], lo + (1 << j)
        evaluated[probe] = _worst_tv(trial, mu)
        if evaluated[probe] > eps:
            lo, power = probe, trial
    curve = sorted(evaluated.items())
    _check_monotone(curve)
    return MixingResult(lo + 1, curve)


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

    Inapplicable checks, such as those that need a finite tau when tau is
    infinite, or a mixing time that mixing_time refuses at its step cap
    (MixingCapExceeded), are recorded with ``applicable=False``, never
    silently dropped or raised.
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

    if group_walk:  # I - (P + P*)/2 has its spectrum in [0, 2]
        if not math.isfinite(tau):
            checks.append(skipped_check("group_walk_doubling", "relaxation time infinite"))
        elif not math.isfinite(relaxation_time(gamma_add, 2.0)):
            checks.append(skipped_check("group_walk_doubling", "symmetrized walk has gap 0"))
        else:
            checks.append(make_check("group_walk_doubling", tau, 2.0 / gamma_add, "<="))

    try:
        tmix = mixing_time(chain, eps).tmix
    except MixingCapExceeded:
        tmix = None  # an aperiodic chain slower than the step cap
    capped = "mixing time beyond the step cap"
    if tmix is None:
        checks.append(skipped_check("relaxation_vs_mixing", capped))
    elif not math.isfinite(tmix):
        checks.append(skipped_check("relaxation_vs_mixing", "mixing time infinite"))
    elif not (0.0 < eps < 0.2):
        checks.append(skipped_check("relaxation_vs_mixing", "eps outside (0, 1/5)"))
    elif not math.isfinite(tau):
        checks.append(skipped_check("relaxation_vs_mixing", "relaxation time infinite"))
    else:
        factor = 4.0 / math.log(2.0 / (1.0 + 4.0 * eps + 2.0 * eps * eps)) + 2.0
        checks.append(make_check("relaxation_vs_mixing", tau, factor * tmix, "<="))

    # a lazy chain has a self-loop at every state, so it is aperiodic and
    # mixing_time gave it a finite tmix (or met the cap)
    if not is_lazy:
        checks.append(skipped_check("mixing_vs_relaxation", "min diag < 1/2"))
    elif not eps < 0.5:
        checks.append(skipped_check("mixing_vs_relaxation", "eps outside (0, 1/2)"))
    elif tmix is None:
        checks.append(skipped_check("mixing_vs_relaxation", capped))
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

    applies = is_lazy and eps < 0.5 and chain.reversible
    if applies and tmix is not None:
        lhs = (tau - 1.0) * math.log(1.0 / (2.0 * eps))
        checks.append(make_check("reversible_mixing_lower", lhs, tmix, "<="))
        rhs = tau * math.log(1.0 / (eps * mu_min))
        checks.append(make_check("reversible_mixing_upper", tmix, rhs, "<="))
    else:
        reason = capped if applies else "needs reversible, lazy, finite mixing, eps < 1/2"
        checks.append(skipped_check("reversible_mixing_lower", reason))
        checks.append(skipped_check("reversible_mixing_upper", reason))

    return BoundAudit(tuple(checks))
