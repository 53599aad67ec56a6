import itertools
import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

import chaingap as cg
from chaingap import tolerances as tol
from chaingap.audit import BoundAudit, make_check
from chaingap.bounds import (
    _bfs_congestion,
    _first_improvements,
    _members,
    _near_minimal,
    _subset_values,
)
from chaingap.chains import _bfs_tree
from chaingap.errors import NotIrreducible, TooLargeForEnumeration
from chaingap.experiments import render_report

from conftest import (
    birth_death_chains,
    birth_death_matrix,
    periodic_matrices,
    stochastic_matrices,
    z2_squared_walk_matrix,
)


def cheeger_oracle_tied(chain):
    """Plain powerset enumeration, independent of the vectorized route.

    Returns (xi, argmin_set) under cheeger_exact's tie rule: xi is the
    least ratio, and argmin_set the smallest sorted tuple among the sets
    within 1e-15 * max(1, xi) of it.
    """
    n = chain.size
    mu = chain.stationary
    q = chain.edge_measure()
    values = {}
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            mu_a = mu[list(subset)].sum()
            if not 0 < mu_a <= 0.5 + 1e-12:
                continue
            comp = [x for x in range(n) if x not in subset]
            flow = q[np.ix_(list(subset), comp)].sum()
            values[subset] = flow / mu_a
    best = min(values.values())
    tie = 1e-15 * max(1.0, abs(best))
    return best, min(s for s, v in values.items() if v <= best + tie)


def cheeger_oracle(chain):
    return cheeger_oracle_tied(chain)[0]


def test_cheeger_flip(flip):
    result = cg.cheeger_exact(flip)
    assert result.xi == pytest.approx(1.0, abs=1e-12)
    assert result.argmin_set == (0,)
    assert result.exact


def test_cheeger_two_state_uniform():
    chain = cg.build_chain([[0.5, 0.5], [0.5, 0.5]])
    assert cg.cheeger_exact(chain).xi == pytest.approx(0.5, abs=1e-12)


def test_cheeger_symmetric_walk_four():
    chain = cg.circulant_chain(4, [(1, 0.5), (-1, 0.5)])
    result = cg.cheeger_exact(chain)
    assert result.xi == pytest.approx(0.5, abs=1e-12)
    assert result.argmin_set == (0, 1)
    assert result.xi == pytest.approx(cheeger_oracle(chain), abs=1e-12)


def test_cheeger_matches_oracle_on_assorted_chains(battery):
    for item in battery:
        if item.chain.size > 8:
            continue
        got = cg.cheeger_exact(item.chain).xi
        assert got == pytest.approx(cheeger_oracle(item.chain), abs=1e-12)


def test_cheeger_refuses_large_chains():
    with pytest.raises(TooLargeForEnumeration):
        cg.cheeger_exact(cg.card_chain(4))


def assert_cheeger_matches_oracle(chain):
    xi, argmin_set = cheeger_oracle_tied(chain)
    result = cg.cheeger_exact(chain)
    assert result.argmin_set == argmin_set
    assert result.xi == pytest.approx(xi, rel=4e-15, abs=0)


@settings(max_examples=40, deadline=None)
@given(stochastic_matrices(max_size=10))
def test_cheeger_exact_matches_oracle_on_random_chains(matrix):
    assert_cheeger_matches_oracle(cg.build_chain(matrix))


@settings(max_examples=25, deadline=None)
@given(birth_death_chains(max_size=12))
def test_cheeger_exact_matches_oracle_on_skewed_birth_death(case):
    n, up = case
    assert_cheeger_matches_oracle(cg.build_chain(birth_death_matrix(n, up)))


def test_cheeger_exact_matches_oracle_with_sets_on_the_battery(battery):
    for item in battery:
        if 2 <= item.chain.size <= 12:
            assert_cheeger_matches_oracle(item.chain)


@pytest.mark.parametrize("n", range(2, 11))
def test_cheeger_exact_matches_oracle_at_every_split(n):
    """Every size from 2 to 10, so both odd and even half splits, on a
    dense and a sparse seeded chain."""
    rng = np.random.default_rng(n)
    dense = rng.random((n, n))
    sparse = dense * (rng.random((n, n)) < 0.3) + np.roll(np.eye(n), 1, axis=1)
    for m in (dense, sparse):
        assert_cheeger_matches_oracle(cg.build_chain(m / m.sum(axis=1, keepdims=True)))


def test_cheeger_uniform_sixteen_ties_break_to_the_first_half():
    chain = cg.build_chain(np.full((16, 16), 1.0 / 16.0))
    result = cg.cheeger_exact(chain)
    assert result.argmin_set == tuple(range(8))
    assert result.xi == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("delta", [1e-12, 3e-12])
def test_cheeger_coupled_blocks_margin_is_absolute(delta):
    """xi = delta is far below the rounding of 1 - Q(A, A)/mu(A), so the two
    halves, which tie exactly, can screen apart by more than a relative
    margin (at 3e-12 they do) and the first half would be lost."""
    block = np.kron(np.eye(2), np.ones((4, 4)))
    P = (block * (1.0 - delta) + (1.0 - block) * delta) / 4.0
    result = cg.cheeger_exact(cg.build_chain(P))
    assert result.argmin_set == (0, 1, 2, 3)
    assert abs(result.xi - delta) <= 1e-13


def test_cheeger_ties_break_by_sorted_tuple_not_by_mask():
    """Blocks {0, 3} and {1, 2} tie; (0, 3) is the smaller tuple although
    its bitmask 0b1001 exceeds 0b0110."""
    inside = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]])
    chain = cg.build_chain((inside * 0.99 + (1 - inside) * 0.01) / 2.0)
    assert_cheeger_matches_oracle(chain)
    assert cg.cheeger_exact(chain).argmin_set == (0, 3)


def test_cheeger_set_just_over_the_mass_cap_does_not_hide_the_minimum():
    """A = {0, 1} has mu(A) = 1/2 + 1.01e-12, just past the 1/2 + ROW_SUM
    cap, and a lower ratio than its complement, the true minimizer. A
    screen that let A set its running minimum would discard {2, 3}."""
    half_over = (1e-12 + 1e-14) / 2
    mu = np.array([0.25 + half_over] * 2 + [0.25 - half_over] * 2)
    cut, inner = 0.05, 0.15
    W = np.array([
        [mu[0] - inner, inner, 0, 0],
        [inner, mu[1] - inner - cut, cut, 0],
        [0, cut, mu[2] - inner - cut, inner],
        [0, 0, inner, mu[3] - inner],
    ])
    chain = cg.build_chain(W / mu[:, None], stationary=mu)
    assert chain.stationary[:2].sum() > 0.5 + tol.ROW_SUM
    assert_cheeger_matches_oracle(chain)
    assert cg.cheeger_exact(chain).argmin_set == (2, 3)


def unpruned_near_minimal(chain):
    """The former _near_minimal, kept as the reference: every pair of
    half-subsets is scored, the H half-subsets taken in index order."""
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
    step = max(1, tol.BLOCK_ENTRIES >> h)
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


def _cap_edge_chain(m, excess):
    """2m states in two cliques joined by one edge. The first clique, the L
    half exactly, has mass 1/2 + excess and the lower ratio of the two, of
    the same cut: just past the 1/2 + ROW_SUM cap the second is the
    minimizer, just inside it the first, whose screened mass is then
    within the margin of the cap."""
    over = excess / m
    mu = np.array([0.5 / m + over] * m + [0.5 / m - over] * m)
    inner, cut = 0.2 / (m * m), 0.01 / m
    clique = np.kron(np.eye(2), np.ones((m, m)) - np.eye(m)) * inner
    clique[m - 1, m] = clique[m, m - 1] = cut
    W = clique + np.diag(mu - clique.sum(axis=1))
    return cg.build_chain(W / mu[:, None], stationary=mu)


PRUNED_CHEEGER_CHAINS = {
    **{f"dense-{n}": (lambda n=n: _random_chain(n, 1.0, n)) for n in (13, 16, 17, 20)},
    **{f"sparse-{n}": (lambda n=n: _random_chain(n, 0.2, n + 100)) for n in (13, 15, 18, 20)},
    "birth-death-20-0.9": lambda: cg.build_chain(birth_death_matrix(20, 0.9)),
    "uniform-16": lambda: cg.build_chain(np.full((16, 16), 1.0 / 16.0)),
    "just-over-cap-14": lambda: _cap_edge_chain(7, 1.01e-12),
    "just-over-cap-20": lambda: _cap_edge_chain(10, 1.01e-12),
    "just-inside-cap-14": lambda: _cap_edge_chain(7, 0.99e-12),
    "just-inside-cap-20": lambda: _cap_edge_chain(10, 0.99e-12),
}


@pytest.mark.parametrize("name", sorted(PRUNED_CHEEGER_CHAINS))
def test_pruned_enumeration_matches_the_unpruned_one(name, monkeypatch):
    """Past the oracle's 12 states: the mass-sorted walk gives the bits of
    the walk over every pair, and keeps every set whose exact score is
    within the screening margin of xi."""
    chain = PRUNED_CHEEGER_CHAINS[name]()
    n = chain.size
    pruned = _near_minimal(chain)
    # here every pair screens to the same bits in both walks, so the masks
    # come out alike, in the order _subset_values's rounding depends on
    assert np.array_equal(pruned, unpruned_near_minimal(chain))
    kept = set(pruned.tolist())
    got = cg.cheeger_exact(chain)
    with monkeypatch.context() as patch:
        patch.setattr("chaingap.bounds._near_minimal", unpruned_near_minimal)
        want = cg.cheeger_exact(chain)
    assert (got.xi, got.argmin_set) == (want.xi, want.argmin_set)

    margin = 4 * (n * n + 2 * n + 8) * np.finfo(float).eps
    every = np.arange(1 << n, dtype=np.uint32)
    for i in range(0, len(every), tol.BLOCK_ENTRIES):
        masks, ratio = _subset_values(chain, every[i:i + tol.BLOCK_ENTRIES])
        assert set(masks[ratio <= got.xi + margin].tolist()) <= kept


def test_pruned_enumeration_cases_are_the_hard_ones():
    """The cases above do what their names say."""
    uniform = PRUNED_CHEEGER_CHAINS["uniform-16"]()
    assert len(_near_minimal(uniform)) >= math.comb(16, 8)  # every tied half
    for m in (7, 10):
        margin = 4 * (4 * m * m + 4 * m + 8) * np.finfo(float).eps
        over, inside = _cap_edge_chain(m, 1.01e-12), _cap_edge_chain(m, 0.99e-12)
        assert 0.5 + tol.ROW_SUM < over.stationary[:m].sum() <= 0.5 + tol.ROW_SUM + margin
        assert cg.cheeger_exact(over).argmin_set == tuple(range(m, 2 * m))
        assert 0.5 + tol.ROW_SUM - margin < inside.stationary[:m].sum() <= 0.5 + tol.ROW_SUM
        assert cg.cheeger_exact(inside).argmin_set == tuple(range(m))
    mu = PRUNED_CHEEGER_CHAINS["birth-death-20-0.9"]().stationary
    assert mu.max() / mu.min() > 0.5 * 9.0**19


def test_cheeger_refuses_one_state_chains():
    chain = cg.build_chain([[1.0]])
    for route in (cg.cheeger_exact, lambda c: cg.cheeger_search(c, iters=3, seed=0)):
        with pytest.raises(ValueError, match=r"no subset .* 0 < mu\(A\) <= 1/2"):
            route(chain)


def test_cheeger_search_bounds_exact(flip):
    search = cg.cheeger_search(flip, iters=5, seed=1)
    assert search.xi == pytest.approx(1.0, abs=1e-12)
    assert not search.exact

    walk = cg.circulant_chain(16, [(1, 0.5), (-1, 0.5)])
    exact = cg.cheeger_exact(walk)
    found = cg.cheeger_search(walk, iters=16, seed=0)
    assert found.xi >= exact.xi - 1e-12
    assert found.xi <= exact.xi + 1e-12  # single-toggle descent finds the arc


def test_cheeger_search_equals_exact_on_uniform_ten():
    chain = cg.build_chain(np.full((10, 10), 0.1))
    exact = cg.cheeger_exact(chain)
    found = cg.cheeger_search(chain, iters=10, seed=2)
    assert found.xi >= exact.xi - 1e-12
    assert found.xi == pytest.approx(exact.xi, abs=1e-12)


def test_cheeger_search_equals_exact_on_small_chains(battery):
    for item in battery:
        if item.chain.size > 12:
            continue
        exact = cg.cheeger_exact(item.chain).xi
        found = cg.cheeger_search(item.chain, iters=max(12, item.chain.size), seed=7).xi
        assert found >= exact - 1e-12
        assert found == pytest.approx(exact, abs=1e-9)


def _plain_subset_value(chain, states):
    mu = chain.stationary
    q = chain.edge_measure()
    idx = sorted(states)
    mu_a = float(mu[idx].sum())
    if mu_a <= 0 or mu_a > 0.5 + tol.ROW_SUM:
        return np.inf
    return 1.0 - float(q[np.ix_(idx, idx)].sum()) / mu_a


def plain_first_improvement(chain, subset, value):
    """The former neighbourhood walk, kept as the reference: the first
    trial set in the search order scoring below value - 1e-15, each
    scored from scratch, as (sorted states, score), or None."""
    n = chain.size
    inside = sorted(subset)
    outside = [x for x in range(n) if x not in subset]
    toggles = [set(subset) ^ {x} for x in inside + outside]
    swaps = [(set(subset) - {x}) | {y} for x in inside for y in outside]
    for trial in toggles + swaps:
        if trial:
            v = _plain_subset_value(chain, trial)
            if v < value - 1e-15:
                return tuple(sorted(trial)), v
    return None


def first_improvement_search(chain, iters, seed):
    """The former cheeger_search, kept as the reference."""
    n = chain.size
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    starts = [{x} for x in range(n)]
    for _ in range(max(iters, 0)):
        mask = rng.random(n) < rng.uniform(0.15, 0.6)
        subset = {i for i in range(n) if mask[i]}
        starts.append(subset or {int(rng.integers(n))})
    best = (np.inf, (0,))
    for subset in starts:
        value = _plain_subset_value(chain, subset)
        while (move := plain_first_improvement(chain, subset, value)) is not None:
            subset, value = move
        key = (value, tuple(sorted(subset)))
        if key < best:
            best = key
    return best


def _random_chain(n, density, seed):
    rng = np.random.default_rng(seed)
    P = rng.random((n, n)) * (rng.random((n, n)) < density)
    P[np.arange(n), (np.arange(n) + 1) % n] += 0.2  # a cycle keeps it irreducible
    return cg.build_chain(P / P.sum(axis=1, keepdims=True))


def _leaky_birth_death(n, up):
    # skewed mu, and not reversible: every state leaks to state 0
    P = birth_death_matrix(n, up)
    P[:, 0] += 0.05
    return cg.build_chain(P / P.sum(axis=1, keepdims=True))


SEARCH_CHAINS = {
    "dense-12": (lambda: _random_chain(12, 1.0, 1), 6),
    "sparse-25": (lambda: _random_chain(25, 0.1, 2), 4),
    "circulant-40": (lambda: cg.circulant_chain(40, [(1, 0.42), (-1, 0.58)]), 3),
    "birth-death-24-0.9": (lambda: cg.build_chain(birth_death_matrix(24, 0.9)), 3),
    "leaky-birth-death-30-0.9": (lambda: _leaky_birth_death(30, 0.9), 3),
    "leaky-birth-death-21-0.7": (lambda: _leaky_birth_death(21, 0.7), 4),
}


@pytest.mark.parametrize("name", sorted(SEARCH_CHAINS))
def test_search_takes_the_steps_of_the_plain_loop(name):
    build, iters = SEARCH_CHAINS[name]
    chain = build()
    for seed in (0, 5):
        found = cg.cheeger_search(chain, iters=iters, seed=seed)
        assert (found.xi, found.argmin_set) == first_improvement_search(chain, iters, seed)


def test_search_takes_the_steps_of_the_plain_loop_on_the_battery(battery):
    for item in battery:
        found = cg.cheeger_search(item.chain, iters=4, seed=3)
        assert (found.xi, found.argmin_set) == first_improvement_search(item.chain, 4, 3)


def _search_chain(n, density, skew, seed):
    rng = np.random.default_rng(seed)
    P = rng.random((n, n)) * (rng.random((n, n)) < density)
    P *= np.exp(skew * rng.standard_normal(n))  # heavy columns skew mu
    P[np.arange(n), (np.arange(n) + 1) % n] += 0.05  # a cycle keeps it irreducible
    return cg.build_chain(P / P.sum(axis=1, keepdims=True))


@st.composite
def search_chains(draw):
    """21-60 states, sparse to dense, mu from nearly flat to skewed.

    The denser the chain, the fewer its states, since the plain loop
    rescores every trial set from scratch.
    """
    density, most = draw(st.sampled_from([(0.06, 60), (0.25, 40), (1.0, 30)]))
    return _search_chain(
        draw(st.integers(21, most)), density,
        draw(st.sampled_from([0.0, 1.5, 3.0])), draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=10, deadline=None)
@given(chain=search_chains(), iters=st.integers(0, 2), seed=st.integers(0, 2**16),
       blocked=st.booleans())
# at 4 N entries a block: 62 starts, (set, member) pairs and trial sets 4 at a time
@example(chain=_search_chain(60, 0.06, 3.0, 0), iters=2, seed=5, blocked=True)
def test_lockstep_search_takes_the_steps_of_the_plain_loop(chain, iters, seed, blocked):
    with pytest.MonkeyPatch.context() as patch:
        if blocked:
            patch.setattr(tol, "BLOCK_ENTRIES", 4 * chain.size)
        found = cg.cheeger_search(chain, iters=iters, seed=seed)
    assert (found.xi, found.argmin_set) == first_improvement_search(chain, iters, seed)


def test_search_temporaries_stay_within_a_few_blocks():
    n = 200  # hold, a step around the cycle, a jump along a random map
    x = np.arange(n)
    P = np.zeros((n, n))
    np.add.at(P, (x, x), 0.2)
    np.add.at(P, (x, (x + 1) % n), 0.5)
    np.add.at(P, (x, np.random.default_rng(1).integers(0, n, size=n)), 0.3)
    chain = cg.build_chain(P)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cg.cheeger_search(chain, iters=10, seed=1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # the screens of a block of starts, or of (set, member) pairs, and a
    # few of their temporaries; Q and Q + Q^T are 0.6 blocks each
    assert peak <= 12 * 8 * tol.BLOCK_ENTRIES


def _light_state_chain(light, drop):
    """Reversible three-state chain: mu = (0.4, light, 0.6 - light).

    P(1, 1) is set so that the set {1} scores ``drop`` below {0, 1}. From
    {0, 1} the first improving move removes state 0, and its incremental
    mass mu({0, 1}) - mu(0) keeps only a few digits of mu(1).
    """
    mu = np.array([0.4, light, 0.6 - light])

    def build(stay):
        P = np.zeros((3, 3))
        P[1] = [0.2, stay, 0.8 - stay]
        P[0, 1:] = [mu[1] * P[1, 0] / mu[0], 0.3]
        P[2, :2] = mu[:2] * P[:2, 2] / mu[2]
        P[np.diag_indices(3)] += 1.0 - P.sum(axis=1)
        return cg.build_chain(P)

    chain = build(0.5)
    for _ in range(3):  # mu moves with P(1, 1) in its last digits
        chain = build(1.0 - _plain_subset_value(chain, {0, 1}) + drop)
    return chain


def test_search_screen_keeps_moves_that_rounding_hides():
    # the incremental score of {1} is off by up to ~1e-3 here, far more
    # than the drop: only the rounding margin keeps the move for the
    # exact recheck
    start = np.array([[True, True, False]])
    for light in (1e-9, 1e-11, 1e-13, 1e-17):  # at 1e-17 the update cancels to 0
        for drop in (1e-8, 1e-10, 1e-12, 2e-15):
            chain = _light_state_chain(light, drop)
            mu, q = chain.stationary, chain.edge_measure()
            value = _plain_subset_value(chain, {0, 1})
            want = plain_first_improvement(chain, {0, 1}, value)
            assert want[0] == (1,)
            found, moved, score = _first_improvements(mu, q, q + q.T, start, np.array([value]))
            assert found.tolist() == [True]
            assert (tuple(np.flatnonzero(moved[0]).tolist()), score[0]) == want, (light, drop)


def deque_bfs_paths(chain):
    """The former default ensemble, kept as the reference: a deque BFS per
    source, expanding neighbours in ascending order, and each path walked
    back through the parents."""
    n = chain.size
    q = chain.edge_measure()
    nbrs = [np.nonzero(q[x] > 0)[0].tolist() for x in range(n)]
    paths = {}
    for s in range(n):
        parent = {s: -1}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        for t in range(n):
            if t != s:
                edges = []
                node = t
                while node != s:
                    edges.append((parent[node], node))
                    node = parent[node]
                paths[(s, t)] = tuple(reversed(edges))
    return paths


def walked_congestion(chain, paths):
    """The former path-walking congestion, kept as the reference: each
    pair's weight mu(s) mu(t) |path| added to every edge of its path."""
    q = chain.edge_measure()
    mu = chain.stationary
    load = {}
    for (s, t), edges in paths.items():
        weight = mu[s] * mu[t] * len(edges)
        for e in edges:
            load[e] = load.get(e, 0.0) + weight
    return max(load[e] / q[e] for e in load)


PATH_CHAINS = {
    "cdg-101": lambda: cg.cdg_chain(101),
    "card-4": lambda: cg.card_chain(4),
    "sparse-60": lambda: _random_chain(60, 0.05, 3),
    "birth-death-40-0.9": lambda: cg.build_chain(birth_death_matrix(40, 0.9)),
    "circulant-30": lambda: cg.circulant_chain(30, [(1, 0.3), (7, 0.7)]),
}


@pytest.mark.parametrize("name", sorted(PATH_CHAINS))
def test_tree_sum_congestion_matches_path_walk(name):
    chain = PATH_CHAINS[name]()
    result = cg.path_bound(chain)
    walked = walked_congestion(chain, deque_bfs_paths(chain))
    assert abs(result.congestion - walked) <= 1e-13 * walked
    assert result.gap_lower == 1.0 / result.congestion


def test_tree_sum_congestion_matches_path_walk_on_the_battery(battery):
    for item in battery:
        result = cg.path_bound(item.chain)
        walked = walked_congestion(item.chain, deque_bfs_paths(item.chain))
        assert abs(result.congestion - walked) <= 1e-13 * walked


def _pinned_battery_chain(name):
    return next(item.chain for item in cg.reference_battery() if item.name == name)


# float.hex of the congestion from the path-building implementation that
# preceded the tree sums without paths: the arithmetic must not change a bit.
PINNED_CONGESTION = {
    "cdg-201": (lambda: cg.cdg_chain(201), "0x1.a000000000002p+5"),
    "card-5": (lambda: cg.card_chain(5), "0x1.d299999999997p+6"),
    "birth-death-40-0.9": (
        lambda: cg.build_chain(birth_death_matrix(40, 0.9)), "0x1.770fcd6e9e064p+5"
    ),
    "circle-drift-16-lazy": (
        lambda: _pinned_battery_chain("circle-drift-16-lazy"), "0x1.3600000000000p+8"
    ),
    "torus-4": (lambda: _pinned_battery_chain("torus-4"), "0x1.5400000000000p+4"),
    "random-7": (lambda: _pinned_battery_chain("random-7"), "0x1.1149f1d3f93ecp+3"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONGESTION))
def test_congestion_bits_are_pinned(name):
    build, want = PINNED_CONGESTION[name]
    congestion, gap_lower = cg.path_bound(build())
    assert float.hex(congestion) == want
    assert gap_lower == 1.0 / float.fromhex(want)


def per_source_congestion(chain):
    """The congestion by a loop over the sources, one BFS tree at a time in
    Python lists: the tree sums before the trees became arrays, kept as
    the reference for their bits."""
    n = chain.size
    q = chain.edge_measure()
    mu = chain.stationary.tolist()
    graph = csr_matrix(chain.transition > 0, dtype=float)
    heads, tails, loads = [], [], []
    for s in range(n):
        order, pred, depth = _bfs_tree(graph, s)
        subtree = [m * d for m, d in zip(mu, depth)]
        for v in reversed(order[1:]):
            subtree[pred[v]] += subtree[v]
        tails += order[1:]
        heads += [pred[v] for v in order[1:]]
        loads += [mu[s] * subtree[v] for v in order[1:]]
    edges = np.array(heads) * n + np.array(tails)
    used = np.unique(edges)
    load = np.bincount(edges, weights=loads, minlength=n * n)[used]
    weight = q.ravel()[used]
    if (weight == 0).any():
        return math.inf
    return float((load / weight).max())


def assert_congestion_bits(chain):
    assert float.hex(_bfs_congestion(chain)) == float.hex(per_source_congestion(chain))


@settings(max_examples=40, deadline=None)
@given(st.one_of(stochastic_matrices(max_size=9), periodic_matrices()))
def test_congestion_arrays_match_the_per_source_loop(matrix):
    assert_congestion_bits(cg.build_chain(matrix))


def test_congestion_arrays_match_on_a_long_birth_death_chain():
    chain = cg.build_chain(birth_death_matrix(300, 0.6))  # diameter 299
    assert_congestion_bits(chain)


def test_congestion_arrays_match_where_an_edge_measure_underflows():
    P = [[1 - 1e-300, 1e-300, 0.0], [0.5, 0.5 - 1e-30, 1e-30], [0.0, 1e-30, 1 - 1e-30]]
    chain = cg.build_chain(P)
    assert _bfs_congestion(chain) == per_source_congestion(chain) == math.inf


def test_congestion_arrays_match_on_a_sparse_1000_state_chain():
    # hold, a step around the cycle and a jump along a random map
    n = 1000
    x = np.arange(n)
    P = np.zeros((n, n))
    np.add.at(P, (x, x), 0.2)
    np.add.at(P, (x, (x + 1) % n), 0.5)
    np.add.at(P, (x, np.random.default_rng(5).integers(0, n, size=n)), 0.3)
    assert_congestion_bits(cg.build_chain(P))


def test_path_bound_flip(flip):
    congestion, gap_lower = cg.path_bound(flip)
    assert congestion == pytest.approx(0.5, abs=1e-12)
    assert gap_lower == pytest.approx(2.0, abs=1e-12)
    gamma, _ = cg.spectral_gap(flip)
    assert gap_lower == pytest.approx(gamma, abs=1e-12)  # tight here


def test_path_bound_shift3_cycle_paths():
    chain = cg.circulant_chain(3, [(1, 1.0)])
    congestion, gap_lower = cg.path_bound(chain)
    # hand count: each edge carries pair loads (1+2+2)/9, Q(e) = 1/3
    assert congestion == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert gap_lower == pytest.approx(0.6, abs=1e-12)
    gamma, _ = cg.spectral_gap(chain)
    assert gap_lower <= gamma + 1e-9


def test_path_bound_uniform3_single_edges():
    chain = cg.build_chain(np.full((3, 3), 1.0 / 3.0))
    congestion, gap_lower = cg.path_bound(chain)
    assert congestion == pytest.approx(1.0, abs=1e-12)
    assert gap_lower == pytest.approx(1.0, abs=1e-12)


def test_path_bound_keeps_an_edge_whose_edge_measure_underflows():
    # irreducible, but Q(1, 2) = mu(1) P(1, 2) = 2e-330 underflows to 0.0
    P = [[1 - 1e-300, 1e-300, 0.0], [0.5, 0.5 - 1e-30, 1e-30], [0.0, 1e-30, 1 - 1e-30]]
    chain = cg.build_chain(P)
    assert chain.irreducible
    assert chain.edge_measure()[1, 2] == 0.0
    congestion, gap_lower = cg.path_bound(chain)
    assert congestion == math.inf
    assert gap_lower == 0.0


def test_path_bound_rejects_disconnected():
    chain = cg.build_chain([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(NotIrreducible):
        cg.path_bound(chain)


def _random_simple_path(q, s, t, rnd):
    """Random DFS path in the positive-edge digraph (seeded)."""
    n = q.shape[0]
    stack = [(s, [s])]
    visited = {s}
    while stack:
        node, path = stack[-1]
        if node == t:
            return tuple(zip(path, path[1:]))
        nbrs = [v for v in range(n) if q[node, v] > 0 and v not in visited]
        rnd.shuffle(nbrs)
        if not nbrs:
            stack.pop()
            continue
        nxt = nbrs[0]
        visited.add(nxt)
        stack[-1] = (node, path)
        stack.append((nxt, path + [nxt]))
    raise AssertionError("graph should be strongly connected")


def test_random_perturbed_ensembles_stay_below_gap(battery):
    # the bound holds for any path ensemble, not only the breadth-first one
    rnd = np.random.RandomState(123)
    import random as pyrandom

    for item in battery[:6] + battery[-3:]:
        chain = item.chain
        if chain.size > 16:
            continue
        gamma, _ = cg.spectral_gap(chain)
        base = deque_bfs_paths(chain)
        q = chain.edge_measure()
        gen = pyrandom.Random(int(rnd.randint(0, 2**31)))
        for _ in range(100):
            paths = dict(base)
            for _ in range(3):
                s, t = gen.sample(range(chain.size), 2)
                paths[(s, t)] = _random_simple_path(q, s, t, gen)
            assert 1.0 / walked_congestion(chain, paths) <= gamma + 1e-9


def test_mixing_time_examples(flip):
    uniform = cg.build_chain(np.full((4, 4), 0.25))
    assert cg.mixing_time(uniform, 0.25).tmix == 1
    assert math.isinf(cg.mixing_time(flip, 0.25).tmix)
    assert cg.mixing_time(cg.lazy(flip, 0.5), 0.25).tmix == 1
    # large eps can be met at n = 0
    assert cg.mixing_time(flip, 0.6).tmix == 0
    # d(n) = 2^-(n+1) exactly, so the bisection probe n = 3 meets eps with equality
    assert cg.mixing_time(cg.build_chain([[0.75, 0.25], [0.25, 0.75]]), 1 / 16).tmix == 3


@pytest.mark.parametrize("eps", [0.0, 1.0, math.nan])
def test_mixing_time_refuses_eps_outside_zero_one(flip, eps):
    with pytest.raises(ValueError, match=r"eps must be in \(0, 1\)"):
        cg.mixing_time(flip, eps)


def test_mixing_cap_exceeded_for_slow_aperiodic_chain():
    leak = 1e-7
    chain = cg.build_chain([[1 - leak, leak], [leak, 1 - leak]])
    with pytest.raises(cg.errors.MixingCapExceeded):
        cg.mixing_time(chain, 0.01)


def test_mixing_curve_monotone(battery):
    for item in battery[:10]:
        curve = cg.mixing_time(item.chain, 1.0 / 6.0).tv_curve
        values = [v for _, v in curve]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


MIXING_EPS = (1.0 / 6.0, 0.25, 0.01, 0.6)


def reference_mixing(chain, eps):
    """(tmix, probes, d) from a linear scan of d(n) = max_x TV(P^n_x, mu).

    The probes are those of a doubling search (n = 0, 1, 2, 4, ... while
    2n stays within the cap 10 N^2 + 1000) followed by a bisection of the
    last doubling step, both read off the scanned values. tmix is the first
    scanned n with d(n) <= eps, and None when the doubling never reaches
    eps: then mixing_time must report infinity or raise.
    """
    cap = 10 * chain.size**2 + 1000
    mu = chain.stationary
    d, power = [], np.eye(chain.size)

    def tv(n):
        nonlocal power
        while len(d) <= n:
            d.append(0.5 * np.abs(power - mu).sum(axis=1).max())
            power = power @ chain.transition
        return d[n]

    probes = [0]
    if tv(0) <= eps:
        return 0, probes, d
    step = 1
    while True:
        probes.append(step)
        if tv(step) <= eps:
            break
        if 2 * step > cap:
            return None, probes, d
        step *= 2
    lo, hi = step // 2, step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probes.append(mid)
        if tv(mid) <= eps:
            hi = mid
        else:
            lo = mid
    tmix = next(n for n, value in enumerate(d) if value <= eps)
    return tmix, sorted(probes), d


def assert_mixing_matches_reference(chain):
    for eps in MIXING_EPS:
        tmix, probes, d = reference_mixing(chain, eps)
        if tmix is None and cg.period(chain) == 1:
            with pytest.raises(cg.errors.MixingCapExceeded):
                cg.mixing_time(chain, eps)
            continue
        result = cg.mixing_time(chain, eps)
        assert result.tmix == (math.inf if tmix is None else tmix)
        assert [n for n, _ in result.tv_curve] == probes
        for n, value in result.tv_curve:
            assert value == pytest.approx(d[n], rel=1e-9, abs=1e-12)


def test_mixing_against_reference_walk(battery, flip):
    # brute-force check: first n with max_x TV <= eps, scanned linearly, and
    # the probes of doubling then bisection
    chains = [item.chain for item in battery]
    chains += [cg.lazy(flip, 0.5), cg.circulant_chain(7, [(3, 1.0)])]
    for chain in chains:
        assert_mixing_matches_reference(chain)


@settings(max_examples=40, deadline=None)
@given(stochastic_matrices(max_size=6))
def test_mixing_against_reference_walk_on_random_chains(P):
    assert_mixing_matches_reference(cg.build_chain(P))


def test_inequality_audit_flip(flip):
    audit = cg.inequality_audit(flip)
    assert audit.all_pass
    by_name = {c.name.split(" ")[0]: c for c in audit.checks}
    assert not by_name["relaxation_vs_mixing"].applicable  # mixing time infinite
    cheeger_lower = by_name["cheeger_lower"]
    assert cheeger_lower.lhs == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert cheeger_lower.rhs == pytest.approx(2.0, abs=1e-12)
    cheeger_upper = by_name["cheeger_upper"]
    assert cheeger_upper.rhs == pytest.approx(32.0, abs=1e-12)
    path = by_name["path_congestion"]
    assert path.lhs == pytest.approx(2.0, abs=1e-12)  # tight


def test_inequality_audit_shift4(shift4):
    audit = cg.inequality_audit(shift4)
    assert audit.all_pass
    by_name = {c.name.split(" ")[0]: c for c in audit.checks}
    lower = by_name["additive_gap_lower"]
    assert lower.lhs == pytest.approx(0.5, abs=1e-12)  # gamma_A = 1
    upper = by_name["additive_gap_upper"]
    assert upper.lhs == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert upper.rhs == pytest.approx(math.sqrt(2.0), rel=1e-12)  # tight side
    mult = by_name["multiplicative_gap_lower"]
    assert mult.lhs == pytest.approx(0.0, abs=1e-12)  # gamma_M = 0


def test_inequality_audit_uniform_mixing_constant():
    chain = cg.build_chain(np.full((3, 3), 1.0 / 3.0))
    audit = cg.inequality_audit(chain, eps=0.1)
    by_name = {c.name.split(" ")[0]: c for c in audit.checks}
    check = by_name["relaxation_vs_mixing"]
    assert check.applicable
    factor = 4.0 / math.log(2.0 / (1.0 + 0.4 + 0.02)) + 2.0
    assert check.lhs == pytest.approx(1.0, abs=1e-9)
    assert check.rhs == pytest.approx(factor * 1.0, rel=1e-12)
    assert factor == pytest.approx(13.679, abs=1e-3)


def test_inequality_audit_group_walk_flag():
    audit = cg.inequality_audit(cg.card_chain(3), group_walk=True)
    names = [c.name for c in audit.checks]
    assert any(n.startswith("group_walk_doubling") for n in names)
    assert audit.all_pass


def test_group_walk_doubling_is_skipped_when_tau_is_infinite():
    # the walk on Z/2 x Z/2 by (1, 0) at 1 - d and (1, 1) at d: gap 2d, below
    # relaxation_time's floor, so tau is infinite and there is no bound to check
    audit = cg.inequality_audit(cg.build_chain(z2_squared_walk_matrix(1e-10)), group_walk=True)
    (check,) = [c for c in audit.checks if c.name.startswith("group_walk_doubling")]
    assert check.name == "group_walk_doubling [skipped: relaxation time infinite]"
    assert not check.applicable
    assert audit.all_pass


def test_inequality_audit_eps_gates(flip):
    audit = cg.inequality_audit(cg.lazy(flip, 0.5), eps=0.3)
    by_name = {c.name.split(" ")[0]: c for c in audit.checks}
    assert not by_name["relaxation_vs_mixing"].applicable  # eps outside (0, 1/5)
    assert by_name["mixing_vs_relaxation"].applicable  # allowed up to 1/2
    audit = cg.inequality_audit(cg.lazy(flip, 0.5), eps=0.5)
    (check,) = [c for c in audit.checks if c.name.startswith("mixing_vs_relaxation")]
    assert check.name == "mixing_vs_relaxation [skipped: eps outside (0, 1/2)]"


def test_audit_serialization_and_exit_semantics():
    good = cg.inequality_audit(cg.build_chain(np.full((2, 2), 0.5)))
    payload = json.loads(render_report(good, "json"))
    assert payload["all_pass"] is True
    assert all("margin" in c for c in payload["checks"])
    table = render_report(good, "csv")
    assert "cheeger_lower" in table

    failing = BoundAudit((make_check("synthetic", 2.0, 1.0, "<="),))
    assert not failing.all_pass
    with pytest.raises(ValueError, match="relation must be '<=' or '>=', got '<'"):
        make_check("synthetic", 1.0, 2.0, "<")


@settings(max_examples=10, deadline=None)
@given(stochastic_matrices(max_size=5))
def test_full_audit_on_random_chains(matrix):
    audit = cg.inequality_audit(cg.build_chain(matrix))
    assert audit.all_pass
