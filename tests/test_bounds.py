import itertools
import json
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings

import chaingap as cg
from chaingap import tolerances as tol
from chaingap.audit import BoundAudit, make_check
from chaingap.bounds import _first_improvement
from chaingap.errors import NotIrreducible, TooLargeForEnumeration
from chaingap.experiments import render_report

from conftest import birth_death_matrix, stochastic_matrices


def cheeger_oracle(chain):
    """Plain powerset enumeration, independent of the vectorized route."""
    n = chain.size
    mu = chain.stationary
    q = chain.edge_measure()
    best = math.inf
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            mu_a = mu[list(subset)].sum()
            if not 0 < mu_a <= 0.5 + 1e-12:
                continue
            comp = [x for x in range(n) if x not in subset]
            flow = q[np.ix_(list(subset), comp)].sum()
            best = min(best, flow / mu_a)
    return best


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
    start = np.array([0, 1])
    for light in (1e-9, 1e-11, 1e-13, 1e-17):  # at 1e-17 the update cancels to 0
        for drop in (1e-8, 1e-10, 1e-12, 2e-15):
            chain = _light_state_chain(light, drop)
            mu, q = chain.stationary, chain.edge_measure()
            value = _plain_subset_value(chain, {0, 1})
            want = plain_first_improvement(chain, {0, 1}, value)
            assert want[0] == (1,)
            got = _first_improvement(mu, q, start, value)
            assert (tuple(got[0].tolist()), got[1]) == want, (light, drop)


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


def test_mixing_against_reference_walk():
    # brute-force check: first n with max_x TV <= eps, scanned linearly
    chain = cg.circulant_chain(8, [(0, 0.5), (1, 0.5)])
    eps = 1.0 / 6.0
    mu = chain.stationary
    step = np.eye(8)
    expected = None
    for n in range(200):
        tv = 0.5 * np.abs(step - mu).sum(axis=1).max()
        if tv <= eps:
            expected = n
            break
        step = step @ chain.transition
    assert cg.mixing_time(chain, eps).tmix == expected


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


def test_inequality_audit_eps_gates(flip):
    audit = cg.inequality_audit(cg.lazy(flip, 0.5), eps=0.3)
    by_name = {c.name.split(" ")[0]: c for c in audit.checks}
    assert not by_name["relaxation_vs_mixing"].applicable  # eps outside (0, 1/5)
    assert by_name["mixing_vs_relaxation"].applicable  # allowed up to 1/2


def test_audit_serialization_and_exit_semantics():
    good = cg.inequality_audit(cg.build_chain(np.full((2, 2), 0.5)))
    payload = json.loads(render_report(good, "json"))
    assert payload["all_pass"] is True
    assert all("margin" in c for c in payload["checks"])
    table = good.to_table()
    assert "cheeger_lower" in table

    failing = BoundAudit((make_check("synthetic", 2.0, 1.0, "<="),))
    assert not failing.all_pass


@settings(max_examples=10, deadline=None)
@given(stochastic_matrices(max_size=5))
def test_full_audit_on_random_chains(matrix):
    audit = cg.inequality_audit(cg.build_chain(matrix))
    assert audit.all_pass
