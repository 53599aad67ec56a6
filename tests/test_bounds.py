import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings

import chaingap as cg
from chaingap.audit import BoundAudit, make_check
from chaingap.errors import NotIrreducible, TooLargeForEnumeration

from conftest import stochastic_matrices


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


def test_path_bound_flip(flip):
    congestion, gap_lower, ensemble = cg.path_bound(flip)
    assert congestion == pytest.approx(0.5, abs=1e-12)
    assert gap_lower == pytest.approx(2.0, abs=1e-12)
    gamma, _ = cg.spectral_gap(flip)
    assert gap_lower == pytest.approx(gamma, abs=1e-12)  # tight here
    assert set(ensemble.paths) == {(0, 1), (1, 0)}


def test_path_bound_shift3_cycle_paths():
    chain = cg.circulant_chain(3, [(1, 1.0)])
    congestion, gap_lower, _ = cg.path_bound(chain)
    # hand count: each edge carries pair loads (1+2+2)/9, Q(e) = 1/3
    assert congestion == pytest.approx(5.0 / 3.0, abs=1e-12)
    assert gap_lower == pytest.approx(0.6, abs=1e-12)
    gamma, _ = cg.spectral_gap(chain)
    assert gap_lower <= gamma + 1e-9


def test_path_bound_uniform3_single_edges():
    chain = cg.build_chain(np.full((3, 3), 1.0 / 3.0))
    congestion, gap_lower, ensemble = cg.path_bound(chain)
    assert all(len(p) == 1 for p in ensemble.paths.values())
    assert congestion == pytest.approx(1.0, abs=1e-12)
    assert gap_lower == pytest.approx(1.0, abs=1e-12)


def test_path_bound_rejects_disconnected():
    chain = cg.build_chain([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(NotIrreducible):
        cg.path_bound(chain)


def test_path_bound_custom_ensemble_validation(flip):
    bad = cg.PathEnsemble(paths={(0, 1): ((0, 1),)}, congestion=0.0)
    with pytest.raises(ValueError):
        cg.path_bound(flip, bad)


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
    rnd = np.random.RandomState(123)
    import random as pyrandom

    for item in battery[:6] + battery[-3:]:
        chain = item.chain
        if chain.size > 16:
            continue
        gamma, _ = cg.spectral_gap(chain)
        base = cg.path_bound(chain).ensemble
        q = chain.edge_measure()
        gen = pyrandom.Random(int(rnd.randint(0, 2**31)))
        for _ in range(100):
            paths = dict(base.paths)
            for _ in range(3):
                s, t = gen.sample(range(chain.size), 2)
                paths[(s, t)] = _random_simple_path(q, s, t, gen)
            ensemble = cg.PathEnsemble(paths=paths, congestion=0.0)
            _, gap_lower, _ = cg.path_bound(chain, ensemble)
            assert gap_lower <= gamma + 1e-9


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
        cg.mixing_time(chain, 0.01, cap=100)


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
    payload = good.to_json()
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
