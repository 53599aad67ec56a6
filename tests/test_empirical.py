import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import null_space

import chaingap as cg
from chaingap.empirical import _BLOCK_ENTRIES, ALIAS_THRESHOLD, _build_alias
from chaingap.errors import BadTestFunction
from chaingap.experiments import render_report

from conftest import (
    bipartite_walk_matrix,
    birth_death_matrix,
    cyclic_classes_matrix,
    stochastic_matrices,
)


def _mu_norm(g, mu):
    return float(np.sqrt(g * g @ mu))


def trajectory_gram(chain, n):
    """Oracle: E[v v^T] with v = visit-counts/n, by full trajectory enumeration.

    mu_n g = g . v, so E[(mu_n g)^2] is the quadratic form of this matrix.
    Only feasible for tiny chains; completely independent of the
    incremental power accumulation used by the implementation.
    """
    size = chain.size
    P = chain.transition
    mu = chain.stationary
    gram = np.zeros((size, size))
    for path in itertools.product(range(size), repeat=n):
        prob = mu[path[0]]
        for a, b in zip(path, path[1:]):
            prob *= P[a, b]
        if prob == 0:
            continue
        v = np.bincount(path, minlength=size) / n
        gram += prob * np.outer(v, v)
    return gram


def delta_oracle(chain, n):
    """Oracle Delta_n: top of the trajectory Gram form on the mean-zero slice."""
    gram = trajectory_gram(chain, n)
    d = np.sqrt(chain.stationary)
    # restrict the form g -> g^T gram g to {g : sum mu g = 0, sum mu g^2 = 1}
    # via u = D^{1/2} g and an explicit basis of sqrt(mu)-perp from scipy
    basis = null_space(d[None, :])
    sym = basis.T @ (gram / np.outer(d, d)) @ basis
    w = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    return math.sqrt(max(float(w[-1]), 0.0))


def test_delta_one_is_one(battery):
    for item in battery[:8]:
        value, g = cg.delta_exact(item.chain, 1)
        assert value == pytest.approx(1.0, abs=1e-10)
        mu = item.chain.stationary
        assert abs(_mu_norm(g, mu) - 1.0) <= 1e-10
        assert abs(float(np.dot(mu, g))) <= 1e-10


def test_flip_curve_matches_enumeration(flip):
    curve = cg.delta_curve(flip, [1, 2, 3, 4])
    values = [p.delta_exact for p in curve.entries]
    assert values == pytest.approx([1.0, 0.0, 1.0 / 3.0, 0.0], abs=1e-12)
    for n in (1, 2, 3, 4):
        assert values[n - 1] == pytest.approx(delta_oracle(flip, n), abs=1e-10)


def test_uniform_curve_is_iid(uniform5):
    curve = cg.delta_curve(uniform5, [1, 2, 4])
    values = [p.delta_exact for p in curve.entries]
    assert values == pytest.approx([1.0, 1.0 / math.sqrt(2), 0.5], rel=1e-12)
    assert cg.delta_exact(uniform5, 4)[0] == pytest.approx(0.5, rel=1e-12)


def test_delta_against_enumeration_on_assorted_chains():
    chains = [
        cg.circulant_chain(3, [(1, 1.0)]),
        cg.circulant_chain(3, [(0, 0.5), (1, 0.5)]),
        cg.build_chain([[0.9, 0.1], [0.2, 0.8]]),
        cg.cdg_chain(3),
    ]
    for chain in chains:
        for n in (1, 2, 3, 5):
            value, _ = cg.delta_exact(chain, n)
            assert value == pytest.approx(delta_oracle(chain, n), abs=1e-10)


def test_single_entry_curve(flip):
    curve = cg.delta_curve(flip, [1])
    assert len(curve.entries) == 1
    assert curve.entries[0].delta_exact == pytest.approx(1.0, abs=1e-12)


def test_curve_accepts_unsorted_duplicated_n(flip):
    curve = cg.delta_curve(flip, [4, 1, 2, 2, 3, 1])
    assert [p.n for p in curve.entries] == [1, 2, 3, 4]
    assert [p.delta_exact for p in curve.entries] == pytest.approx(
        [1.0, 0.0, 1.0 / 3.0, 0.0], abs=1e-12
    )
    with pytest.raises(ValueError):
        cg.delta_curve(flip, [0, 1])


def test_maximizer_attains_value():
    chain = cg.build_chain([[0.9, 0.1], [0.2, 0.8]])
    n = 4
    value, g = cg.delta_exact(chain, n)
    gram = trajectory_gram(chain, n)
    attained = math.sqrt(max(float(g @ gram @ g), 0.0))
    assert attained == pytest.approx(value, abs=1e-10)


def time_reversal(chain):
    """P*(x, y) = mu(y) P(y, x) / mu(x), the mu-adjoint of P."""
    mu = chain.stationary
    return mu[None, :] * chain.transition.T / mu[:, None]


def test_gram_operator_is_mu_self_adjoint():
    # build M_n explicitly in chain coordinates from powers and adjoints
    chain = cg.cdg_chain(5)
    P = chain.transition
    mu = chain.stationary
    star = time_reversal(chain)
    n = 6
    m_n = n * np.eye(5)
    pk = np.eye(5)
    sk = np.eye(5)
    for k in range(1, n):
        pk = pk @ P
        sk = sk @ star
        m_n += (n - k) * (pk + sk)
    m_n /= n * n
    d = np.sqrt(mu)
    conj = d[:, None] * m_n / d[None, :]
    assert np.abs(conj - conj.T).max() <= 1e-11
    # and the fast path agrees with this explicit construction
    basis = null_space(d[None, :])
    w = np.linalg.eigvalsh(basis.T @ conj @ basis)
    assert cg.delta_exact(chain, n)[0] == pytest.approx(
        math.sqrt(max(float(w[-1]), 0.0)), abs=1e-11
    )


def householder_curve(chain, ns):
    """The former evaluator, kept as the reference for delta_curve.

    Every H_k is reduced to an explicit orthonormal basis of sqrt(mu)-perp
    (the trailing columns of the Householder reflection sending e_0 to
    -sqrt(mu)) and the whole reduced Gram matrix is diagonalized at each n.
    Yields (n, Delta_n, reduced Gram matrix, basis).
    """
    d = np.sqrt(chain.stationary)
    u = d.copy()
    u[0] += 1.0
    basis = (np.eye(len(d)) - 2.0 * np.outer(u, u) / (u @ u))[:, 1:]
    b1 = d[:, None] * chain.transition / d[None, :]
    bk = np.eye(len(d))
    total = np.zeros((len(d) - 1, len(d) - 1))
    weighted = np.zeros_like(total)
    k = 0
    for n in ns:
        while k < n - 1:
            k += 1
            bk = bk @ b1
            reduced = basis.T @ (0.5 * (bk + bk.T)) @ basis
            total += reduced
            weighted += k * reduced
        gram = (n * np.eye(len(total)) + 2.0 * (n * total - weighted)) / n**2
        top = float(np.linalg.eigvalsh(gram)[-1])
        value = 0.0 if top < 1e-13 else min(math.sqrt(top), 1.0)
        yield n, value, gram, basis


KERNEL_CHAINS = {
    "birth-death-21-0.9": lambda: cg.build_chain(birth_death_matrix(21, 0.9)),
    "birth-death-40-0.75": lambda: cg.build_chain(birth_death_matrix(40, 0.75)),
    "birth-death-60-0.6": lambda: cg.build_chain(birth_death_matrix(60, 0.6)),
    "cycle-5": lambda: cg.build_chain(cyclic_classes_matrix(5, 1, [1.0])),
    "cyclic-3x4": lambda: cg.build_chain(cyclic_classes_matrix(3, 4, [1.0, 0.5, 0.2, 0.1])),
    "bipartite-skewed": lambda: cg.build_chain(
        bipartite_walk_matrix([[1e4, 0.3, 1.0], [0.2, 1.0, 0.7]])
    ),
    "cdg-31": lambda: cg.cdg_chain(31),
    "cdg-101": lambda: cg.cdg_chain(101),
    "uniform-200": lambda: cg.build_chain(np.full((200, 200), 1.0 / 200)),
}


@pytest.mark.parametrize("name", sorted(KERNEL_CHAINS))
def test_curve_matches_householder_evaluator(name):
    chain = KERNEL_CHAINS[name]()
    mu = chain.stationary
    ns = range(1, 31)
    curve = cg.delta_curve(chain, ns)
    assert curve.entries[0].delta_exact == 1.0
    for point, (n, want, gram, basis) in zip(curve.entries, householder_curve(chain, ns)):
        assert point.n == n
        assert abs(point.delta_exact - want) <= 1e-13, n
        g = point.maximizer
        assert abs(float(mu @ g)) <= 1e-12
        assert abs(_mu_norm(g, mu) - 1.0) <= 1e-12
        y = basis.T @ (np.sqrt(mu) * g)
        assert abs(float(y @ gram @ y) - point.delta_exact**2) <= 1e-12, n


def test_degenerate_top_cluster_falls_back_to_eigh(monkeypatch):
    # every H_k (k >= 1) of the uniform chain vanishes on sqrt(mu)-perp, so
    # M_n is I/n there: dsyevx finds no eigenvalue in a 199-fold top cluster
    chain = KERNEL_CHAINS["uniform-200"]()
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    assert cg.delta_exact(chain, 1)[0] == 1.0
    assert len(calls) == 1
    curve = cg.delta_curve(chain, range(1, 6))
    values = [p.delta_exact for p in curve.entries]
    assert values[0] == 1.0
    assert values == pytest.approx([1.0 / math.sqrt(n) for n in range(1, 6)], rel=1e-13)


def test_curve_subadditivity(battery):
    for item in battery[:12]:
        curve = cg.delta_curve(item.chain, range(1, 13))
        vals = {p.n: p.delta_exact for p in curve.entries}
        for a in range(1, 12):
            for b in range(1, 13 - a):
                n = a + b
                assert n * vals[n] <= a * vals[a] + b * vals[b] + 1e-9


def test_monte_carlo_matches_exact_on_uniform(uniform5):
    value, g = cg.delta_exact(uniform5, 4)
    estimate, stderr = cg.delta_monte_carlo(uniform5, g, n=4, reps=4000, seed=42)
    assert stderr > 0
    assert abs(estimate - value) <= 4 * stderr


def test_monte_carlo_flip_cancels_exactly(flip):
    _, g = cg.delta_exact(flip, 2)
    estimate, stderr = cg.delta_monte_carlo(flip, g, n=2, reps=500, seed=3)
    assert estimate == 0.0
    assert stderr == 0.0


def test_monte_carlo_n1_recovers_unit_norm(flip):
    _, g = cg.delta_exact(flip, 1)
    estimate, stderr = cg.delta_monte_carlo(flip, g, n=1, reps=2000, seed=11)
    assert abs(estimate - 1.0) <= max(4 * stderr, 1e-12)


def test_monte_carlo_is_deterministic(uniform5):
    _, g = cg.delta_exact(uniform5, 3)
    a = cg.delta_monte_carlo(uniform5, g, n=3, reps=300, seed=9)
    b = cg.delta_monte_carlo(uniform5, g, n=3, reps=300, seed=9)
    c = cg.delta_monte_carlo(uniform5, g, n=3, reps=300, seed=10)
    assert a == b
    assert a != c


def test_monte_carlo_alias_route_matches_exact():
    # force the alias-table path with a >64-state circle walk
    chain = cg.circulant_chain(96, [(0, 0.5), (1, 0.5)])
    value, g = cg.delta_exact(chain, 3)
    estimate, stderr = cg.delta_monte_carlo(chain, g, n=3, reps=3000, seed=5)
    assert abs(estimate - value) <= 4 * stderr


def _replicate_rng(seed, rep):
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(rep)])
    return np.random.Generator(np.random.Philox(key=key))


def scalar_delta_monte_carlo(chain, g, n, reps, seed):
    """Reference sampler: one replicate at a time, one Python step per draw."""
    size = chain.size
    P = chain.transition
    mu_cdf = np.cumsum(chain.stationary)
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
    mean_sq = float(squares.mean())
    if mean_sq <= 0.0:
        return 0.0, 0.0
    se_mean = float(squares.std(ddof=1)) / np.sqrt(reps)
    estimate = float(np.sqrt(mean_sq))
    return estimate, se_mean / (2.0 * estimate)


def _skewed_chain(size):
    # nonuniform mu, so the start draw exercises the whole mu CDF
    P = birth_death_matrix(size, 0.6)
    P[:, 0] += 0.1
    return cg.build_chain(P / P.sum(axis=1, keepdims=True))


MC_CHAINS = {
    "circulant-32": lambda: cg.circulant_chain(32, [(1, 0.5), (5, 0.3), (-3, 0.2)]),
    "skewed-40": lambda: _skewed_chain(40),
    "circulant-96": lambda: cg.circulant_chain(96, [(0, 0.2), (1, 0.5), (17, 0.3)]),
    "skewed-70": lambda: _skewed_chain(70),
}


@pytest.mark.parametrize("name", sorted(MC_CHAINS))
def test_lockstep_sampler_matches_scalar_walk(name):
    chain = MC_CHAINS[name]()
    for n in (1, 2, 9):
        _, g = cg.delta_exact(chain, n)
        for seed in (0, 7, -5, 2**64 + 3):
            # one replicate has no standard error
            with pytest.raises(ValueError, match="reps must be >= 2"):
                cg.delta_monte_carlo(chain, g, n, 1, seed)
            for reps in (2, 3, 40):
                got = cg.delta_monte_carlo(chain, g, n, reps, seed)
                assert got == scalar_delta_monte_carlo(chain, g, n, reps, seed), (n, seed, reps)
                assert all(type(v) is float for v in got)


@pytest.mark.parametrize(
    "name, n, reps",
    [("circulant-32", 3, 4500), ("circulant-96", 100, 1400)],
)
def test_lockstep_sampler_matches_scalar_walk_across_blocks(name, n, reps):
    chain = MC_CHAINS[name]()
    width = max(n - 1, chain.size if chain.size <= ALIAS_THRESHOLD else 1)
    assert reps > 2 * (_BLOCK_ENTRIES // width)  # at least three blocks
    _, g = cg.delta_exact(chain, n)
    got = cg.delta_monte_carlo(chain, g, n, reps, seed=-11)
    assert got == scalar_delta_monte_carlo(chain, g, n, reps, seed=-11)


def test_lockstep_sampler_squares_like_a_scalar_walk():
    # at this seed a scalar ``** 2`` (libm pow) and an array ``** 2`` (x * x)
    # round one replicate's square differently, and the estimate shows it
    chain = MC_CHAINS["circulant-96"]()
    _, g = cg.delta_exact(chain, 3)
    got = cg.delta_monte_carlo(chain, g, 3, 2, seed=515)
    assert got == scalar_delta_monte_carlo(chain, g, 3, 2, seed=515)


def test_reset_philox_state_equals_fresh_stream():
    key = np.array([2**64 - 5, 12], dtype=np.uint64)
    bitgen = np.random.Philox(key=np.array([1, 2], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    rng.integers(0, 128, size=3)  # leaves half a 64-bit draw buffered
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    fresh = np.random.Generator(np.random.Philox(key=key))
    assert rng.random() == fresh.random()
    assert np.array_equal(rng.integers(0, 128, size=7), fresh.integers(0, 128, size=7))
    assert np.array_equal(rng.random(7), fresh.random(7))


def test_monte_carlo_rejects_bad_test_function(flip):
    with pytest.raises(BadTestFunction):
        cg.delta_monte_carlo(flip, np.array([1.0, 1.0]), n=2, reps=10, seed=0)
    with pytest.raises(BadTestFunction):
        cg.delta_monte_carlo(flip, np.array([2.0, -2.0]), n=2, reps=10, seed=0)


def test_delta_bounds_audit_flip(flip):
    audit = cg.delta_bounds_audit(flip, n_max=8)
    assert audit.all_pass
    names = [c.name for c in audit.checks]
    assert any(n.startswith("avg_dev_upper") for n in names)
    assert any(n.startswith("avg_dev_window_lower") for n in names)
    # tau = 1/2 < 3, so the floor bound has no qualifying n
    floor = [c for c in audit.checks if c.name.startswith("avg_dev_floor")][0]
    assert not floor.applicable


def test_delta_bounds_audit_slow_chain_hits_floor():
    chain = cg.circulant_chain(16, [(1, 0.5), (-1, 0.5)])  # tau ~ 13.1
    audit = cg.delta_bounds_audit(chain, n_max=30)
    floor = [c for c in audit.checks if c.name.startswith("avg_dev_floor")][0]
    assert floor.applicable
    assert audit.all_pass


def test_delta_bounds_audit_rejects_degenerate_kernel():
    leak = 1e-12
    chain = cg.build_chain([[1 - leak, leak], [leak, 1 - leak]])
    with pytest.raises(cg.errors.DegenerateKernel):
        cg.delta_bounds_audit(chain, 4)


def test_curve_csv_round_trip(flip):
    curve = cg.delta_curve(flip, [1, 2])
    text = render_report(curve, "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "n,delta_exact,delta_mc,mc_stderr"
    assert lines[1].startswith("1,1")


@settings(max_examples=15, deadline=None)
@given(stochastic_matrices(max_size=4))
def test_delta_one_and_range_properties(matrix):
    chain = cg.build_chain(matrix)
    curve = cg.delta_curve(chain, range(1, 7))
    vals = [p.delta_exact for p in curve.entries]
    assert vals[0] == pytest.approx(1.0, abs=1e-10)
    assert all(0.0 <= v <= 1.0 for v in vals)
    for n in (2, 4):
        assert vals[n - 1] == pytest.approx(delta_oracle(chain, n), abs=1e-9)
