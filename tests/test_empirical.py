import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.linalg.lapack import dsyevx

import chaingap as cg
from chaingap import empirical
from chaingap.empirical import (
    _alias_tables,
    _deviation_values,
    _philox_key,
    _philox_words,
    _rekeyed_words,
    _replicate_draws,
)
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


def test_curve_refuses_an_empty_n_list(flip):
    with pytest.raises(ValueError, match="the n list is empty"):
        cg.delta_curve(flip, [])


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


def explicit_twin(chain):
    """The same matrix and uniform mu as an explicit chain, which carries no blocks."""
    return cg.build_chain(chain.transition, stationary=np.full(chain.size, 1.0 / chain.size))


KERNEL_CHAINS = {
    "birth-death-21-0.9": lambda: cg.build_chain(birth_death_matrix(21, 0.9)),
    "birth-death-40-0.75": lambda: cg.build_chain(birth_death_matrix(40, 0.75)),
    "birth-death-60-0.6": lambda: cg.build_chain(birth_death_matrix(60, 0.6)),
    "cycle-5": lambda: cg.build_chain(cyclic_classes_matrix(5, 1, [1.0])),
    "cyclic-3x4": lambda: cg.build_chain(cyclic_classes_matrix(3, 4, [1.0, 0.5, 0.2, 0.1])),
    "bipartite-skewed": lambda: cg.build_chain(
        bipartite_walk_matrix([[1e4, 0.3, 1.0], [0.2, 1.0, 0.7]])
    ),
    "cdg-31": lambda: explicit_twin(cg.cdg_chain(31)),
    "cdg-101": lambda: explicit_twin(cg.cdg_chain(101)),
    "uniform-200": lambda: cg.build_chain(np.full((200, 200), 1.0 / 200)),
}

# The family-built group walks, which carry their blocks: their Delta_n
# values come from the blocks, their maximizers from the dense gram.
BLOCK_CHAINS = {
    "cdg-family-31": lambda: cg.cdg_chain(31),
    "cdg-family-101": lambda: cg.cdg_chain(101),
    "cdg-family-201": lambda: cg.cdg_chain(201),
    "card-family-5": lambda: cg.card_chain(5),
    "circulant-family-24": lambda: cg.circulant_chain(24, [(0, 0.2), (1, 0.5), (-5, 0.3)]),
    "torus-family-5": lambda: cg.torus_chain(5, 2, cg.TorusProbs(0.1, (0.4, 0.2), (0.2, 0.1))),
    "lazy-circulant-family-16": lambda: cg.lazy(cg.circulant_chain(16, [(1, 0.7), (3, 0.3)]), 0.4),
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


def lone_gram_deviation(chain, n):
    """(Delta_n, maximizer) from one gram formed on its own.

    The evaluator before the grams were stacked, kept as the bitwise
    reference: the same running sums, then SS + SS^T, n on the diagonal
    and the deflation, each on a single gram.
    """
    d = np.sqrt(chain.stationary)
    b1 = d[:, None] * chain.transition / d[None, :]
    bk = np.eye(len(d))
    ssum = np.zeros_like(bk)
    sum_of_sums = np.zeros_like(bk)
    for _ in range(n - 1):
        bk = bk @ b1
        ssum += bk
        sum_of_sums += ssum
    gram = sum_of_sums + sum_of_sums.T
    gram.flat[:: len(d) + 1] += n
    gram -= np.outer((d @ gram @ d + n * n) * d, d)
    w, vec, found, _, info = dsyevx(gram, range="I", il=len(d), iu=len(d))
    if info == 0 and found == 1:
        top, u = float(w[0]), vec[:, 0]
    else:
        w, vec = np.linalg.eigh(gram)
        top, u = float(w[-1]), vec[:, -1]
    top /= n * n
    if n == 1:
        top = 1.0
    elif top < cg.tolerances.DELTA_SQ_FLOOR:
        top = 0.0
    return min(np.sqrt(max(top, 0.0)), 1.0), u / d


def _curve_values(chain, n_max):
    return np.array([p.delta_exact for p in cg.delta_curve(chain, range(1, n_max + 1)).entries])


@pytest.mark.parametrize("name", sorted(KERNEL_CHAINS))
def test_stacked_grams_match_lone_grams_bitwise(name, monkeypatch):
    chain = KERNEL_CHAINS[name]()
    ns = [1, 2, 3, 7, 8, 30]
    lone = [lone_gram_deviation(chain, n) for n in ns]
    for n, (value, g) in zip(ns, lone):
        got_value, got_g = cg.delta_exact(chain, n)
        assert got_value == value, n
        assert np.array_equal(got_g, g), n
    # three grams per stack, so the stacks split the requested n
    monkeypatch.setattr(cg.tolerances, "BLOCK_ENTRIES", 3 * 2 * chain.size**2)
    for point, (value, g) in zip(cg.delta_curve(chain, ns).entries, lone):
        assert point.delta_exact == value, point.n
        assert np.array_equal(point.maximizer, g), point.n


@pytest.mark.parametrize("name", sorted(KERNEL_CHAINS | BLOCK_CHAINS))
def test_audit_values_equal_curve_values_on_kernel_chains(name):
    chain = (KERNEL_CHAINS | BLOCK_CHAINS)[name]()
    assert np.array_equal(_deviation_values(chain, 40), _curve_values(chain, 40))


def assert_block_curve_matches_explicit_twin(chain, n_max=60):
    want = _deviation_values(explicit_twin(chain), n_max)
    got = _deviation_values(chain, n_max)
    assert float(np.max(np.abs(got - want) / want)) <= 1e-12


@settings(max_examples=6, deadline=None)
@given(st.integers(1, 200).map(lambda h: 2 * h + 1))
@example(5)  # orbits that hold -m, split by the half-turn
@example(11)
@example(7)  # orbits of m and -m apart
@example(31)
def test_doubling_block_curve_matches_dense_curve(N):
    assert_block_curve_matches_explicit_twin(cg.cdg_chain(N))


TWINNED_BLOCK_CHAINS = {
    **{f"card-{N}": lambda N=N: cg.card_chain(N) for N in (3, 4, 5, 6)},
    # lazy must map the blocks too, or the curve is the eager chain's
    "lazy-card-4": lambda: cg.lazy(cg.card_chain(4), 0.3),
    "lazy-cdg-11": lambda: cg.lazy(cg.cdg_chain(11), 0.5),
}


@pytest.mark.parametrize("name", sorted(TWINNED_BLOCK_CHAINS))
def test_block_curve_matches_dense_curve(name):
    assert_block_curve_matches_explicit_twin(TWINNED_BLOCK_CHAINS[name]())


@st.composite
def abelian_walks(draw):
    """Circulant walks (a hold among the steps, even N included), periodic
    shifts and 2-d tori, each made lazy or not."""
    kind = draw(st.sampled_from(["circulant", "shift", "torus"]))
    if kind == "torus":
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5)))
        assume(w.sum() > 0.1)
        w /= w.sum()
        chain = cg.torus_chain(draw(st.integers(2, 7)), 2, cg.TorusProbs(w[0], w[1:3], w[3:]))
    else:
        N = draw(st.integers(2, 40))
        if kind == "shift":
            a = draw(st.integers(1, N - 1).filter(lambda a: math.gcd(a, N) == 1))
            steps = [(a, 1.0)]
        else:
            residues = draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=4, unique=True))
            w = draw(st.lists(st.floats(0.05, 1.0), min_size=len(residues), max_size=len(residues)))
            steps = [(a, p / sum(w)) for a, p in zip(residues, w)]
        chain = cg.circulant_chain(N, steps)
    return cg.lazy(chain, draw(st.sampled_from([0.0, 0.3, 0.75])))


@settings(max_examples=40, deadline=None)
@given(abelian_walks())
@example(cg.circulant_chain(3, [(1, 1.0)]))  # the shift: Delta_n = 0 at every multiple of 3
@example(cg.circulant_chain(12, [(1, 1.0)]))
@example(cg.circulant_chain(16, [(0, 0.5), (1, 0.5)]))  # a hold; the real character at N/2
@example(cg.lazy(cg.circulant_chain(10, [(1, 0.5), (-1, 0.5)]), 0.3))
@example(cg.torus_chain(6, 2, cg.up_right_probs(0.5)))
@example(cg.torus_chain(4, 2, cg.TorusProbs(0.2, (0.2, 0.2), (0.2, 0.2))))
def test_character_curve_matches_dense_curve(chain):
    want = _deviation_values(explicit_twin(chain), 60)
    got = _deviation_values(chain, 60)
    # 1e-13 absolute where the dense value is a rounded zero
    assert np.all(np.abs(got - want) <= np.maximum(1e-12 * want, 1e-13))


def test_shift_deviation_is_exact():
    # the shift on Z/3: |sum_{k<29} omega^k| = |1 + omega| = 1, so Delta_29 = 1/29
    chain = cg.circulant_chain(3, [(1, 1.0)])
    assert abs(_deviation_values(chain, 29)[-1] - 1.0 / 29.0) <= 1e-15


def per_n_block_tops(blocks, ns):
    """The block evaluator before the powers were formed a chunk at a time,
    kept as the bitwise reference: one power, one running-sum update and
    one gram per step, and the grams of one stack of n to one eigvalsh call."""
    ns = np.asarray(ns)
    best = np.full(len(ns), -np.inf)
    for K in blocks():
        diag = np.arange(K.shape[-1])
        bk = np.zeros_like(K)
        bk[:, diag, diag] = 1.0
        spare = np.empty_like(K)
        ssum = np.zeros_like(K)
        sum_of_sums = np.zeros_like(K)
        k = 0
        per = max(1, cg.tolerances.BLOCK_ENTRIES // (2 * K.size))
        stack = np.empty((min(per, len(ns)),) + K.shape)
        for first in range(0, len(ns), per):
            chunk = ns[first : first + per]
            grams = stack[: len(chunk)]
            for gram, n in zip(grams, chunk):
                while k < n - 1:
                    k += 1
                    np.matmul(bk, K, out=spare)
                    bk, spare = spare, bk
                    ssum += bk
                    sum_of_sums += ssum
                np.add(sum_of_sums, sum_of_sums.swapaxes(1, 2), out=gram)
            grams[:, :, diag, diag] += chunk[:, None, None]
            top = np.linalg.eigvalsh(grams)[..., -1].max(axis=1)
            np.maximum(best[first : first + len(chunk)], top, out=best[first : first + len(chunk)])
    return best.tolist()


REAL_BLOCK_CHAINS = {
    "cdg-201": lambda: cg.cdg_chain(201),
    "cdg-11": lambda: cg.cdg_chain(11),
    "card-5": lambda: cg.card_chain(5),
    "lazy-card-4": lambda: cg.lazy(cg.card_chain(4), 0.3),
}


@pytest.mark.parametrize("name", sorted(REAL_BLOCK_CHAINS))
@pytest.mark.parametrize("entries", [1, 1 << 10, None])
def test_chunked_block_tops_match_per_n_loop_bitwise(name, entries, monkeypatch):
    blocks = REAL_BLOCK_CHAINS[name]()._blocks
    if entries is not None:
        monkeypatch.setattr(cg.tolerances, "BLOCK_ENTRIES", entries)
    for ns in (range(1, 101), [1], [2, 8, 32], [5, 6, 40, 41, 99]):
        assert empirical._block_tops(blocks, ns) == per_n_block_tops(blocks, ns)


def per_n_top_to_delta(top, n):
    """The former one-n-at-a-time rounding of a top eigenvalue to Delta_n,
    kept as the reference."""
    top /= n * n
    if n == 1:
        top = 1.0
    elif top < cg.tolerances.DELTA_SQ_FLOOR:
        top = 0.0
    return min(np.sqrt(max(top, 0.0)), 1.0)


def test_tops_round_to_deltas_as_one_n_at_a_time():
    """Values, to the bit, and types: float64 scalars, the float 1.0 where
    the root passed 1."""
    rng = np.random.default_rng(4)
    ns = np.concatenate([[1, 1, 2, 2, 3, 3, 3, 7, 7, 400, 400], rng.integers(1, 5000, 200)])
    floor = cg.tolerances.DELTA_SQ_FLOOR
    tops = [0.7, -1e-3, 4 * floor, 4 * floor * (1 - 1e-15), -0.0, 9 * (1 + 2e-16),
            9 * (1 - 1e-16), 49.0, math.nan, 160000 * (1 + 1e-15), 1e-9]
    tops += (rng.random(200) * ns[11:] ** 2 * rng.choice([1e-14, 1e-6, 1.0], 200)).tolist()
    got = empirical._tops_to_deltas(tops, ns)
    want = [per_n_top_to_delta(t, int(n)) for t, n in zip(tops, ns)]
    assert [(type(v), float(v).hex()) for v in got] == [(type(v), float(v).hex()) for v in want]
    assert {type(v) for v in want} == {float, np.float64}


@pytest.mark.parametrize("name", sorted(BLOCK_CHAINS))
def test_block_chain_maximizers_are_the_dense_ones(name):
    chain = BLOCK_CHAINS[name]()
    ns = [1, 2, 3, 7, 8, 30]
    twin = cg.delta_curve(explicit_twin(chain), ns).entries
    for point, want in zip(cg.delta_curve(chain, ns).entries, twin):
        assert np.array_equal(point.maximizer, want.maximizer), point.n
        assert point.delta_exact == cg.delta_exact(chain, point.n)[0], point.n


@pytest.mark.parametrize("name", sorted(BLOCK_CHAINS))
def test_block_values_do_not_depend_on_the_stacks(name, monkeypatch):
    chain = BLOCK_CHAINS[name]()
    want = _deviation_values(chain, 30)
    # one block per stack and one n per eigvalsh call
    monkeypatch.setattr(cg.tolerances, "BLOCK_ENTRIES", 1)
    assert np.array_equal(_deviation_values(chain, 30), want)


@pytest.mark.parametrize("name", sorted(BLOCK_CHAINS))
def test_audit_on_a_block_chain_forms_no_dense_gram(name, monkeypatch):
    chain = BLOCK_CHAINS[name]()

    def refuse(fn):
        def call(a, *args, **kwargs):
            if np.shape(a)[-2:] == (chain.size, chain.size):
                raise AssertionError("an N x N input")
            return fn(a, *args, **kwargs)

        return call

    monkeypatch.setattr(empirical, "dsyevx", refuse(empirical.dsyevx))
    monkeypatch.setattr(empirical, "_conjugated", refuse(empirical._conjugated))
    audit = cg.delta_bounds_audit(chain, 40)
    assert audit.checks
    with pytest.raises(AssertionError, match="an N x N input"):
        cg.delta_exact(chain, 5)  # the maximizer still comes from the dense gram


def test_audit_values_equal_curve_values_on_battery(battery):
    for item in battery:
        _, tau = cg.spectral_gap(item.chain)
        if math.isfinite(tau):
            n_max = math.ceil(50.0 * tau)
            assert np.array_equal(
                _deviation_values(item.chain, n_max), _curve_values(item.chain, n_max)
            ), item.name


@settings(max_examples=25, deadline=None)
@given(stochastic_matrices(max_size=5), st.integers(2, 40), st.integers(1, 4))
def test_audit_values_equal_curve_values_across_stacks(matrix, n_max, per_stack):
    chain = cg.build_chain(matrix)
    want = _curve_values(chain, n_max)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cg.tolerances, "BLOCK_ENTRIES", per_stack * 2 * chain.size**2)
        assert np.array_equal(_deviation_values(chain, n_max), want)
        assert np.array_equal(_curve_values(chain, n_max), want)


def test_audit_values_fall_back_to_eigh_without_vectors(monkeypatch):
    # without eigenvectors dsyevx still finds no eigenvalue in the 199-fold
    # top cluster of the uniform chain on some n
    chain = KERNEL_CHAINS["uniform-200"]()
    want = _curve_values(chain, 5)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
    assert np.array_equal(_deviation_values(chain, 5), want)
    assert calls


def test_window_check_matches_a_loop_over_windows(battery):
    # the former loop over n, with its first-strict-minimum rule
    for item in battery[:30]:
        _, tau = cg.spectral_gap(item.chain)
        if not math.isfinite(tau):
            continue
        n_max = math.ceil(50.0 * tau)
        delta = _deviation_values(item.chain, n_max)
        worst_margin, worst_n, worst_lhs, worst_rhs = np.inf, 1, 0.0, 0.0
        for n in range(1, n_max // 2 + 1):
            lhs = float(delta[n - 1 : 2 * n].max())
            rhs = tau / (2.0 * n + 3.0 * tau)
            if lhs - rhs < worst_margin:
                worst_margin, worst_n, worst_lhs, worst_rhs = lhs - rhs, n, lhs, rhs
        check = [
            c
            for c in cg.delta_bounds_audit(item.chain, n_max).checks
            if c.name.startswith("avg_dev_window_lower")
        ][0]
        assert (check.name, check.lhs, check.rhs) == (
            f"avg_dev_window_lower[n={worst_n}]",
            worst_lhs,
            worst_rhs,
        ), item.name


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
    chain = cg.circulant_chain(96, [(0, 0.5), (1, 0.5)])
    value, g = cg.delta_exact(chain, 3)
    estimate, stderr = cg.delta_monte_carlo(chain, g, n=3, reps=3000, seed=5)
    assert abs(estimate - value) <= 4 * stderr


def _replicate_rng(seed, rep):
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(rep)])
    return np.random.Generator(np.random.Philox(key=key))


def row_alias(prob):
    """Walker alias table for one probability row, built on its own: the
    reference for the lockstep build of every row."""
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


def scalar_delta_monte_carlo(chain, g, n, reps, seed):
    """Reference sampler: one replicate at a time, one Python step per draw."""
    size = chain.size
    mu_cdf = np.cumsum(chain.stationary)
    tables = [row_alias(row) for row in chain.transition]
    squares = np.empty(reps)
    for rep in range(reps):
        rng = _replicate_rng(seed, rep)
        x = min(int(np.searchsorted(mu_cdf, rng.random(), side="right")), size - 1)
        acc = g[x]
        bucket = rng.integers(0, size, size=n - 1)
        coin = rng.random(n - 1)
        for i in range(n - 1):
            accept, alias = tables[x]
            b = int(bucket[i])
            x = b if coin[i] < accept[b] else int(alias[b])
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


def _alias_test_matrices():
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 8, 65, 128):
        dense = rng.random((size, size))
        sparse = (rng.random((size, size)) < 0.2) * rng.integers(1, 4, (size, size))
        for weights in (dense, sparse + np.eye(size), np.ones((size, size))):
            yield weights / weights.sum(axis=1, keepdims=True)
    for factory in MC_CHAINS.values():
        yield factory().transition


def test_alias_tables_match_row_by_row_build():
    for P in _alias_test_matrices():
        accept, alias = _alias_tables(P)
        rows = [row_alias(row) for row in P]
        assert np.array_equal(accept, np.array([a for a, _ in rows])), P.shape
        assert np.array_equal(alias, np.array([b for _, b in rows])), P.shape
        assert accept.dtype == np.float64 and alias.dtype == np.int64


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
    [("circulant-32", 65, 2100), ("circulant-96", 100, 1400)],
)
def test_lockstep_sampler_matches_scalar_walk_across_blocks(name, n, reps):
    chain = MC_CHAINS[name]()
    width = n - 1
    assert reps > 2 * (cg.tolerances.BLOCK_ENTRIES // width)  # at least three blocks
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


def _numpy_draws(k0, rep, steps, buckets):
    rng = np.random.Generator(np.random.Philox(key=np.array([k0, rep], dtype=np.uint64)))
    u0 = rng.random()
    bucket = rng.integers(0, buckets, size=steps)
    return u0, bucket, rng.random(steps)


@pytest.mark.parametrize("k0", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("buckets", [32, 65, 96, 128, 244])
def test_block_draws_equal_numpy_generator(k0, buckets, monkeypatch):
    first, count = 5, 3
    # every walk from re-keyed words, every walk from rounds, then the default
    # split, under which 80 steps re-key numpy's Philox
    for round_counters in (0, 100, empirical._ROUND_COUNTERS):
        monkeypatch.setattr(empirical, "_ROUND_COUNTERS", round_counters)
        for steps in (0, 1, 2, 7, 8, 33, 80):
            u0, bucket, coin = _replicate_draws(k0, first, count, steps, buckets)
            assert u0.dtype == coin.dtype == np.float64 and bucket.dtype == np.int64
            for j in range(count):
                ref_u0, ref_bucket, ref_coin = _numpy_draws(k0, first + j, steps, buckets)
                assert u0[j] == ref_u0
                assert np.array_equal(coin[j], ref_coin), (round_counters, steps, j)
                assert np.array_equal(bucket[j], ref_bucket), (round_counters, steps, j)


def test_block_words_equal_numpy_raw_words():
    for seed in (-1, 0, 2**64 + 3):
        for source in (_philox_words, _rekeyed_words):
            words = source(seed, 2**40, 2, 5)
            assert words.shape == (2, 20) and words.dtype == np.uint64
            for j in range(2):
                bitgen = np.random.Philox(key=_philox_key(seed, 2**40 + j))
                assert np.array_equal(words[j], bitgen.random_raw(20)), (source, seed, j)


@pytest.mark.parametrize("round_counters", [0, 100])  # re-keyed words, then rounds
def test_block_draws_redraw_a_lemire_rejection(monkeypatch, round_counters):
    monkeypatch.setattr(empirical, "_ROUND_COUNTERS", round_counters)
    # at seed 0, replicate 42130's bucket draw 77 of 244 is rejected: numpy
    # draws it again, which shifts the rest of that replicate's draws
    words = _philox_words(0, 42130, 1, 26)
    h = words[0, 1:101].astype("<u8").view("<u4").astype(np.uint64)
    product = h * np.uint64(244)
    assert np.flatnonzero((product & np.uint64(2**32 - 1)) < 2**32 % 244).tolist() == [77]
    assert (product >> np.uint64(32))[76:79].tolist() == [156, 169, 50]  # rejection skipped
    # the rejecting replicate in the middle of a block, among clean ones
    u0, bucket, coin = _replicate_draws(0, 42128, 5, 200, 244)
    assert bucket[2, 76:79].tolist() == [156, 50, 221]
    for j in range(5):
        ref_u0, ref_bucket, ref_coin = _numpy_draws(0, 42128 + j, 200, 244)
        assert u0[j] == ref_u0
        assert np.array_equal(bucket[j], ref_bucket), j
        assert np.array_equal(coin[j], ref_coin), j


def test_monte_carlo_memory_stays_blocked():
    # the mc-curve bench's alias job: 128 states, n = 32, 5000 replicates
    chain = cg.circulant_chain(128, [(0, 0.2), (1, 0.5), (17, 0.3)])
    _, g = cg.delta_exact(chain, 32)
    tracemalloc.start()
    try:
        cg.delta_monte_carlo(chain, g, 32, 5000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_monte_carlo_rejects_bad_test_function(flip):
    with pytest.raises(BadTestFunction):
        cg.delta_monte_carlo(flip, np.array([1.0, 1.0]), n=2, reps=10, seed=0)
    with pytest.raises(BadTestFunction):
        cg.delta_monte_carlo(flip, np.array([2.0, -2.0]), n=2, reps=10, seed=0)


@pytest.mark.parametrize(
    "route, message",
    [
        (lambda c: cg.delta_exact(c, 0), "n must be >= 1"),
        (lambda c: cg.delta_monte_carlo(c, np.array([1.0, -1.0]), n=0, reps=10, seed=0),
         "n must be >= 1"),
        (lambda c: cg.delta_bounds_audit(c, 0), "n_max must be >= 1"),
    ],
    ids=["exact", "monte-carlo", "bounds-audit"],
)
def test_deviation_routes_refuse_n_below_one(route, message, flip):
    with pytest.raises(ValueError, match=message):
        route(flip)


def test_delta_bounds_audit_flip(flip):
    audit = cg.delta_bounds_audit(flip, n_max=8)
    assert audit.all_pass
    names = [c.name for c in audit.checks]
    assert any(n.startswith("avg_dev_upper") for n in names)
    assert any(n.startswith("avg_dev_window_lower") for n in names)
    # tau = 1/2 < 3, so the floor bound has no qualifying n
    floor = [c for c in audit.checks if c.name.startswith("avg_dev_floor")][0]
    assert not floor.applicable
    window = cg.delta_bounds_audit(flip, n_max=1).checks[-1]
    assert window.name == "avg_dev_window_lower [skipped: n_max < 2]"
    assert not window.applicable


def test_delta_bounds_audit_slow_chain_hits_floor():
    chain = cg.circulant_chain(16, [(1, 0.5), (-1, 0.5)])  # tau ~ 13.1
    audit = cg.delta_bounds_audit(chain, n_max=30)
    floor = [c for c in audit.checks if c.name.startswith("avg_dev_floor")][0]
    assert floor.applicable
    assert audit.all_pass


def test_delta_bounds_audit_skips_infinite_tau():
    leak = 1e-12
    chain = cg.build_chain([[1 - leak, leak], [leak, 1 - leak]])
    audit = cg.delta_bounds_audit(chain, 4)
    assert [c.name for c in audit.checks] == [
        f"{name} [skipped: relaxation time infinite]"
        for name in ("avg_dev_upper", "avg_dev_floor", "avg_dev_window_lower")
    ]
    assert not any(c.applicable for c in audit.checks)
    assert audit.all_pass


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
