import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh

import chaingap as cg
from chaingap.chains import _gth
from chaingap.spectral import _conjugated, _reversibilized_gaps
from chaingap.errors import ChainError, NotIrreducible, NotStochastic

from conftest import (
    birth_death_chains,
    birth_death_law,
    birth_death_matrix,
    mu_adjoint,
    periodic_matrices,
    stochastic_matrices,
    structure_flags,
)


def test_flip_chain_basics(flip):
    assert np.allclose(flip.stationary, [0.5, 0.5])
    assert flip.irreducible and flip.reversible


def test_stationary_by_linear_solve_oracle():
    # independent oracle: solve mu P = mu, sum mu = 1 as a least-squares system
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    A = np.vstack([P.T - np.eye(2), np.ones((1, 2))])
    b = np.array([0.0, 0.0, 1.0])
    mu_oracle, *_ = np.linalg.lstsq(A, b, rcond=None)
    chain = cg.build_chain(P)
    assert np.allclose(chain.stationary, mu_oracle, atol=1e-12)
    assert np.allclose(chain.stationary, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_identity_is_reducible_with_multiple_invariant_measures():
    chain = cg.build_chain([[1.0, 0.0], [0.0, 1.0]])
    assert not chain.irreducible
    assert not chain.unique_stationary
    with pytest.raises(cg.errors.MultipleInvariantMeasures):
        cg.weighted_singular_spectrum(chain)


def test_reducible_chain_with_unique_stationary():
    chain = cg.build_chain([[1.0, 0.0], [0.5, 0.5]])
    assert not chain.irreducible
    assert chain.unique_stationary
    assert np.allclose(chain.stationary, [1.0, 0.0])
    with pytest.raises(NotIrreducible):
        cg.weighted_singular_spectrum(chain)


def _scalar_gth(P):
    """Reference GTH, one state at a time with no blocking."""
    A = np.array(P, dtype=float)
    n = len(A)
    for k in range(n - 1, 0, -1):
        A[:k, k] /= A[k, :k].sum()
        A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ A[:k, k]
    return pi / pi.sum()


@pytest.mark.parametrize("n", [2, 5, 64, 65, 66, 130, 200])
def test_blocked_gth_matches_scalar_gth(n):
    rng = np.random.default_rng(n)
    P = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.3)
    P[np.arange(n), (np.arange(n) + 1) % n] += 0.5  # a cycle keeps it irreducible
    P /= P.sum(axis=1, keepdims=True)
    got, want = _gth(P), _scalar_gth(P)
    if n <= 65:  # one block: the same operations in the same order
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(birth_death_chains())
def test_skewed_stationary_law_is_relatively_accurate(case):
    n, up = case
    chain = cg.build_chain(birth_death_matrix(n, up))
    want = birth_death_law(n, up)
    assert chain.irreducible and chain.unique_stationary
    assert np.max(np.abs(chain.stationary - want) / want) <= 1e-12


@pytest.mark.parametrize("n", [20, 200])
def test_drift_nine_tenths_is_accepted(n):
    # mu_min is 9^-(n-1): 6.6e-19 at 20 states, far below an absolute 1e-16 error
    chain = cg.build_chain(birth_death_matrix(n, 0.9))
    want = birth_death_law(n, 0.9)
    assert np.max(np.abs(chain.stationary - want) / want) <= 1e-12
    gamma, _ = cg.spectral_gap(chain)
    assert gamma == pytest.approx(0.4, abs=0.01)


def test_subnormal_mu_reversible_chain_is_normal():
    # mu_min is 1.4e-317: too coarse for the commutator test, but detailed
    # balance alone makes the chain self-adjoint in the mu inner product,
    # so its conjugate B is symmetric and the gap is 1 - lambda_2 of B
    chain = cg.build_chain(birth_death_matrix(333, 0.9))
    assert chain.stationary.min() < np.finfo(float).tiny
    assert chain.reversible
    assert structure_flags(chain).normal
    B = _conjugated(chain.transition, chain.stationary)
    B = 0.5 * (B + B.T)  # symmetric up to rounding; make it exactly so
    spectrum = cg.weighted_singular_spectrum(chain)
    assert spectrum.method == "weighted_svd"
    assert spectrum.gap == pytest.approx(1.0 - eigvalsh(B)[-2], rel=1e-12)


def test_one_way_cycle_at_low_mass_is_not_reversible():
    # a 3-cycle among the lightest states of a drift-0.9 walk: its edge
    # measures (~1e-36) are far below any absolute detailed-balance tolerance
    P = birth_death_matrix(40, 0.9)
    P[0] = 0.0
    P[0, 1] = 1.0
    P[1] = 0.0
    P[1, 2] = 1.0
    P[2] = 0.0
    P[2, 0] = P[2, 3] = 0.5
    chain = cg.build_chain(P)
    assert chain.stationary.min() < 1e-30
    assert not chain.reversible
    assert not structure_flags(chain).reversible
    assert cg.weighted_singular_spectrum(chain).method == "weighted_svd"


def test_drift_nine_tenths_underflow_is_refused():
    # 9^-399 is below the double range: a typed refusal, never a NaN mu
    with pytest.raises(ChainError, match="zero stationary mass"):
        cg.build_chain(birth_death_matrix(400, 0.9))


def test_near_reducible_chain_is_irreducible():
    # two uniform 3-blocks coupled by 1e-15: one class, so mu is unique
    P = np.zeros((6, 6))
    P[:3, :3] = P[3:, 3:] = 1.0 / 3.0
    P[2, 2] -= 1e-15
    P[2, 3] = 1e-15
    P[5, 5] -= 1e-15
    P[5, 0] = 1e-15
    chain = cg.build_chain(P)
    assert chain.irreducible and chain.unique_stationary
    assert np.all(chain.stationary > 0)
    assert cg.spectral_gap(chain)[1] == np.inf


def test_two_absorbing_states_mix_uniformly():
    chain = cg.build_chain([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]])
    assert not chain.irreducible
    assert not chain.unique_stationary
    assert np.array_equal(chain.stationary, [0.5, 0.5, 0.0])


def test_transient_state_flags_agree_on_both_mu_routes():
    # one closed class {0, 1} and a transient state 2: reducible, mu unique
    P = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
    solved = cg.build_chain(P)
    given = cg.build_chain(P, stationary=solved.stationary)
    assert np.array_equal(solved.stationary, [0.5, 0.5, 0.0])
    for chain in (solved, given):
        assert not chain.irreducible
        assert chain.unique_stationary
        with pytest.raises(NotIrreducible):
            cg.weighted_singular_spectrum(chain)


def test_reversible_is_computed_not_stored(flip):
    assert "reversible" not in {f.name for f in dataclasses.fields(flip)}
    assert "reversible" not in repr(flip)


def test_not_stochastic_rejected():
    with pytest.raises(NotStochastic):
        cg.build_chain([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(NotStochastic):
        cg.build_chain([[1.1, -0.1], [0.5, 0.5]])


def time_reversal(chain):
    return mu_adjoint(chain.transition, chain.stationary)


def test_adjoint_of_shift_is_reverse_shift(shift4):
    rev = time_reversal(shift4)
    expected = cg.circulant_chain(4, [(-1, 1.0)])
    assert np.allclose(rev, expected.transition)


def test_adjoint_formula_entrywise():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    chain = cg.build_chain(P)
    mu = chain.stationary
    expected = np.array(
        [[mu[y] * P[y, x] / mu[x] for y in range(2)] for x in range(2)]
    )
    star = time_reversal(chain)
    assert np.allclose(star, expected, atol=1e-14)
    # this chain satisfies detailed balance, so P* = P
    assert np.allclose(star, P, atol=1e-12)


def test_adjoint_of_reversible_is_identity_map(uniform5):
    star = time_reversal(uniform5)
    assert np.allclose(star, uniform5.transition, atol=1e-14)


def test_reversibilize_shift4(shift4):
    add, mult = _reversibilized_gaps(shift4)
    # (P + P*)/2 is the symmetric walk, whose eigenvalues are real and <= 1
    sym = cg.circulant_chain(4, [(1, 0.5), (-1, 0.5)])
    assert add == pytest.approx(cg.spectral_gap(sym)[0], abs=1e-12)
    # P P* is the identity, a reducible chain with gap 0
    assert mult == pytest.approx(0.0, abs=1e-12)


def test_reversibilize_additive_of_lazy_right_walk():
    chain = cg.circulant_chain(6, [(0, 0.5), (1, 0.5)])
    add, _ = _reversibilized_gaps(chain)
    expected = cg.circulant_chain(6, [(0, 0.5), (1, 0.25), (-1, 0.25)])
    assert add == pytest.approx(cg.spectral_gap(expected)[0], rel=1e-12)
    assert add == pytest.approx(0.25, rel=1e-12)


def test_lazy_examples(flip):
    half = cg.lazy(flip, 0.5)
    assert np.allclose(half.transition, [[0.5, 0.5], [0.5, 0.5]])
    assert cg.lazy(flip, 0.0) is flip
    with pytest.raises(ValueError):
        cg.lazy(flip, 1.0)


def test_structure_flags_examples():
    shift5 = cg.circulant_chain(5, [(1, 1.0)])
    flags = structure_flags(shift5)
    assert flags.normal and not flags.reversible

    cdg5 = cg.cdg_chain(5)
    flags = structure_flags(cdg5)
    assert not flags.normal and not flags.reversible
    # independent commutator check with the transpose (mu is uniform)
    P = cdg5.transition
    assert np.abs(P @ P.T - P.T @ P).max() > 1e-3

    lazy_cdg = cg.lazy(cdg5, 0.5)
    assert structure_flags(lazy_cdg).laziness >= 0.5


def test_transition_arrays_are_immutable(flip):
    with pytest.raises(ValueError):
        flip.transition[0, 0] = 0.3
    with pytest.raises(ValueError):
        flip.stationary[0] = 0.9


def test_distribution_validation():
    P = np.array([[0.25, 0.75], [0.25, 0.75]])
    with pytest.raises(ValueError):
        cg.build_chain(P, stationary=np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        cg.build_chain(P, stationary=np.array([-0.1, 1.1]))
    chain = cg.build_chain(P, stationary=np.array([0.25, 0.75]))
    assert chain.stationary.sum() == 1.0


@settings(max_examples=40, deadline=None)
@given(stochastic_matrices())
def test_build_chain_invariants(matrix):
    chain = cg.build_chain(matrix)
    assert np.abs(chain.transition.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(chain.stationary @ chain.transition - chain.stationary).max() <= 1e-10
    assert chain.irreducible
    assert chain.stationary.min() > 0


def _mu_inner(f, g, mu):
    return float(f * g @ mu)


def _mu_norm(f, mu):
    return math.sqrt(_mu_inner(f, f, mu))


@settings(max_examples=25, deadline=None)
@given(stochastic_matrices())
def test_adjoint_inner_product_identity(matrix):
    chain = cg.build_chain(matrix)
    star = time_reversal(chain)
    mu = chain.stationary
    rng = np.random.default_rng(7)
    for _ in range(100):
        f = rng.normal(size=chain.size)
        g = rng.normal(size=chain.size)
        lhs = _mu_inner(chain.transition @ f, g, mu)
        rhs = _mu_inner(f, star @ g, mu)
        bound = 1e-10 * _mu_norm(f, mu) * _mu_norm(g, mu)
        assert abs(lhs - rhs) <= bound


@settings(max_examples=25, deadline=None)
@given(stochastic_matrices())
def test_adjoint_involution(matrix):
    chain = cg.build_chain(matrix)
    back = mu_adjoint(time_reversal(chain), chain.stationary)
    assert np.abs(back - chain.transition).max() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(stochastic_matrices())
def test_reversibilizations_are_reversible(matrix):
    chain = cg.build_chain(matrix)
    P, mu = chain.transition, chain.stationary
    star = time_reversal(chain)
    B = _conjugated(P, mu)
    # (P + P*)/2 and P P* keep mu and satisfy detailed balance, and they
    # conjugate to the symmetric (B + B^T)/2 and B B^T that the audit uses
    for M, S in ((0.5 * (P + star), 0.5 * (B + B.T)), (P @ star, B @ B.T)):
        result = cg.build_chain(M, stationary=mu)
        assert structure_flags(result).reversible
        assert np.abs(mu @ M - mu).max() <= 1e-12
        assert np.abs(_conjugated(M, mu) - S).max() <= 1e-12


@settings(max_examples=15, deadline=None)
@given(stochastic_matrices(max_size=5))
def test_lazy_gap_scaling(matrix):
    chain = cg.build_chain(matrix)
    gamma, _ = cg.spectral_gap(chain)
    for theta in (0.25, 0.5, 0.9):
        scaled, _ = cg.spectral_gap(cg.lazy(chain, theta))
        assert abs(scaled - (1 - theta) * gamma) <= 1e-9 * max(gamma, 1e-30)


@settings(max_examples=15, deadline=None)
@given(stochastic_matrices(max_size=5), st.randoms(use_true_random=False))
def test_permutation_invariance(matrix, rnd):
    n = len(matrix)
    perm = list(range(n))
    rnd.shuffle(perm)
    perm = np.array(perm)
    chain = cg.build_chain(matrix)
    relabeled = cg.build_chain(matrix[np.ix_(perm, perm)])
    assert np.abs(relabeled.stationary - chain.stationary[perm]).max() <= 1e-10
    g1, t1 = cg.spectral_gap(chain)
    g2, t2 = cg.spectral_gap(relabeled)
    assert abs(g1 - g2) <= 1e-10
    assert abs(t1 - t2) <= 1e-10 * max(t1, 1.0)
    x1 = cg.cheeger_exact(chain).xi
    x2 = cg.cheeger_exact(relabeled).xi
    assert abs(x1 - x2) <= 1e-10


def test_period():
    assert cg.period(cg.circulant_chain(4, [(1, 1.0)])) == 4
    assert cg.period(cg.circulant_chain(4, [(1, 0.5), (-1, 0.5)])) == 2
    assert cg.period(cg.circulant_chain(3, [(1, 0.5), (-1, 0.5)])) == 1
    assert cg.period(cg.cdg_chain(5)) == 1


def boolean_power_period(P):
    """The reference period: the gcd of the n <= N at which P^n has a
    positive diagonal entry. Every simple cycle has at most N edges, so
    these n already give the gcd of all cycle lengths."""
    adj = (np.asarray(P) > 0).astype(np.int64)
    reach = adj.copy()
    g = 0
    for n in range(1, len(adj) + 1):
        if reach.diagonal().any():
            g = math.gcd(g, n)
        reach = ((reach @ adj) > 0).astype(np.int64)
    return g


@st.composite
def sparse_irreducible_matrices(draw, max_size=12):
    """A Hamiltonian cycle through a drawn state order plus up to n extra
    edges: irreducible, and periodic whenever the extra edges allow it."""
    n = draw(st.integers(2, max_size))
    order = draw(st.permutations(range(n)))
    state = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(state, state), max_size=n))
    P = np.zeros((n, n))
    P[order, np.roll(order, -1)] = 1.0
    for x, y in extra:
        P[x, y] += 0.5
    return P / P.sum(axis=1, keepdims=True)


@settings(max_examples=80, deadline=None)
@given(sparse_irreducible_matrices())
def test_period_matches_boolean_powers_on_sparse_chains(P):
    assert cg.period(cg.build_chain(P)) == boolean_power_period(P)


@settings(max_examples=30, deadline=None)
@given(periodic_matrices())
def test_period_matches_boolean_powers_on_periodic_chains(P):
    assert cg.period(cg.build_chain(P)) == boolean_power_period(P)


@pytest.mark.parametrize(
    "chain",
    [
        cg.circulant_chain(12, [(3, 0.5), (7, 0.5)]),
        cg.circulant_chain(30, [(1, 0.5), (-1, 0.5)]),
        cg.circulant_chain(37, [(1, 1.0)]),
        cg.circulant_chain(24, [(5, 0.4), (9, 0.6)]),
        cg.torus_chain(6, 2, cg.up_right_probs(0.5)),
        cg.torus_chain(5, 2, cg.TorusProbs(0.0, (0.25, 0.25), (0.25, 0.25))),
        cg.torus_chain(6, 2, cg.TorusProbs(0.0, (0.25, 0.25), (0.25, 0.25))),
        cg.cdg_chain(15),
    ],
    ids=lambda chain: f"{chain.size}-states",
)
def test_period_matches_boolean_powers_on_group_walks(chain):
    assert cg.period(chain) == boolean_power_period(chain.transition)
