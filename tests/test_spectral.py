import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import eig, eigvalsh

import chaingap as cg
from chaingap.experiments import render_report
from chaingap.spectral import _conjugated, _reversibilized_gaps

from conftest import (
    bipartite_walk_matrix,
    birth_death_chains,
    birth_death_matrix,
    mu_adjoint,
    periodic_matrices,
    stochastic_matrices,
    structure_flags,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def test_flip_spectrum(flip):
    spec = cg.weighted_singular_spectrum(flip)
    # L is symmetric with eigenvalues {0, 2}
    assert np.allclose(spec.values, [0.0, 2.0], atol=1e-12)
    assert spec.gap == pytest.approx(2.0, abs=1e-12)
    assert spec.relaxation == pytest.approx(0.5, abs=1e-12)
    assert spec.method == "weighted_svd"


def test_uniform_spectrum_is_projection():
    for n in (2, 4, 7):
        spec = cg.weighted_singular_spectrum(cg.build_chain(np.full((n, n), 1.0 / n)))
        assert np.allclose(spec.values, [0.0] + [1.0] * (n - 1), atol=1e-12)
        assert spec.gap == pytest.approx(1.0, abs=1e-12)


def test_shift4_gap_is_sqrt2(shift4):
    # circulant eigenvalues i^j; the nearest to 1 besides 1 itself is i
    spec = cg.weighted_singular_spectrum(shift4)
    assert spec.gap == pytest.approx(abs(1 - 1j), rel=1e-12)
    assert spec.gap == pytest.approx(SQRT2, rel=1e-12)


def test_kernel_always_present(battery):
    for item in battery:
        spec = cg.weighted_singular_spectrum(item.chain)
        assert spec.values[0] <= 1e-8 * max(1.0, spec.values[-1])


def test_spectral_gap_closed_form_anchors():
    # circle-walk relaxation times with exact trigonometric values
    for n in (4, 8):
        gamma, tau = cg.spectral_gap(cg.circulant_chain(n, [(0, 0.5), (1, 0.5)]))
        assert tau == pytest.approx(1.0 / math.sin(math.pi / n), rel=1e-12)
        gamma, tau = cg.spectral_gap(cg.circulant_chain(n, [(1, 0.5), (-1, 0.5)]))
        assert tau == pytest.approx(1.0 / (1.0 - math.cos(2 * math.pi / n)), rel=1e-12)


def test_spectral_gap_refuses_one_state_chain():
    with pytest.raises(ValueError, match="spectral gap needs at least two states"):
        cg.spectral_gap(cg.build_chain([[1.0]]))


def test_spectral_gap_near_degenerate_flags_infinity():
    eps = 1e-12
    chain = cg.build_chain([[1 - eps, eps], [eps, 1 - eps]])
    gamma, tau = cg.spectral_gap(chain)
    assert math.isinf(tau)


def test_reversibilized_gaps_examples(shift4, uniform5):
    add, mult = _reversibilized_gaps(shift4)
    # (P + P*)/2 has eigenvalues cos(2 pi j / 4) = {1, 0, -1, 0}
    assert add == pytest.approx(1.0, abs=1e-12)
    # P P* is the identity
    assert mult == pytest.approx(0.0, abs=1e-12)
    # P is reversible and P P* = P^2 = P
    assert _reversibilized_gaps(uniform5) == pytest.approx((1.0, 1.0), abs=1e-12)


def _symmetrized_gap(chain):
    d = np.sqrt(chain.stationary)
    S = d[:, None] * chain.transition / d[None, :]
    return 1.0 - float(eigvalsh(0.5 * (S + S.T))[-2])


def reversibilized_reference(chain):
    """The audit's former route, kept as the reference for _reversibilized_gaps.

    Each reversibilization is built as a validated chain from the
    mu-adjoint P*, and its gap is 1 - lambda_2 of its symmetrized
    conjugate.
    """
    P, mu = chain.transition, chain.stationary
    star = mu_adjoint(P, mu)
    return tuple(
        _symmetrized_gap(cg.build_chain(M, stationary=mu)) for M in (0.5 * (P + star), P @ star)
    )


def pseudo_gap_reference(chain, k_max=10):
    """The former pseudo_spectral_gap: separate powers of P and P*, conjugated at each k."""
    P, mu = chain.transition, chain.stationary
    star = mu_adjoint(P, mu)
    d = np.sqrt(mu)
    best, best_k = -np.inf, 1
    pk = sk = np.eye(chain.size)
    for k in range(1, k_max + 1):
        pk = pk @ P
        sk = sk @ star
        S = d[:, None] * (sk @ pk) / d[None, :]
        val = (1.0 - float(eigvalsh(0.5 * (S + S.T))[-2])) / k
        if val > best:
            best, best_k = val, k
    return max(best, 0.0), best_k


# Comparison gaps that vanish in exact arithmetic (a periodic chain's P P*
# and (P*)^k P^k are reducible) come out as rounding noise of a few ulps;
# there the argmax k is noise too and is not compared.
_NOISE = 1e-13


def _assert_comparison_gaps_agree(chain):
    def close(value, ref):
        return abs(value - ref) <= 1e-12 * abs(ref) + _NOISE

    for value, ref in zip(_reversibilized_gaps(chain), reversibilized_reference(chain)):
        assert close(value, ref), (value, ref)
    bound = cg.pseudo_spectral_gap(chain)
    ref, ref_k = pseudo_gap_reference(chain)
    assert close(bound.value, ref), (bound.value, ref)
    if ref > _NOISE:
        assert bound.k == ref_k


def test_comparison_gaps_match_adjoint_route(battery):
    for item in battery:
        _assert_comparison_gaps_agree(item.chain)
    _assert_comparison_gaps_agree(cg.cdg_chain(101))
    _assert_comparison_gaps_agree(cg.card_chain(4))


@settings(max_examples=25, deadline=None)
@given(birth_death_chains())
def test_comparison_gaps_match_adjoint_route_on_skewed_birth_death(case):
    _assert_comparison_gaps_agree(cg.build_chain(birth_death_matrix(*case)))


@settings(max_examples=25, deadline=None)
@given(periodic_matrices())
def test_comparison_gaps_match_adjoint_route_on_periodic_chains(matrix):
    _assert_comparison_gaps_agree(cg.build_chain(matrix))


def conjugated_eigenvalues(chain):
    """Eigenvalues of P, taken from its conjugate B = D^{1/2} P D^{-1/2}."""
    return eig(_conjugated(chain.transition, chain.stationary), right=False)


def normal_reference(chain):
    """The former normal-chain route, kept as the reference for normal chains.

    When P commutes with its mu-adjoint, the singular values of the
    generator are exactly |1 - lambda_j| over the eigenvalues of P.
    """
    return np.sort(np.abs(1.0 - conjugated_eigenvalues(chain)))


def test_normal_gap_examples(flip):
    spec = cg.weighted_singular_spectrum(flip)
    assert spec.gap == pytest.approx(2.0, abs=1e-12)

    shift3 = cg.circulant_chain(3, [(1, 1.0)])
    spec = cg.weighted_singular_spectrum(shift3)
    assert spec.gap == pytest.approx(SQRT3, rel=1e-12)
    assert spec.relaxation == pytest.approx(1.0 / SQRT3, rel=1e-12)

    torus = cg.torus_chain(2, 2, cg.up_right_probs(0.5))
    assert cg.weighted_singular_spectrum(torus).gap == pytest.approx(1.0, abs=1e-12)


def _assert_routes_agree(chain):
    """weighted_svd against the |1 - lambda_j| of a normal chain."""
    assert structure_flags(chain).normal
    svd = cg.weighted_singular_spectrum(chain)
    ref = normal_reference(chain)
    assert svd.method == "weighted_svd"
    assert svd.gap == pytest.approx(float(ref[1]), rel=1e-9)
    assert np.allclose(svd.values, ref, rtol=0.0, atol=1e-9 * svd.values[-1])


def test_normal_and_svd_routes_agree(battery):
    normal = [item.chain for item in battery if structure_flags(item.chain).normal]
    assert normal
    for chain in normal:
        _assert_routes_agree(chain)
        assert cg.spectral_gap(chain)[0] == cg.weighted_singular_spectrum(chain).gap


@settings(max_examples=40, deadline=None)
@given(birth_death_chains())
def test_routes_agree_on_skewed_birth_death(case):
    n, up = case
    _assert_routes_agree(cg.build_chain(birth_death_matrix(n, up)))


@settings(max_examples=40, deadline=None)
@given(periodic_matrices())
def test_routes_agree_on_periodic_chains(matrix):
    chain = cg.build_chain(matrix)
    assert chain.irreducible
    # period >= 2 puts a second eigenvalue on the unit circle
    assert np.sum(np.isclose(np.abs(conjugated_eigenvalues(chain)), 1.0)) >= 2
    _assert_routes_agree(chain)


def test_routes_agree_on_skewed_bipartite_walk():
    W = np.outer([1e3, 1.0, 3.0], [0.2, 1.0, 5.0, 0.7])
    chain = cg.build_chain(bipartite_walk_matrix(W))
    assert chain.stationary.max() / chain.stationary.min() > 100
    spectrum = cg.weighted_singular_spectrum(chain)
    assert spectrum.values[-1] == pytest.approx(2.0, abs=1e-12)  # eigenvalue -1
    _assert_routes_agree(chain)


def test_reversible_gap_via_eigenvalues(battery):
    # reversible chains are normal; the gap is min over j != 0 of |1 - lambda_j|
    for item in battery:
        if not item.chain.reversible:
            continue
        gamma, _ = cg.spectral_gap(item.chain)
        assert gamma == pytest.approx(float(normal_reference(item.chain)[1]), rel=1e-9)


def near_normal_chain(eta):
    """J/4 + eta u v^T with u = (1, -1, 0, 0)/sqrt2 and v = (0, 0, 1, -1)/sqrt2.

    Doubly stochastic, and its commutator with the transpose is O(eta^2),
    so for small eta it is nearly normal. I - P is the identity off
    span(u, v) and the constants, and acts on span(u, v) as
    [[1, -eta], [0, 1]], whose smaller singular value is
    sqrt(1 + eta^2/4) - eta/2: below 1, which is |1 - lambda| for every
    eigenvalue lambda != 1 of P (all are 0).
    """
    u = np.array([1.0, -1.0, 0.0, 0.0]) / SQRT2
    v = np.array([0.0, 0.0, 1.0, -1.0]) / SQRT2
    return cg.build_chain(np.full((4, 4), 0.25) + eta * np.outer(u, v))


@pytest.mark.parametrize("eta", [1e-4, 1e-5, 3e-6, 1e-6])
def test_near_normal_chain_gap_is_a_singular_value(eta):
    chain = near_normal_chain(eta)
    exact = math.sqrt(1.0 + eta**2 / 4.0) - eta / 2.0
    assert cg.weighted_singular_spectrum(chain).gap == pytest.approx(exact, rel=1e-14, abs=0)
    assert cg.spectral_gap(chain)[0] == pytest.approx(exact, rel=1e-14, abs=0)


def test_pseudo_spectral_gap_examples(flip, uniform5, shift4):
    bound = cg.pseudo_spectral_gap(uniform5, k_max=3)
    assert bound.value == pytest.approx(1.0, abs=1e-12)
    assert bound.k == 1
    assert cg.pseudo_spectral_gap(shift4, k_max=4).value == pytest.approx(0.0, abs=1e-12)
    assert cg.pseudo_spectral_gap(flip, k_max=2).value == pytest.approx(0.0, abs=1e-12)


def test_pseudo_gap_noise_is_reported_as_zero(battery):
    # a periodic chain's (P*)^k P^k keeps each cyclic class, so every
    # truncated pseudo-gap is exactly 0; rounding used to leave ~1e-16 there
    chain = cg.build_chain(bipartite_walk_matrix([[1e4, 1, 2], [0.5, 0.3, 1]]))
    periodic = [item.chain for item in battery if cg.period(item.chain) > 1]
    assert len(periodic) >= 10
    for chain in [chain] + periodic:
        bound = cg.pseudo_spectral_gap(chain)
        assert (bound.value, bound.k) == (0.0, 1)


@settings(max_examples=25, deadline=None)
@given(periodic_matrices())
def test_pseudo_gap_of_periodic_chains_is_zero(matrix):
    bound = cg.pseudo_spectral_gap(cg.build_chain(matrix))
    assert (bound.value, bound.k) == (0.0, 1)


def test_pseudo_gap_lower_bounds_gap(battery):
    for item in battery:
        gamma, _ = cg.spectral_gap(item.chain)
        bound = cg.pseudo_spectral_gap(item.chain, k_max=10)
        assert gamma >= bound.value / 2.0 - 1e-9


def test_spectrum_serializes():
    spec = cg.weighted_singular_spectrum(cg.circulant_chain(3, [(1, 1.0)]))
    payload = json.loads(render_report(spec, "json"))
    assert sorted(payload) == ["gap", "method", "mu_min", "relaxation", "values"]
    assert payload["method"] == "weighted_svd"
    assert payload["values"] == spec.values.tolist() and len(payload["values"]) == 3
    assert payload["gap"] == pytest.approx(SQRT3, rel=1e-12)
    assert payload["relaxation"] == spec.relaxation and payload["mu_min"] == spec.mu_min
    with pytest.raises(ValueError, match="SingularSpectrum reports are json only"):
        render_report(spec, "csv")


def test_singular_values_invariant_under_relabeling(battery):
    rng = np.random.default_rng(31)
    for item in battery[:10]:
        n = item.chain.size
        perm = rng.permutation(n)
        relabeled = cg.build_chain(item.chain.transition[np.ix_(perm, perm)])
        a = cg.weighted_singular_spectrum(item.chain).values
        b = cg.weighted_singular_spectrum(relabeled).values
        assert np.abs(a - b).max() <= 1e-10


@settings(max_examples=25, deadline=None)
@given(stochastic_matrices())
def test_random_chain_spectrum_properties(matrix):
    chain = cg.build_chain(matrix)
    spec = cg.weighted_singular_spectrum(chain)
    assert np.all(np.diff(spec.values) >= 0)
    assert spec.values[0] <= 1e-8 * max(1.0, spec.values[-1])
    assert spec.gap >= 0
    if math.isfinite(spec.relaxation):
        assert spec.relaxation * spec.gap == pytest.approx(1.0, rel=1e-12)
