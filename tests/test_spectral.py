import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

import chaingap as cg
from chaingap.errors import NotNormal, NotReversible

from conftest import (
    bipartite_walk_matrix,
    birth_death_chains,
    birth_death_matrix,
    periodic_matrices,
    stochastic_matrices,
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


def test_spectral_gap_near_degenerate_flags_infinity():
    eps = 1e-12
    chain = cg.build_chain([[1 - eps, eps], [eps, 1 - eps]])
    gamma, tau = cg.spectral_gap(chain)
    assert math.isinf(tau)


def test_self_adjoint_gap_examples(shift4, uniform5):
    add = cg.reversibilize(shift4, "additive")
    # eigenvalues cos(2 pi j / 4) = {1, 0, -1, 0}
    assert cg.self_adjoint_gap(add) == pytest.approx(1.0, abs=1e-12)
    mult = cg.reversibilize(shift4, "multiplicative")
    assert cg.self_adjoint_gap(mult) == pytest.approx(0.0, abs=1e-12)
    assert cg.self_adjoint_gap(uniform5) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NotReversible):
        cg.self_adjoint_gap(shift4)


def test_normal_gap_examples(flip):
    spec = cg.normal_gap(flip)
    assert sorted(z.real for z in spec.eigenvalues) == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert spec.gap == pytest.approx(2.0, abs=1e-12)

    shift3 = cg.circulant_chain(3, [(1, 1.0)])
    spec = cg.normal_gap(shift3)
    assert spec.gap == pytest.approx(SQRT3, rel=1e-12)
    assert spec.relaxation == pytest.approx(1.0 / SQRT3, rel=1e-12)

    torus = cg.torus_chain(2, 2, cg.up_right_probs(0.5))
    assert cg.normal_gap(torus).gap == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(NotNormal):
        cg.normal_gap(cg.cdg_chain(5))


def test_eigenvalue_ordering_matches_gap(battery):
    for item in battery:
        if not item.chain.normal:
            continue
        spec = cg.normal_gap(item.chain)
        dev = np.abs(1.0 - spec.eigenvalues)
        assert np.all(np.diff(dev) >= -1e-12)
        assert spec.gap == pytest.approx(float(dev[1]), abs=1e-12)


def test_normal_and_svd_routes_agree(battery):
    for item in battery:
        if not item.chain.normal:
            continue
        gamma, _ = cg.spectral_gap(item.chain)
        svd_gamma = cg.weighted_singular_spectrum(item.chain).gap
        assert gamma == pytest.approx(svd_gamma, rel=1e-9)


def _assert_routes_agree(chain):
    """normal_eigen against weighted_svd forced on the same chain."""
    assert chain.normal
    eigen = cg.gap_spectrum(chain)
    svd = cg.gap_spectrum(replace(chain, normal=False))
    assert (eigen.method, svd.method) == ("normal_eigen", "weighted_svd")
    assert eigen.gap == pytest.approx(svd.gap, rel=1e-9)
    assert np.allclose(eigen.values, svd.values, rtol=0.0, atol=1e-9 * svd.values[-1])


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
    assert np.sum(np.isclose(np.abs(cg.normal_gap(chain).eigenvalues), 1.0)) >= 2
    _assert_routes_agree(chain)


def test_routes_agree_on_skewed_bipartite_walk():
    W = np.outer([1e3, 1.0, 3.0], [0.2, 1.0, 5.0, 0.7])
    chain = cg.build_chain(bipartite_walk_matrix(W))
    assert chain.stationary.max() / chain.stationary.min() > 100
    spectrum = cg.gap_spectrum(chain)
    assert spectrum.values[-1] == pytest.approx(2.0, abs=1e-12)  # eigenvalue -1
    _assert_routes_agree(chain)


def test_reversible_gap_via_eigenvalues(battery):
    # reversible chains are normal; the gap is min over j != 0 of |1 - lambda_j|
    for item in battery:
        if not item.chain.reversible:
            continue
        spec = cg.normal_gap(item.chain)
        gamma, _ = cg.spectral_gap(item.chain)
        assert gamma == pytest.approx(float(np.abs(1 - spec.eigenvalues)[1]), rel=1e-9)


def test_pseudo_spectral_gap_examples(flip, uniform5, shift4):
    bound = cg.pseudo_spectral_gap(uniform5, k_max=3)
    assert bound.value == pytest.approx(1.0, abs=1e-12)
    assert bound.k == 1
    assert cg.pseudo_spectral_gap(shift4, k_max=4).value == pytest.approx(0.0, abs=1e-12)
    assert cg.pseudo_spectral_gap(flip, k_max=2).value == pytest.approx(0.0, abs=1e-12)


def test_pseudo_gap_lower_bounds_gap(battery):
    for item in battery:
        gamma, _ = cg.spectral_gap(item.chain)
        bound = cg.pseudo_spectral_gap(item.chain, k_max=10)
        assert gamma >= bound.value / 2.0 - 1e-9


def test_spectrum_serializes():
    spec = cg.normal_gap(cg.circulant_chain(3, [(1, 1.0)]))
    payload = spec.to_json()
    assert payload["method"] == "normal_eigen"
    assert len(payload["eigenvalues"]) == 3
    assert payload["gap"] == pytest.approx(SQRT3, rel=1e-12)


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
