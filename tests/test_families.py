import math

import numpy as np
import pytest

import chaingap as cg
from chaingap.errors import InvalidSteps, TooLarge
from chaingap.families import circulant_eigenvalues, parse_prob

from conftest import structure_flags


def test_circulant_shift_matrix():
    chain = cg.circulant_chain(4, [(1, 1.0)])
    expected = np.roll(np.eye(4), 1, axis=1)
    assert np.array_equal(chain.transition, expected)
    assert chain.normal and not chain.reversible


def test_circulant_lazy_right():
    chain = cg.circulant_chain(4, [(0, 0.5), (1, 0.5)])
    assert np.allclose(chain.transition, 0.5 * np.eye(4) + 0.5 * np.roll(np.eye(4), 1, axis=1))


def test_circulant_symmetric_is_reversible():
    chain = cg.circulant_chain(5, [(1, 0.5), (4, 0.5)])
    assert chain.reversible
    assert structure_flags(chain).reversible


def test_circulant_negative_steps_reduce_mod_n():
    a = cg.circulant_chain(5, [(1, 0.5), (-1, 0.5)])
    b = cg.circulant_chain(5, [(1, 0.5), (4, 0.5)])
    assert np.array_equal(a.transition, b.transition)


def test_circulant_invalid_steps():
    with pytest.raises(InvalidSteps):
        cg.circulant_chain(4, [(1, 0.5), (5, 0.5)])  # 5 = 1 mod 4
    with pytest.raises(InvalidSteps):
        cg.circulant_chain(4, [(1, 0.7), (2, 0.7)])
    with pytest.raises(InvalidSteps):
        cg.circulant_chain(4, [])


def test_circulant_reducible_flagged():
    chain = cg.circulant_chain(4, [(2, 1.0)])
    assert not chain.irreducible
    assert math.isinf(cg.circulant_tau(4, [(2, 1.0)]))


def test_circulant_tau_anchors():
    assert cg.circulant_tau(4, [(0, 0.5), (1, 0.5)]) == pytest.approx(
        1.0 / math.sin(math.pi / 4), rel=1e-12
    )
    assert cg.circulant_tau(4, [(1, 0.5), (-1, 0.5)]) == pytest.approx(
        1.0 / (1.0 - math.cos(2 * math.pi / 4)), rel=1e-12
    )
    assert cg.circulant_tau(3, [(1, 1.0)]) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


def test_circulant_formula_matches_svd_on_random_step_sets():
    rng = np.random.default_rng(20240)
    done = 0
    while done < 50:
        N = int(rng.integers(2, 65))
        k = int(rng.integers(1, min(4, N) + 1))
        steps_a = rng.choice(N, size=k, replace=False)
        if math.gcd(int(N), *[int(a) for a in steps_a]) != 1:
            continue
        probs = rng.dirichlet(np.ones(k))
        if probs.min() <= 1e-6:
            continue
        steps = list(zip(steps_a.tolist(), (probs / probs.sum()).tolist()))
        tau_formula = cg.circulant_tau(N, steps)
        spectrum = cg.weighted_singular_spectrum(cg.circulant_chain(N, steps))
        assert spectrum.gap == pytest.approx(1.0 / tau_formula, rel=1e-9)
        done += 1


def test_torus_small_doubly_stochastic():
    chain = cg.torus_chain(2, 2, cg.up_right_probs(0.5))
    assert chain.size == 4
    assert np.allclose(chain.transition.sum(axis=0), 1.0)
    assert np.allclose(chain.stationary, 0.25)
    assert chain.normal


def test_torus_d1_reduces_to_circulant():
    probs = cg.TorusProbs(hold=0.2, plus=(0.5,), minus=(0.3,))
    torus = cg.torus_chain(5, 1, probs)
    circ = cg.circulant_chain(5, [(0, 0.2), (1, 0.5), (-1, 0.3)])
    assert np.allclose(torus.transition, circ.transition)


def test_torus_degenerate_hold_warns():
    probs = cg.TorusProbs(hold=1.0, plus=(0.0, 0.0), minus=(0.0, 0.0))
    with pytest.warns(UserWarning):
        chain = cg.torus_chain(3, 2, probs)
    assert not chain.irreducible


def test_torus_too_large():
    with pytest.raises(TooLarge):
        cg.torus_chain(100, 2, cg.up_right_probs(0.5))


def test_dense_constructors_share_one_cap():
    with pytest.raises(TooLarge):
        cg.circulant_chain(6001, [(1, 0.5), (-1, 0.5)])
    with pytest.raises(TooLarge):
        cg.cdg_chain(6001)


def test_torus_closed_form_examples():
    gamma, freq = cg.torus_gap_closed_form(2, 2, cg.up_right_probs(0.5))
    assert gamma == pytest.approx(1.0, abs=1e-12)
    assert freq == (0, 1)
    gamma, freq = cg.torus_gap_closed_form(4, 2, cg.up_right_probs(0.5))
    assert gamma == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)
    assert freq == (0, 1)


def test_torus_closed_form_matches_svd():
    rng = np.random.default_rng(11)
    grids = [(3, 2), (4, 2), (2, 3), (15, 1), (6, 2), (16, 2), (3, 5)]
    for N, d in grids:
        raw = rng.dirichlet(np.ones(2 * d + 1))
        probs = cg.TorusProbs(hold=float(raw[0]), plus=tuple(raw[1 : d + 1]), minus=tuple(raw[d + 1 :]))
        gamma, _ = cg.torus_gap_closed_form(N, d, probs)
        spectrum = cg.weighted_singular_spectrum(cg.torus_chain(N, d, probs))
        assert gamma == pytest.approx(spectrum.gap, rel=1e-9)


def test_cdg_row_structure():
    chain = cg.cdg_chain(5)
    row0 = chain.transition[0]
    assert row0[4] == pytest.approx(1.0 / 3.0)
    assert row0[0] == pytest.approx(1.0 / 3.0)
    assert row0[1] == pytest.approx(1.0 / 3.0)
    assert row0[2] == row0[3] == 0.0


def test_cdg_three_is_uniform():
    assert np.array_equal(cg.cdg_chain(3).transition, np.full((3, 3), 1.0 / 3.0))
    gamma, tau = cg.spectral_gap(cg.cdg_chain(3))
    assert gamma == pytest.approx(1.0, abs=1e-12)
    assert tau == pytest.approx(1.0, abs=1e-12)


def test_cdg_doubly_stochastic():
    for n in (3, 5, 9, 11, 101):
        chain = cg.cdg_chain(n)
        assert np.allclose(chain.transition.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(chain.stationary, 1.0 / n)


def test_cdg_rejects_even_or_tiny():
    with pytest.raises(ValueError):
        cg.cdg_chain(4)
    with pytest.raises(ValueError):
        cg.cdg_chain(1)


def test_card_chain_row_of_identity():
    chain = cg.card_chain(3)
    assert chain.size == 6
    decks = ["012", "021", "102", "120", "201", "210"]
    assert list(chain.labels) == decks
    row = chain.transition[0]  # identity deck 012
    assert row[decks.index("012")] == pytest.approx(1.0 / 3.0)  # hold
    assert row[decks.index("102")] == pytest.approx(1.0 / 3.0)  # swap top two
    assert row[decks.index("201")] == pytest.approx(1.0 / 3.0)  # bottom to top


def test_card_chain_doubly_stochastic_not_normal():
    for n in (3, 4):
        chain = cg.card_chain(n)
        assert np.allclose(chain.transition.sum(axis=0), 1.0)
        P = chain.transition
        assert np.abs(P @ P.T - P.T @ P).max() > 1e-6  # moves do not commute
        assert not chain.normal


def test_card_chain_relaxation_within_cubic_bound():
    gamma, tau = cg.spectral_gap(cg.card_chain(3))
    assert tau <= 41 * 27


def test_card_chain_size_limits():
    with pytest.raises(TooLarge):
        cg.card_chain(2)
    with pytest.raises(TooLarge):
        cg.card_chain(8)


def test_parse_prob():
    assert parse_prob(0.25) == 0.25
    assert parse_prob("1/2") == 0.5
    assert parse_prob("1/sqrt(2)") == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert parse_prob("sqrt(2)/2") == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)
    assert parse_prob("1 - 1/sqrt(2)") == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), rel=1e-15)
    assert parse_prob("1e-3") == pytest.approx(0.001)


def test_chain_spec_round_trip():
    spec = cg.ChainSpec.from_json(
        {"family": "circulant", "N": 8, "steps": [[0, "1/2"], [1, 0.5]]}
    )
    chain = spec.build()
    assert chain.size == 8
    assert spec.to_json()["steps"] == [[0, 0.5], [1, 0.5]]
    again = cg.ChainSpec.from_json(spec.to_json())
    assert again == spec
    assert spec.params_digest() == again.params_digest()
    assert spec.with_size(16).N == 16
    assert spec.with_size(16).params_digest() == spec.params_digest()


def test_chain_spec_torus_and_explicit():
    spec = cg.ChainSpec.from_json(
        {
            "family": "torus",
            "N": 3,
            "d": 2,
            "probs": {"hold": 0, "plus": ["1/sqrt(2)", 0], "minus": [0, "1-1/sqrt(2)"]},
        }
    )
    chain = spec.build()
    assert chain.size == 9
    gap, _ = spec.closed_form()
    assert gap == pytest.approx(cg.weighted_singular_spectrum(chain).gap, rel=1e-9)

    explicit = cg.ChainSpec.from_json({"family": "explicit", "matrix": [[0, 1], [1, 0]]})
    assert explicit.build().size == 2
    assert explicit.closed_form() is None


def test_chain_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        cg.ChainSpec.from_json({"family": "ladder", "N": 3})


def test_battery_chains_all_validate(battery):
    assert len(battery) == 3 + 4 * 6 + 2 + 2 + 2 + 20
    for item in battery:
        chain = item.chain
        assert np.abs(chain.transition.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(chain.stationary @ chain.transition - chain.stationary).max() <= 1e-10
        assert chain.irreducible
        flags = structure_flags(chain)
        assert flags.irreducible == chain.irreducible
        assert flags.reversible == chain.reversible
        assert flags.normal == chain.normal
