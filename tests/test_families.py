import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaingap as cg
from chaingap import families
from chaingap.errors import InvalidSteps, TooLarge
from chaingap.families import parse_prob

from conftest import OVERSIZE_SPECS, structure_flags


def test_circulant_shift_matrix():
    chain = cg.circulant_chain(4, [(1, 1.0)])
    expected = np.roll(np.eye(4), 1, axis=1)
    assert np.array_equal(chain.transition, expected)
    assert structure_flags(chain).normal and not chain.reversible


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


def _circulant_tau(N, steps):
    return cg.ChainSpec("circulant", N, steps=tuple(steps)).closed_form()[1]


def _torus_gap(N, d, probs):
    return cg.ChainSpec("torus", N, d, probs=probs).closed_form()[0]


# Step sets whose phases m * a run far past N: before the phase was
# reduced mod N, their gaps were off by up to 1e-11 relative.
PHASE_CHAINS = [
    (340, ((170, 0.96), (271, 0.04))),
    (558, ((43, 0.25), (113, 0.125), (314, 0.625))),
    (590, ((211, 0.035), (516, 0.965))),
    (591, ((85, 0.015), (289, 0.645), (454, 0.34))),
]


def mpmath_circulant_gap(mpmath, N, steps):
    """min over m != 0 of |1 - lambda_m|, summed in 40 digits."""
    with mpmath.workdps(40):
        lams = (
            mpmath.fsum(mpmath.mpf(p) * mpmath.expjpi(mpmath.mpf(2 * (m * a % N)) / N)
                        for a, p in steps)
            for m in range(1, N)
        )
        return min(abs(1 - lam) for lam in lams)


@pytest.mark.parametrize("N, steps", PHASE_CHAINS, ids=[str(n) for n, _ in PHASE_CHAINS])
def test_circulant_gap_matches_mpmath(N, steps):
    mpmath = pytest.importorskip("mpmath")
    want = mpmath_circulant_gap(mpmath, N, steps)
    got = cg.ChainSpec("circulant", N, steps=steps).closed_form()[0]
    assert float(abs(got - want) / want) <= 1e-13


def test_circulant_reducible_flagged():
    chain = cg.circulant_chain(4, [(2, 1.0)])
    assert not chain.irreducible
    assert math.isinf(_circulant_tau(4, [(2, 1.0)]))


def test_circulant_tau_anchors():
    assert _circulant_tau(4, [(0, 0.5), (1, 0.5)]) == pytest.approx(
        1.0 / math.sin(math.pi / 4), rel=1e-12
    )
    assert _circulant_tau(4, [(1, 0.5), (-1, 0.5)]) == pytest.approx(
        1.0 / (1.0 - math.cos(2 * math.pi / 4)), rel=1e-12
    )
    assert _circulant_tau(3, [(1, 1.0)]) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-12)


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
        tau_formula = _circulant_tau(N, steps)
        spectrum = cg.weighted_singular_spectrum(cg.circulant_chain(N, steps))
        assert spectrum.gap == pytest.approx(1.0 / tau_formula, rel=1e-9)
        done += 1


def test_torus_small_doubly_stochastic():
    chain = cg.torus_chain(2, 2, cg.up_right_probs(0.5))
    assert chain.size == 4
    assert np.allclose(chain.transition.sum(axis=0), 1.0)
    assert np.allclose(chain.stationary, 0.25)
    assert structure_flags(chain).normal


def test_torus_d1_reduces_to_circulant():
    probs = cg.TorusProbs(hold=0.2, plus=(0.5,), minus=(0.3,))
    torus = cg.torus_chain(5, 1, probs)
    circ = cg.circulant_chain(5, [(0, 0.2), (1, 0.5), (-1, 0.3)])
    assert np.allclose(torus.transition, circ.transition)


def test_torus_degenerate_hold_is_reducible():
    probs = cg.TorusProbs(hold=1.0, plus=(0.0, 0.0), minus=(0.0, 0.0))
    chain = cg.torus_chain(3, 2, probs)
    assert not chain.irreducible and not chain.unique_stationary


def test_torus_too_large():
    with pytest.raises(TooLarge):
        cg.torus_chain(100, 2, cg.up_right_probs(0.5))


def test_dense_constructors_share_one_cap():
    with pytest.raises(TooLarge):
        cg.circulant_chain(6001, [(1, 0.5), (-1, 0.5)])
    with pytest.raises(TooLarge):
        cg.cdg_chain(6001)


def test_torus_closed_form_examples():
    gamma = _torus_gap(2, 2, cg.up_right_probs(0.5))
    assert gamma == pytest.approx(1.0, abs=1e-12)
    gamma = _torus_gap(4, 2, cg.up_right_probs(0.5))
    assert gamma == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)


def test_torus_closed_form_matches_svd():
    rng = np.random.default_rng(11)
    grids = [(3, 2), (4, 2), (2, 3), (15, 1), (6, 2), (16, 2), (3, 5)]
    for N, d in grids:
        raw = rng.dirichlet(np.ones(2 * d + 1))
        probs = cg.TorusProbs(hold=float(raw[0]), plus=tuple(raw[1 : d + 1]), minus=tuple(raw[d + 1 :]))
        gamma = _torus_gap(N, d, probs)
        spectrum = cg.weighted_singular_spectrum(cg.torus_chain(N, d, probs))
        assert gamma == pytest.approx(spectrum.gap, rel=1e-9)


def test_circulant_scan_refuses_nan_probability():
    template = cg.ChainSpec("circulant", 8, steps=((0, math.nan), (1, 0.5)))
    with pytest.raises(InvalidSteps):
        cg.scan(template, [8])


def test_torus_spec_refuses_nan_hold():
    text = '{"family": "torus", "N": 4, "d": 1,'
    text += ' "probs": {"hold": NaN, "plus": [0.5], "minus": [0.5]}}'  # json accepts NaN
    with pytest.raises(ValueError):
        cg.ChainSpec.from_json(json.loads(text))


def test_torus_spec_refuses_axis_count_mismatch():
    spec = cg.ChainSpec.from_json(
        {"family": "torus", "N": 3, "d": 3, "probs": {"plus": [0.5, 0.5], "minus": [0, 0]}}
    )
    with pytest.raises(ValueError):
        spec.closed_form()
    with pytest.raises(ValueError):
        spec.build()


def reference_transition(spec):
    """The explicit loops the circulant and torus constructors once ran."""
    N = spec.N
    if spec.family == "circulant":
        P = np.zeros((N, N))
        x = np.arange(N)
        for a, p in sorted((int(a) % N, float(p)) for a, p in spec.steps):
            P[x, (x + a) % N] = p
        return P
    d, probs = spec.d, spec.probs
    states = N**d
    P = np.zeros((states, states))
    idx = np.arange(states)
    coords = np.stack(np.unravel_index(idx, (N,) * d))
    if probs.hold > 0:
        P[idx, idx] += probs.hold
    for axis in range(d):
        for sign, p in ((1, probs.plus[axis]), (-1, probs.minus[axis])):
            if p == 0:
                continue
            shifted = coords.copy()
            shifted[axis] = (shifted[axis] + sign) % N
            P[idx, np.ravel_multi_index(tuple(shifted), (N,) * d)] += p
    return P


@st.composite
def abelian_specs(draw):
    """Circulant and torus specs with N^d <= 400, N = 2 among the sizes.

    Laws are small integer weights normalized, so zero entries (trapped or
    one-sided walks) are common and equal weights give equal floats.
    """
    circulant = draw(st.booleans())
    d = 1 if circulant else draw(st.integers(1, 3))
    N = draw(st.integers(2, int(400 ** (1 / d) + 1e-9)))
    if circulant:
        k = draw(st.integers(1, min(4, N)))
        residues = draw(
            st.lists(st.integers(-N, 2 * N), min_size=k, max_size=k, unique_by=lambda a: a % N)
        )
        weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        steps = tuple((a, w / sum(weights)) for a, w in zip(residues, weights) if w)
        return cg.ChainSpec("circulant", N, steps=steps)
    w = draw(st.lists(st.integers(0, 3), min_size=2 * d + 1, max_size=2 * d + 1).filter(any))
    total = sum(w)
    probs = cg.TorusProbs(
        w[0] / total, tuple(x / total for x in w[1 : d + 1]), tuple(x / total for x in w[d + 1 :])
    )
    return cg.ChainSpec("torus", N, d, probs=probs)


@settings(max_examples=60, deadline=None)
@given(abelian_specs())
def test_abelian_route_matches_dense_and_reference(spec):
    chain = spec.build()
    assert np.array_equal(chain.transition, reference_transition(spec))
    flags = structure_flags(chain)
    assert (chain.irreducible, chain.reversible) == (flags.irreducible, flags.reversible)
    gap, tau = spec.closed_form()
    if flags.irreducible:
        assert gap == pytest.approx(cg.weighted_singular_spectrum(chain).gap, rel=1e-9)
    else:
        assert math.isinf(tau)


def reference_character_gap(spec):
    """(gap, tau) by the per-step np.exp route that _character_gap once took."""
    N = spec.N
    if spec.family == "circulant":
        axes, hold = [sorted((int(a) % N, float(p)) for a, p in spec.steps)], 0.0
    else:
        axes = [[(1, p), (-1, q)] for p, q in zip(spec.probs.plus, spec.probs.minus)]
        hold = spec.probs.hold
    m = np.arange(N)
    terms = []
    for steps in axes:
        t = np.zeros(N, dtype=complex)
        for a, p in steps:
            t += p * np.exp(2j * np.pi * ((m * a) % N) / N)
        terms.append(t)
    tail = np.zeros(1, dtype=complex)
    for t in terms[1:]:
        tail = np.add.outer(tail, t).ravel()
    lam = hold + terms[0][: N // 2 + 1, None] + tail[None, :]
    vals = np.abs(1.0 - lam)
    sigma_max = float(vals.max())
    vals[0, 0] = np.inf  # the trivial character m = 0
    gap = float(vals.min())
    return gap, cg.relaxation_time(gap, sigma_max)


@settings(max_examples=80, deadline=None)
@given(abelian_specs(), st.integers(1, 3))
def test_character_gap_matches_per_step_exp_route_bitwise(spec, rows):
    # one roots table and blocked reductions give every lambda_m the same bits
    expected = reference_character_gap(spec)
    assert spec.closed_form() == expected
    width = spec.N ** ((spec.d or 1) - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cg.tolerances, "BLOCK_ENTRIES", rows * width)
        assert spec.closed_form() == expected


def test_torus_closed_form_reduces_in_small_blocks():
    # 2049 x 4096 frequencies: one 2^22-entry temporary was 128 MiB
    spec = cg.ChainSpec("torus", 4096, 2, probs=cg.up_right_probs(0.5))
    tracemalloc.start()
    try:
        gap, tau = spec.closed_form()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert 0 < gap and tau == 1.0 / gap

def step_law(spec):
    """{(axis, a mod N): probability} of a circulant or torus spec's positive steps."""
    N = spec.N
    if spec.family == "circulant":
        axes = [spec.steps]
    else:
        axes = [[(1, p), (-1, m)] for p, m in zip(spec.probs.plus, spec.probs.minus)]
    law = {}
    for axis, steps in enumerate(axes):
        for a, p in steps:
            if p > 0:
                law[axis, a % N] = law.get((axis, a % N), 0.0) + p
    return law


@settings(max_examples=60, deadline=None)
@given(abelian_specs())
def test_abelian_flags_match_step_law_rules(spec):
    # the rules the constructors once asserted: irreducible when each axis's
    # steps have gcd 1 with N, reversible when the law is symmetric under negation
    chain = spec.build()
    law = step_law(spec)
    axes = 1 if spec.family == "circulant" else spec.d
    gcd_rule = all(
        math.gcd(spec.N, *(a for j, a in law if j == axis)) == 1 for axis in range(axes)
    )
    symmetric = all(law.get((j, -a % spec.N), 0.0) == p for (j, a), p in law.items())
    assert chain.irreducible == gcd_rule
    assert chain.reversible == symmetric


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
    for N in (4, 1, -3):
        with pytest.raises(ValueError, match="odd and >= 3"):
            cg.ChainSpec("cdg", N).closed_form()


def test_cdg_closed_form_matches_dense_svd(monkeypatch):
    # the orbit blocks against the dense N x N SVD: gap and sigma_max, which the
    # closed form hands to relaxation_time
    from chaingap import families

    seen = []

    def recording(gap, sigma_max):
        seen.append(sigma_max)
        return cg.relaxation_time(gap, sigma_max)

    monkeypatch.setattr(families, "relaxation_time", recording)
    sizes = list(range(3, 200, 2)) + [225, 243, 255, 315, 729, 401, 809]
    for N in sizes:
        gap, tau = cg.ChainSpec("cdg", N).closed_form()
        dense = cg.weighted_singular_spectrum(cg.cdg_chain(N))
        assert gap == pytest.approx(dense.gap, rel=1e-13, abs=0), N
        assert seen[-1] == pytest.approx(dense.values[-1], rel=1e-13, abs=0), N
        assert tau == pytest.approx(dense.relaxation, rel=1e-13, abs=0), N
    assert len(seen) == len(sizes)


def test_cdg_closed_form_refuses_long_orbits(monkeypatch):
    # ord_6011(2) = 6010 > DENSE_LIMIT: refused before any array is made
    from chaingap import families

    def no_arrays(*args, **kwargs):
        raise AssertionError("allocated before refusing")

    monkeypatch.setattr(families.np, "arange", no_arrays)
    with pytest.raises(TooLarge):
        cg.ChainSpec("cdg", 6011).closed_form()


def test_cdg_closed_form_batches_small_blocks():
    # ord_131071(2) = 17: 3855 orbits of 17 x 17 blocks, sent to the SVD in
    # batches of at most 2^16 entries
    tracemalloc.start()
    try:
        gap, tau = families._doubling_gap(131071)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert 0 < gap and math.isfinite(tau)


def test_card_chain_row_of_identity():
    chain = cg.card_chain(3)
    assert chain.size == 6
    decks = ["012", "021", "102", "120", "201", "210"]
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
        assert not structure_flags(chain).normal


def test_card_chain_relaxation_within_cubic_bound():
    gamma, tau = cg.spectral_gap(cg.card_chain(3))
    assert tau <= 41 * 27


def test_card_chain_size_limits():
    with pytest.raises(ValueError, match="at least 3 cards"):
        cg.card_chain(2)
    with pytest.raises(TooLarge):
        cg.card_chain(8)
    # 7 is the largest deck whose N! states fit under the dense cap
    assert math.factorial(7) <= cg.tolerances.DENSE_LIMIT < math.factorial(8)


def test_card_closed_form_size_limits():
    with pytest.raises(ValueError, match="at least 3 cards"):
        families._card_gap(2)
    with pytest.raises(TooLarge, match="-entry cap"):
        families._card_gap(10**9)  # refused at 11 cards, long before 10**9!
    # 10 is the largest deck whose N! orderings fit under the closed-form cap
    cap = cg.tolerances.DENSE_LIMIT**2
    assert math.factorial(10) <= cap < math.factorial(11)


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_card_closed_form_matches_dense_svd(N):
    gap, tau = cg.ChainSpec("cardshuffle", N).closed_form()
    dense_gap, dense_tau = cg.spectral_gap(cg.card_chain(N))
    assert gap == pytest.approx(dense_gap, rel=1e-13, abs=0)
    assert tau == pytest.approx(dense_tau, rel=1e-13, abs=0)


@pytest.mark.parametrize("N", [4, 5])
def test_card_blocks_repeated_by_dimension_give_the_dense_spectrum(N):
    values = [
        v
        for _, block in families._card_blocks(N)
        for v in np.linalg.svd(block, compute_uv=False)
        for _ in range(block.shape[0])
    ]
    dense = cg.weighted_singular_spectrum(cg.card_chain(N)).values
    assert len(values) == math.factorial(N)
    assert np.abs(np.sort(values) - dense).max() <= 1e-12


@pytest.mark.parametrize("N", range(3, 9))
def test_young_orthogonal_form_is_a_representation(N):
    dims = []
    for shape, factors in families._young_orthogonal_form(N):
        assert sum(shape) == N and list(shape) == sorted(shape, reverse=True)
        d = factors[0][0].size
        dims.append(d)
        eye = np.eye(d)
        rho = [families._apply_factor(f, eye) for f in factors]
        for k, t in enumerate(rho):
            assert np.abs(t @ t - eye).max() <= 1e-13
            if k + 1 < len(rho):
                braid = np.linalg.matrix_power(t @ rho[k + 1], 3)
                assert np.abs(braid - eye).max() <= 1e-13
            for u in rho[k + 2 :]:
                assert np.abs(t @ u - u @ t).max() <= 1e-13
    assert sum(d * d for d in dims) == math.factorial(N)


@pytest.mark.parametrize("name", sorted(OVERSIZE_SPECS))
def test_closed_forms_refuse_arrays_past_the_cap_before_allocating(name):
    spec = cg.ChainSpec.from_json(OVERSIZE_SPECS[name])
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="-entry cap"):
            spec.closed_form()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_parse_prob():
    assert parse_prob(0.25) == 0.25
    assert parse_prob("1/2") == 0.5
    assert parse_prob("1/sqrt(2)") == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert parse_prob("sqrt(2)/2") == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)
    assert parse_prob("1 - 1/sqrt(2)") == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), rel=1e-15)
    assert parse_prob("1e-3") == pytest.approx(0.001)


def test_parse_prob_takes_a_fraction_under_a_root_in_the_numerator():
    root_half = math.sqrt(0.5)
    assert parse_prob("sqrt(1/2)") == root_half
    assert parse_prob("sqrt(1/2)/2") == root_half / 2.0
    assert parse_prob("1-sqrt(1/2)") == 1.0 - root_half


@pytest.mark.parametrize("value", [True, False, "1/0", "1/sqrt(0)", "sqrt(1/0)", "0/0", "1/2/4",
                                   "1-1/2/4", "sqrt(2)/2/4", "1e400", "sqrt(1e400)"])
def test_parse_prob_refuses_malformed_probabilities(value):
    with pytest.raises(ValueError):
        parse_prob(value)


@pytest.mark.parametrize("value", ["1/2/4", "sqrt(1/2)/2/3"])
def test_parse_prob_refuses_chained_division(value):
    with pytest.raises(ValueError, match="chained division"):
        parse_prob(value)


def test_parse_prob_keeps_a_fraction_under_a_root_in_the_denominator():
    assert parse_prob("1/sqrt(1/4)") == 2.0


def test_params_digest_and_json_are_pinned():
    # scan rows are keyed by params_digest, so its bytes must not move
    torus = cg.ChainSpec.from_json({"family": "torus", "N": 5, "d": 2, "probs": {
        "hold": 0, "plus": ["1/sqrt(2)", 0], "minus": [0, "1-1/sqrt(2)"]}})
    assert torus.to_json() == {"family": "torus", "N": 5, "d": 2, "probs": {
        "hold": 0.0, "plus": [0.7071067811865475, 0.0], "minus": [0.0, 0.29289321881345254]}}
    circulant = cg.ChainSpec.from_json(
        {"family": "circulant", "N": 7, "steps": [[1, "1/3"], [2, "2/3"]]})
    explicit = cg.ChainSpec.from_json({"family": "explicit", "matrix": [[0.5, 0.5], [0.5, 0.5]]})
    assert explicit.to_json() == {"family": "explicit", "matrix": [[0.5, 0.5], [0.5, 0.5]]}
    digests = [s.params_digest() for s in (torus, circulant, cg.ChainSpec("cdg", 101))]
    assert digests == ["30dfdacf68e8", "d57fefb1de53", "93b9ce937bc0"]
    assert torus.with_size(9) == cg.ChainSpec("torus", 9, d=2, probs=torus.probs)


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
