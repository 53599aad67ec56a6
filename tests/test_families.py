import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def test_explicit_matrix_parses_to_the_floats_of_each_entry():
    """Rows of ints and floats convert at once; numpy scalars take the
    per-entry route, which keeps float64 and refuses int64 and bools."""
    rng = np.random.default_rng(1)
    rows = rng.random((30, 30)).tolist()
    rows[2][7], rows[5][0] = 1, 0
    rows[9] = [np.float64(v) for v in rows[9]]
    spec = cg.ChainSpec.from_json({"family": "explicit", "matrix": rows})
    assert spec.matrix == tuple(tuple(float(v) for v in row) for row in rows)
    assert {type(v) for row in spec.matrix for v in row} == {float}
    for entry in (np.int64(1), True):
        message = re.escape(f"a matrix entry must be a number, got {entry!r}")
        with pytest.raises(ValueError, match=message):
            cg.ChainSpec.from_json({"family": "explicit", "matrix": [[0.5, 0.5], [entry, 0]]})


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


def mirrored_roots(r, N):
    """e^{2 pi i r / N} by np.exp for r <= N/2, with r = N/2 at -1, and for
    r > N/2 the conjugate of N - r: the symmetric table, root by root."""
    low = np.minimum(r, N - r)
    z = np.where(2 * low == N, -1.0, np.exp(2j * np.pi * low / N))
    return np.where(low < r, z.conj(), z)


def reference_character_gap(spec):
    """(gap, tau) by the per-step route that _character_gap once took, on the symmetric table."""
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
            t += p * mirrored_roots((m * a) % N, N)
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


@pytest.mark.parametrize("N", [2, 3, 4, 5, 499, 4096])
def test_roots_table_is_conjugate_symmetric_bitwise(N):
    table = families._roots_of_unity(N, [None])
    r = np.arange(1, N)
    assert table.size == N and table[0] == 1.0
    assert table[N - r].real.tobytes() == table[r].real.tobytes()
    mirror = r[2 * r != N]  # r = N/2 is its own mirror: -1, a zero imaginary part
    assert table[N - mirror].imag.tobytes() == (-table[mirror].imag).tobytes()
    assert N % 2 or table[N // 2] == -1.0
    # below N/2 the table is np.exp's own roots
    low = np.arange((N + 1) // 2)
    assert table[low].tobytes() == np.exp(2j * np.pi * low / N).tobytes()


def full_circle_values(N, axes, hold):
    """|1 - lambda_m| at every frequency m of (Z/NZ)^d, m_1 = 0..N-1, in row-major order."""
    roots = families._roots_of_unity(N, axes)
    a, p = axes[0]
    first = hold + families._axis_sums(roots, a, p, np.arange(N))
    lam = first[:, :, None] + families._tail_sums(roots, axes, a.shape[0])[:, None, :]
    return np.abs(1.0 - lam).reshape(a.shape[0], -1)


@settings(max_examples=80, deadline=None)
@given(abelian_specs())
@example(cg.ChainSpec("circulant", 10, steps=((1, 0.75), (5, 0.25))))  # an e^{i pi} term at m = 1
def test_half_grid_holds_the_full_grid_extremes_bitwise(spec):
    # the symmetric table makes |1 - lambda_{-m}| the bits of |1 - lambda_m|,
    # so the rows m_1 = 0..N//2 that _character_gap reads lose no value
    N, axes, hold = character_args(spec)
    vals = full_circle_values(N, axes, hold)[0]
    sigma_max = float(vals.max())
    vals[0] = np.inf  # the trivial character m = 0
    gap = float(vals.min())
    assert spec.closed_form() == (gap, cg.relaxation_time(gap, sigma_max))
    assert full_grid_character_gap(N, axes, hold) == [(gap, cg.relaxation_time(gap, sigma_max))]


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


def character_sums(N, axes, hold):
    """(first, tail): every character of a batch of walks, lambda = first[b, m_1] + tail[b, rest],
    the first axis's frequencies 0..N//2, from the closed form's roots table and axis sums;
    the full-grid reference for the rows that _row_lambdas forms."""
    roots = families._roots_of_unity(N, axes)
    a, p = axes[0]
    first = hold + families._axis_sums(roots, a, p, np.arange(N // 2 + 1))
    return first, families._tail_sums(roots, axes, a.shape[0])


def full_grid_character_gap(N, axes, hold=0.0):
    """(gap, tau) of each walk from every value of its frequency grid, as
    _character_gap computed them before it bounded the rows."""
    first, tail = character_sums(N, axes, hold)
    batch, rows = first.shape
    width = tail.shape[1]
    per_row = max(1, min(rows, cg.tolerances.BLOCK_ENTRIES // width))
    per_walk = max(1, cg.tolerances.BLOCK_ENTRIES // (rows * width)) if per_row == rows else 1
    lam = np.empty((min(per_walk, batch), per_row, width), dtype=complex)
    vals = np.empty(lam.shape)
    gap, sigma_max = np.full(batch, np.inf), np.zeros(batch)
    for b in range(0, batch, per_walk):
        walks = slice(b, b + per_walk)
        for r in range(0, rows, per_row):
            block = first[walks, r : r + per_row, None]
            walks_b, rows_b = block.shape[:2]
            lam_b, vals_b = lam[:walks_b, :rows_b], vals[:walks_b, :rows_b]
            np.add(block, tail[walks, None, :], out=lam_b)
            np.abs(np.subtract(1.0, lam_b, out=lam_b), out=vals_b)
            np.maximum(sigma_max[walks], vals_b.max(axis=(1, 2)), out=sigma_max[walks])
            if r == 0:
                vals_b[:, 0, 0] = np.inf  # the trivial character m = 0
            np.minimum(gap[walks], vals_b.min(axis=(1, 2)), out=gap[walks])
    return [(g, cg.relaxation_time(g, s)) for g, s in zip(gap.tolist(), sigma_max.tolist())]


def former_character_blocks(N, axes, hold):
    """The character stack as _character_blocks formed it from the whole grid of character_sums:
    one character of each pair {m, -m}, m when its row-major index is at most that of -m, and
    the trivial one left out."""
    first, tail = character_sums(N, [families._batch_of_one(steps) for steps in axes], hold)
    lam = first[0, :, None] + tail[0, None, :]
    rows, width = lam.shape
    negated = np.zeros(1, dtype=np.int64)
    for _ in axes[1:]:
        negated = (negated[:, None] * N + (-np.arange(N)) % N).ravel()
    index = np.arange(rows * width).reshape(rows, width)
    keep = index <= (-np.arange(rows) % N)[:, None] * width + negated
    keep[0, 0] = False
    return lam[keep].reshape(-1, 1, 1)


@settings(max_examples=80, deadline=None)
@given(abelian_specs(), st.integers(1, 3))
@example(cg.ChainSpec("torus", 5, 1, probs=cg.TorusProbs(0.25, (0.5,), (0.25,))), 1)
@example(cg.ChainSpec("torus", 4, 3, probs=cg.TorusProbs(0.3, (0.2, 0.1, 0.1), (0.1, 0.2, 0.0))), 2)
def test_character_blocks_equal_the_full_grid_sums_bitwise(spec, rows):
    # held and single-axis walks among them; the grid rows are read rows at a time too
    if spec.family == "circulant":
        axes, hold = [families._normalize_steps(spec.N, spec.steps)], 0.0
    else:
        axes, hold = families._torus_axes(spec.N, spec.d, spec.probs), spec.probs.hold
    want = former_character_blocks(spec.N, axes, hold)
    (got,) = spec.build()._blocks
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cg.tolerances, "BLOCK_ENTRIES", rows * spec.N ** (len(axes) - 1))
        (got,) = families._character_blocks(spec.N, axes, hold)
    assert got.tobytes() == want.tobytes()


def character_args(spec):
    """(N, axes, hold) as ChainSpec.closed_form passes them to _character_gap."""
    if spec.family == "circulant":
        steps = families._normalize_steps(spec.N, spec.steps)
        return spec.N, [families._batch_of_one(steps)], 0.0
    axes = families._torus_axes(spec.N, spec.d, spec.probs)
    return spec.N, [families._batch_of_one(s) for s in axes], spec.probs.hold


def assert_pruned_gap_is_full_grid_gap(N, axes, hold, rows_per_block):
    """_character_gap equals the full grid bit for bit, by default and with blocks
    of 1 entry, of rows_per_block grid rows and of one walk's whole grid."""
    expected = full_grid_character_gap(N, axes, hold)
    assert families._character_gap(N, axes, hold) == expected
    width = N ** (len(axes) - 1)
    for entries in {1, max(1, rows_per_block * width), (N // 2 + 1) * width}:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cg.tolerances, "BLOCK_ENTRIES", entries)
            assert families._character_gap(N, axes, hold) == expected


@st.composite
def tiny_weight_specs(draw):
    """Circulant and torus walks that move with weights of 1e-9 to 1e-6 and hold
    or jump otherwise, so their gaps fall near the zero floor ZERO_SV."""
    tiny = draw(st.floats(1e-9, 1e-6))
    if draw(st.booleans()):
        N = draw(st.integers(2, 400))
        big = draw(st.integers(0, N - 1))  # the heavy residue: 0 holds, N/2 flips
        small = draw(st.lists(st.integers(0, N - 1).filter(lambda a: a != big),
                              min_size=1, max_size=3, unique=True))
        steps = ((big, 1.0 - tiny * len(small)),) + tuple((a, tiny) for a in small)
        return cg.ChainSpec("circulant", N, steps=steps)
    d = draw(st.integers(1, 3))
    N = draw(st.integers(2, int(4000 ** (1 / d) + 1e-9)))
    w = draw(st.lists(st.integers(0, 2), min_size=2 * d, max_size=2 * d).filter(any))
    moves = [tiny * x for x in w]
    probs = cg.TorusProbs(1.0 - sum(moves), tuple(moves[:d]), tuple(moves[d:]))
    return cg.ChainSpec("torus", N, d, probs=probs)


@st.composite
def three_axis_tori(draw):
    N = draw(st.integers(2, 24))
    w = draw(st.lists(st.integers(0, 5), min_size=7, max_size=7).filter(any))
    total = sum(w)
    probs = cg.TorusProbs(w[0] / total, tuple(x / total for x in w[1:4]),
                          tuple(x / total for x in w[4:]))
    return cg.ChainSpec("torus", N, 3, probs=probs)


@settings(max_examples=80, deadline=None)
@given(st.one_of(abelian_specs(), tiny_weight_specs(), three_axis_tori()), st.integers(0, 3))
def test_pruned_character_gap_matches_full_grid_bitwise(spec, rows):
    assert_pruned_gap_is_full_grid_gap(*character_args(spec), rows)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 600), st.integers(1, 6), st.integers(1, 40),
       st.randoms(use_true_random=False), st.integers(0, 1))
def test_pruned_character_gap_matches_full_grid_on_ensemble_batches(N, k, batch, rand, rows):
    # one batch of circulant walks with unequal p, their steps sorted with
    # their p as _ensemble_taus sorts them
    k = min(k, N)
    p = np.array([rand.uniform(0.1, 1.0) for _ in range(k)])
    p /= p.sum()
    a = np.array([rand.sample(range(N), k) for _ in range(batch)])
    order = np.argsort(a, axis=1)
    axes = [(np.take_along_axis(a, order, axis=1), p[order])]
    assert_pruned_gap_is_full_grid_gap(N, axes, 0.0, rows * (N // 2 + 1))


def test_pruned_character_gap_matches_full_grid_on_a_whole_ensemble():
    # the README ensemble's size as one batch: 2000 walks on Z/499Z, p unequal
    rng = np.random.default_rng(11)
    a = np.array([rng.choice(499, size=2, replace=False) for _ in range(2000)])
    p = np.array([0.2, 0.8])
    order = np.argsort(a, axis=1)
    axes = [(np.take_along_axis(a, order, axis=1), p[order])]
    assert_pruned_gap_is_full_grid_gap(499, axes, 0.0, 1)


def test_pruned_character_gap_keeps_rows_tied_up_to_rounding():
    # on (Z/31Z)^2, stepping +-2^j along either axis (1/40 and 3/40 each):
    # doubling m_1 permutes the steps, so the rows m_1 = 1, 2, 4, 8, 15 have
    # one exact character sum, rounded differently; only the margin keeps
    # every row that can still hold the computed minimum
    N, steps = 31, np.array([[1, 2, 4, 8, 15, 16, 23, 27, 29, 30]])
    axes = [(steps, np.full((1, 10), 0.025)), (steps, np.full((1, 10), 0.075))]
    first, _ = character_sums(N, axes, 0.0)
    assert len(set(first[0, [1, 2, 4, 8, 15]].real.tolist())) > 1
    assert_pruned_gap_is_full_grid_gap(N, axes, 0.0, 1)


NEAR_FLOOR_WALKS = {
    # sigma_max = 2e-8 < 1: the floor is ZERO_SV and tau = 1/gap
    "hold": cg.ChainSpec("circulant", 4, steps=((0, 1.0 - 1e-8), (1, 1e-8))),
    # the flip N/2 puts sigma_max near 2, above gap / ZERO_SV: tau = inf
    "flip": cg.ChainSpec("circulant", 8, steps=((4, 1.0 - 1.06e-8), (1, 1.06e-8))),
}


@pytest.mark.parametrize("name", sorted(NEAR_FLOOR_WALKS))
def test_pruned_character_gap_matches_full_grid_between_one_and_two_floors(name):
    spec = NEAR_FLOOR_WALKS[name]
    N, axes, hold = character_args(spec)
    (gap, tau), = full_grid_character_gap(N, axes, hold)
    # sigma_max decides tau here: the gap lies in (ZERO_SV, 2 ZERO_SV]
    assert cg.relaxation_time(gap, 0.0) != cg.relaxation_time(gap, 2.0)
    assert math.isinf(tau) == (name == "flip")
    assert_pruned_gap_is_full_grid_gap(N, axes, hold, 1)
    assert spec.closed_form() == (gap, tau)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.floats(0.0, 2.0), st.floats(1e-9, 1e-7)),
       st.floats(0.0, 4.0), st.floats(0.0, 4.0))
def test_relaxation_time_is_monotone_in_sigma_max(gap, s, t):
    # _character_gap takes tau from sigma_max = 0 and an upper bound when they agree
    lo, hi = sorted((s, t))
    assert cg.relaxation_time(gap, lo) <= cg.relaxation_time(gap, hi)


def counted_character_gap(spec):
    """(closed_form(), entries): the frequencies _character_gap forms for spec."""
    formed = []
    row_values = families._row_values

    def counting(*args):
        for start, vals in row_values(*args):
            formed.append(vals.size)
            yield start, vals

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(families, "_row_values", counting)
        result = spec.closed_form()
    return result, sum(formed)


@pytest.mark.parametrize("alpha", [0.5, 1.0 / math.sqrt(2.0)], ids=["half", "irr"])
def test_torus_closed_form_forms_few_grid_rows(alpha):
    # the up/right tori of the scaling tables at N = 4096: 2049 x 4096 frequencies
    spec = cg.ChainSpec("torus", 4096, 2, probs=cg.up_right_probs(alpha))
    (gap, tau), formed = counted_character_gap(spec)
    assert (gap, tau) == full_grid_character_gap(*character_args(spec))[0]
    assert 0 < formed <= 0.05 * 2049 * 4096


def test_three_axis_torus_closed_form_stays_blocked():
    # 129 x 65,536 frequencies, one grid row per block
    spec = cg.ChainSpec("torus", 256, 3, probs=cg.TorusProbs(0.1, (0.4, 0.2, 0.1), (0.1, 0.0, 0.1)))
    tracemalloc.start()
    try:
        gap, tau = spec.closed_form()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert (gap, tau) == full_grid_character_gap(*character_args(spec))[0]
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
    # ord_131071(2) = 17: 3855 orbits of 17-state blocks, their weights read in
    # batches of at most 2^16 dense entries
    tracemalloc.start()
    try:
        gap, tau = families._doubling_gap(131071)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert 0 < gap and math.isfinite(tau)


@st.composite
def cyclic_shifts(draw):
    """Weights c_0..c_{p-1} of a cyclic weighted shift K e_j = c_j e_{j+1},
    either sign of the wrap weight."""
    p = draw(st.integers(1, 40))
    c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=p, max_size=p)))
    c[-1] *= draw(st.sampled_from([1.0, -1.0]))
    return c


@settings(max_examples=120, deadline=None)
@given(cyclic_shifts())
@example(np.array([1.0 / 3.0]))
@example(np.array([-1.0 / 3.0]))
@example(np.array([0.7, -0.2]))
@example(np.array([0.7, 0.2]))
@example(np.array([0.9999999999999999]))
def test_folded_bands_match_dense_svd(c):
    # the whole Gram and Golub-Kahan spectra of the folded bands, and the
    # values _doubling_gap reads, against the SVD of I - K. The bands hold
    # entries of size 1 (1 + c^2 on the Gram's diagonal), so their
    # eigenvalues err by about eps absolutely: the bounds scale with
    # max(1, sigma_max), which is sigma_max for p >= 2, where every column
    # of I - K has norm >= 1
    p = c.size
    K = np.zeros((p, p))
    K[(np.arange(p) + 1) % p, np.arange(p)] = c
    values = np.linalg.svd(np.eye(p) - K, compute_uv=False)[::-1]
    size = max(1.0, values[-1])
    scale = 1e-13 * size
    gram = families._folded_bands(1.0 + c * c, -c[None])[0]
    spectrum = families._band_eigenvalues(gram.copy(), -1.0, 8.0)
    assert np.abs(spectrum - values**2).max() <= scale * size
    least = families._band_eigenvalues(gram.copy(), index=1)
    top = families._band_eigenvalues(gram.copy(), index=p)
    assert abs(least[0] - values[0] ** 2) <= scale * size
    assert abs(math.sqrt(top[0]) - values[-1]) <= scale
    coupling = np.empty((1, 2 * p))
    coupling[0, 0::2], coupling[0, 1::2] = -c, 1.0
    gk = families._band_eigenvalues(families._folded_bands(0.0, coupling)[0], -3.0, 3.0)
    assert np.abs(gk - np.concatenate([-values[::-1], values])).max() <= scale
    assert abs(families._golub_kahan_min(c) - values[0]) <= scale


def test_doubling_gap_screen_keeps_every_block_bits():
    # the Gram screen sends only the candidate blocks to Golub-Kahan; the gap
    # is the one of sending every block there, to the bit
    for N in [*range(3, 400, 2), 2187, 4099, 8191, 131071]:
        every = min(
            families._golub_kahan_min(w)
            for weights in families._doubling_weights(N)
            for w in weights
        )
        gap, tau = families._doubling_gap(N)
        assert gap == every and tau == 1.0 / every, N


def test_doubling_gap_refuses_failed_band_solves(monkeypatch):
    # dsbevx's info != 0, or an index call that finds no eigenvalue
    from scipy.linalg import LinAlgError

    for found, info in ((1, 2), (0, 0)):
        monkeypatch.setattr(families, "dsbevx", lambda *args: (np.zeros(3), None, found, None, info))
        with pytest.raises(LinAlgError, match="dsbevx"):
            families._doubling_gap(7)


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
    # the trivial block I - K_(N) = 0 is not yielded; it is the one zero
    values = [0.0] + [
        v
        for K in families._card_blocks(N)
        for v in np.linalg.svd(np.eye(K.shape[1]) - K[0], compute_uv=False)
        for _ in range(K.shape[1])
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
