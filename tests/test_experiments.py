import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import chaingap as cg
from chaingap import experiments
from chaingap.errors import InsufficientData, InvalidSteps, NotPrime
from chaingap.experiments import ExperimentRow, render_report


def lazy_right_template():
    return cg.ChainSpec.from_json(
        {"family": "circulant", "N": 4, "steps": [[0, 0.5], [1, 0.5]]}
    )


def test_scan_circulant_anchor_values():
    rows = cg.scan(lazy_right_template(), [4, 8])
    assert [r.N for r in rows] == [4, 8]
    assert rows[0].tau == pytest.approx(1.0 / math.sin(math.pi / 4), rel=1e-12)
    assert rows[1].tau == pytest.approx(1.0 / math.sin(math.pi / 8), rel=1e-12)
    assert all(r.method == "closed_form" for r in rows)
    assert all(r.gamma * r.tau == pytest.approx(1.0, rel=1e-9) for r in rows)


def test_scan_torus_values():
    spec = cg.ChainSpec.from_json(
        {
            "family": "torus",
            "N": 2,
            "d": 2,
            "probs": {"hold": 0, "plus": [0.5, 0.5], "minus": [0, 0]},
        }
    )
    rows = cg.scan(spec, [2, 4])
    assert rows[0].gamma == pytest.approx(1.0, abs=1e-12)
    assert rows[1].gamma == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-12)


def test_scan_empty():
    with pytest.raises(ValueError, match="the size list is empty"):
        cg.scan(lazy_right_template(), [])


def test_scan_closed_form_agrees_with_dense_svd():
    # wherever both routes are feasible, the scan's closed form matches SVD
    for spec_json in (
        {"family": "circulant", "N": 4, "steps": [[0, 0.5], [1, 0.25], [2, 0.25]]},
        {
            "family": "torus",
            "N": 3,
            "d": 2,
            "probs": {"hold": 0.1, "plus": [0.4, 0.2], "minus": [0.1, 0.2]},
        },
    ):
        template = cg.ChainSpec.from_json(spec_json)
        for row in cg.scan(template, [3, 5, 9]):
            spec = template.with_size(row.N)
            dense = cg.weighted_singular_spectrum(spec.build()).gap
            assert row.method == "closed_form"
            assert row.gamma == pytest.approx(dense, rel=1e-9)


def test_zero_rule_is_the_same_on_every_route():
    # gap ~1.06e-8 sits between ZERO_SV and ZERO_SV * sigma_max (~2e-8)
    probs = cg.up_right_probs(1.0 - 7.5e-9)
    template = cg.ChainSpec(family="torus", N=4, d=2, probs=probs)
    (row,) = cg.scan(template, [4])
    gamma, tau = cg.spectral_gap(cg.torus_chain(4, 2, probs))
    assert row.gamma == pytest.approx(gamma, rel=1e-6)
    assert row.tau == tau == math.inf


def test_scan_card_matches_dense_svd():
    rows = cg.scan(cg.ChainSpec.from_json({"family": "cardshuffle", "N": 3}), [3, 4])
    assert all(r.method == "closed_form" for r in rows)
    gamma, _ = cg.spectral_gap(cg.card_chain(3))
    assert rows[0].gamma == pytest.approx(gamma, rel=1e-12)


def test_scan_doubling_builds_no_chain(monkeypatch):
    from chaingap import families

    def refuse(*args, **kwargs):
        raise AssertionError("scan built a dense chain")

    monkeypatch.setattr(families, "build_chain", refuse)
    rows = cg.scan(cg.ChainSpec.from_json({"family": "cdg", "N": 5}), [5, 11, 1601])
    assert all(r.method == "closed_form" for r in rows)
    monkeypatch.undo()
    gamma, tau = cg.spectral_gap(cg.cdg_chain(11))
    assert rows[1].gamma == pytest.approx(gamma, rel=1e-13)
    assert rows[1].tau == pytest.approx(tau, rel=1e-13)


def test_scan_card_builds_no_chain(monkeypatch):
    from chaingap import families

    def refuse(*args, **kwargs):
        raise AssertionError("scan built a dense chain")

    monkeypatch.setattr(families, "build_chain", refuse)
    rows = cg.scan(cg.ChainSpec.from_json({"family": "cardshuffle", "N": 3}), [3, 5, 9])
    assert all(r.method == "closed_form" for r in rows)
    monkeypatch.undo()
    gamma, tau = cg.spectral_gap(cg.card_chain(5))
    assert rows[1].gamma == pytest.approx(gamma, rel=1e-13)
    assert rows[1].tau == pytest.approx(tau, rel=1e-13)


def test_fit_scaling_exact_power_law():
    rows = [
        ExperimentRow("synthetic", "x", n, 1.0 / n**2, float(n**2), "closed_form", 0.0)
        for n in (4, 8, 16, 32)
    ]
    fit = cg.fit_scaling(rows)
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 4


def test_fit_scaling_constant():
    rows = [
        ExperimentRow("synthetic", "x", n, 1.0 / 7.0, 7.0, "closed_form", 0.0)
        for n in (4, 8, 16)
    ]
    fit = cg.fit_scaling(rows)
    assert fit.slope == pytest.approx(0.0, abs=1e-9)


def test_fit_scaling_residual_orthogonality():
    rng = np.random.default_rng(5)
    rows = [
        ExperimentRow("synthetic", "x", n, 1.0, float(n ** 1.5 * rng.uniform(0.5, 2.0)), "m", 0.0)
        for n in (4, 8, 16, 32, 64)
    ]
    fit = cg.fit_scaling(rows)
    x = np.log([r.N for r in rows])
    y = np.log([r.tau for r in rows])
    resid = y - (fit.slope * x + fit.intercept)
    assert abs(resid.sum()) <= 1e-9
    assert abs((resid * x).sum()) <= 1e-9
    assert 0.0 <= fit.r_squared <= 1.0


def test_fit_scaling_requires_three_finite_rows():
    rows = [
        ExperimentRow("synthetic", "x", n, 1.0, float(n), "m", 0.0) for n in (2, 4)
    ]
    with pytest.raises(InsufficientData):
        cg.fit_scaling(rows)
    rows.append(ExperimentRow("synthetic", "x", 8, 0.0, math.inf, "m", 0.0))
    with pytest.raises(InsufficientData):
        cg.fit_scaling(rows)


def test_ensemble_requires_prime():
    with pytest.raises(NotPrime):
        cg.random_steps_ensemble(100, 2, [0.5, 0.5], 10, [1.0], seed=0)


@pytest.mark.parametrize("N", [1, 9])  # below 2; odd with a factor
def test_ensemble_refuses_odd_non_primes(N):
    with pytest.raises(NotPrime, match=f"{N} is not prime"):
        cg.random_steps_ensemble(N, 1, [1.0], 10, [1.0], seed=0)


def test_ensemble_refuses_nan_probability():
    with pytest.raises(InvalidSteps):
        cg.random_steps_ensemble(101, 2, [math.nan, 0.5], 10, [1.0], seed=0)


@pytest.mark.parametrize("L", [math.nan, -1.0, -math.inf])
def test_ensemble_refuses_an_l_that_is_not_a_number_at_least_zero(L):
    with pytest.raises(ValueError, match="every L must be a number >= 0"):
        cg.random_steps_ensemble(101, 2, [0.5, 0.5], 10, [1.0, L], seed=0)


def test_ensemble_refuses_an_empty_l_grid():
    with pytest.raises(ValueError, match="the L grid is empty"):
        cg.random_steps_ensemble(101, 2, [0.5, 0.5], 10, [], seed=0)


@pytest.mark.parametrize(
    "p, trials, message",
    [([0.5, 0.25, 0.25], 10, "p must list k = 2 probabilities"),
     ([0.5, 0.5], 0, "trials must be >= 1")],
    ids=["p-length", "no-trials"],
)
def test_ensemble_refuses_bad_p_or_trials(p, trials, message):
    with pytest.raises(ValueError, match=message):
        cg.random_steps_ensemble(101, 2, p, trials, [1.0], seed=0)


def test_ensemble_accepts_zero_and_infinite_l():
    rows = cg.random_steps_ensemble(101, 2, [0.5, 0.5], 10, [0.0, math.inf], seed=0)
    assert [(r.L, r.fraction) for r in rows] == [(0.0, 1.0), (math.inf, 0.0)]


def test_ensemble_seed_is_taken_mod_two_to_the_64():
    def fractions(seed):
        rows = cg.random_steps_ensemble(101, 2, [0.5, 0.5], 40, [0.5, 1.0], seed=seed)
        return [r.fraction for r in rows]

    assert fractions(-1) == fractions(2**64 - 1)
    assert fractions(2**64 + 9) == fractions(9)


@pytest.mark.parametrize("k", [0, 7])
def test_ensemble_refuses_k_outside_one_to_n(k):
    # 7 distinct residues mod 5 do not exist: sampling would never end
    with pytest.raises(ValueError, match=r"k must lie in 1\.\.5"):
        cg.random_steps_ensemble(5, k, [1.0 / 7] * k, 1, [1.0], seed=1)


def test_ensemble_monotone_and_deterministic():
    rows1 = cg.random_steps_ensemble(101, 2, [0.5, 0.5], 200, [1, 2, 4], seed=9)
    rows2 = cg.random_steps_ensemble(101, 2, [0.5, 0.5], 200, [1, 2, 4], seed=9)
    assert rows1 == rows2
    fractions = [r.fraction for r in rows1]
    assert all(0.0 <= f <= 1.0 for f in fractions)
    assert all(b <= a for a, b in zip(fractions, fractions[1:]))


def test_ensemble_draws_every_residue_when_k_is_n():
    # k = N steps are all of Z/NZ: with p uniform the walk is J/N, whose tau
    # is 1, below every threshold L * N^{2/(k+1)} with L >= 1
    rows = cg.random_steps_ensemble(101, 101, [1.0 / 101] * 101, 3, [1, 2, 4], seed=5)
    assert [r.fraction for r in rows] == [0.0, 0.0, 0.0]


def loop_ensemble_taus(N, p, trials, seed):
    """tau of each trial by one draw and one circulant closed form per trial."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    taus = []
    for _ in range(trials):
        steps = tuple(zip(rng.choice(N, size=len(p), replace=False).tolist(), p))
        taus.append(cg.ChainSpec("circulant", N, steps=steps).closed_form()[1])
    return np.array(taus)


@pytest.mark.parametrize(
    "N, p",
    [(101, [0.5, 0.5]), (101, [0.2, 0.3, 0.5]), (101, [1.0]), (101, [1.0 / 101] * 101),
     (7, [0.1, 0.2, 0.3, 0.4]), (499, [0.3, 0.1, 0.25, 0.15, 0.2])],
    ids=["equal", "unequal", "k1", "kN", "small-N", "k5-unequal-499"],
)
@pytest.mark.parametrize("walks_per_block", [None, 3])
def test_ensemble_batch_matches_per_trial_closed_forms(N, p, walks_per_block):
    # unequal p checks that each trial's steps are sorted together with their p
    trials, seed = 40, 17
    with pytest.MonkeyPatch.context() as mp:
        if walks_per_block:
            mp.setattr(cg.tolerances, "BLOCK_ENTRIES", walks_per_block * (N // 2 + 1))
        taus = experiments._ensemble_taus(N, np.array(p), trials, seed)
    assert np.array_equal(taus, loop_ensemble_taus(N, p, trials, seed))


def test_ensemble_memory_stays_blocked():
    tracemalloc.start()
    try:
        rows = cg.random_steps_ensemble(499, 2, [0.5, 0.5], 20_000, [1.0, 8.0], seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert 0 < rows[1].fraction < rows[0].fraction < 1


def test_ensemble_validates_p_before_any_draw():
    # a billion trials: refused before the per-trial array or the first draw
    tracemalloc.start()
    try:
        with pytest.raises(InvalidSteps, match="positive and finite"):
            cg.random_steps_ensemble(101, 2, [math.nan, 0.5], 10**9, [1.0], seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_report_experiment_rows_csv(tmp_path):
    rows = cg.scan(lazy_right_template(), [4])
    path = tmp_path / "rows.csv"
    cg.emit_report(rows, path, "csv")
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "family,params_digest,N,gamma,tau,method,wall_ms"
    assert len(lines) == 3 and lines[2] == ""  # header + row + trailing LF
    assert "\r" not in text


def test_report_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    cg.emit_report([], path, "csv")
    assert path.read_text() == "family,params_digest,N,gamma,tau,method,wall_ms\n"


def test_report_nests_a_dict_of_audits_as_their_json_bodies():
    # the bytes the battery script wrote by parsing each audit's report back
    audits = {
        "flip": cg.inequality_audit(cg.build_chain([[0.0, 1.0], [1.0, 0.0]])),
        "fair": cg.inequality_audit(cg.build_chain(np.full((2, 2), 0.5))),
    }
    bodies = {name: json.loads(render_report(a, "json")) for name, a in audits.items()}
    assert any(c["lhs"] is None for c in bodies["flip"]["checks"])  # a skipped check's nan
    assert render_report(audits, "json") == render_report(bodies, "json")


def test_report_refuses_an_unknown_result():
    with pytest.raises(TypeError, match="no report serializer for BoundCheck"):
        render_report(cg.inequality_audit(cg.build_chain(np.full((2, 2), 0.5))).checks[0], "json")


def test_report_refuses_an_unknown_format():
    audit = cg.inequality_audit(cg.build_chain(np.full((2, 2), 0.5)))
    with pytest.raises(ValueError, match="format must be 'csv' or 'json'"):
        render_report(audit, "xml")


def test_report_byte_identical(tmp_path):
    rows = cg.scan(lazy_right_template(), [4, 8])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cg.emit_report(rows, a, "csv")
    cg.emit_report(rows, b, "csv")
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    cg.emit_report(rows, ja, "json")
    cg.emit_report(rows, jb, "json")
    assert ja.read_bytes() == jb.read_bytes()


def test_report_json_sorted_keys(tmp_path):
    rows = cg.scan(lazy_right_template(), [4])
    payload = json.loads(render_report(rows, "json"))
    assert list(payload[0].keys()) == sorted(payload[0].keys())


def test_report_seventeen_digit_floats():
    rows = [ExperimentRow("f", "d", 3, 1.0 / 3.0, 3.0, "m", 0.0)]
    text = render_report(rows, "csv")
    assert "0.33333333333333331" in text


def test_report_audit_and_curve(tmp_path):
    audit = cg.inequality_audit(cg.build_chain(np.full((2, 2), 0.5)))
    cg.emit_report(audit, tmp_path / "audit.json", "json")
    payload = json.loads((tmp_path / "audit.json").read_text())
    assert payload["all_pass"] is True
    cg.emit_report(audit, tmp_path / "audit.csv", "csv")
    assert (tmp_path / "audit.csv").read_text().startswith("name,lhs,relation,rhs")

    curve = cg.delta_curve(cg.build_chain([[0.0, 1.0], [1.0, 0.0]]), [1, 2])
    cg.emit_report(curve, tmp_path / "curve.csv", "csv")
    assert (tmp_path / "curve.csv").read_text().startswith("n,delta_exact")


def test_audit_csv_rows_have_the_header_width(battery):
    # skipped checks carry their reason in the name, and some reasons hold commas
    quoted = 0
    for item in battery:
        audit = cg.inequality_audit(item.chain, group_walk=item.group_walk)
        text = render_report(audit, "csv")
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert all(len(row) == len(header) for row in rows), item.name
        assert [row[0] for row in rows] == [c.name for c in audit.checks]
        quoted += text.count('"')
    assert quoted > 0
