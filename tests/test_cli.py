import argparse
import json

import pytest

from chaingap.cli import build_parser, main

from conftest import OVERSIZE_SPECS, birth_death_matrix, z2_squared_walk_matrix


@pytest.fixture()
def flip_spec(tmp_path):
    path = tmp_path / "flip.json"
    path.write_text(json.dumps({"family": "explicit", "matrix": [[0, 1], [1, 0]]}))
    return str(path)


@pytest.fixture()
def walk_spec(tmp_path):
    path = tmp_path / "walk.json"
    path.write_text(
        json.dumps({"family": "circulant", "N": 8, "steps": [[0, 0.5], [1, 0.5]]})
    )
    return str(path)


def test_gap_command(walk_spec, capsys):
    assert main(["gap", "--spec", walk_spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "weighted_svd"
    assert "eigenvalues" not in payload
    assert payload["relaxation"] == pytest.approx(2.6131259297527527, rel=1e-12)
    assert payload["closed_form_gap"] == pytest.approx(payload["gap"], rel=1e-9)


def test_gap_command_without_closed_form(flip_spec, tmp_path, capsys):
    out = tmp_path / "gap.json"
    assert main(["gap", "--spec", flip_spec, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    payload = json.loads(printed)
    assert payload["method"] == "weighted_svd"
    assert "closed_form_gap" not in payload
    assert out.read_text() == printed


def test_gap_command_doubling_closed_form(tmp_path, capsys):
    spec = tmp_path / "cdg.json"
    spec.write_text(json.dumps({"family": "cdg", "N": 101}))
    assert main(["gap", "--spec", str(spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "weighted_svd"
    assert payload["closed_form_gap"] == pytest.approx(payload["gap"], rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "N, message",
    [
        (100000, "TooLarge: 39916800 orderings of 11 cards exceed the 36000000-entry cap"),
        (-1, "ValueError: a deck needs at least 3 cards, got -1"),
    ],
    ids=["100000", "-1"],
)
def test_gap_refuses_deck_size_without_factorial(tmp_path, capsys, N, message):
    spec = tmp_path / "card.json"
    spec.write_text(json.dumps({"family": "cardshuffle", "N": N}))
    assert main(["gap", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"chaingap: {message}\n"


def test_zero_stationary_mass_is_a_one_line_refusal(tmp_path, capsys):
    # mu(x) ~ 9^-x leaves the double range before state 399: refused, not a NaN gap
    spec = tmp_path / "drift.json"
    matrix = birth_death_matrix(400, 0.1).tolist()
    spec.write_text(json.dumps({"family": "explicit", "matrix": matrix}))
    assert main(["gap", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "chaingap: ChainError: irreducible chain produced a zero stationary mass\n"
    )


@pytest.mark.parametrize("family, N", [("cdg", 131071), ("cardshuffle", 8)])
def test_gap_past_the_dense_cap_reports_the_closed_form(tmp_path, capsys, family, N):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"family": family, "N": N}))
    assert main(["gap", "--spec", str(spec)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert main(["scan", "--spec", str(spec), "--n-list", str(N)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert payload == {"closed_form_gap": float(row[3])}  # 17 digits: the same bits


def test_delta_command(flip_spec, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(
        ["delta", "--spec", flip_spec, "--n-max", "4", "--trials", "200",
         "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "n,delta_exact,delta_mc,mc_stderr"
    assert len(lines) == 5
    assert capsys.readouterr().out.startswith("n,delta_exact")


def test_delta_command_refuses_one_trial(walk_spec, capsys):
    code = main(["delta", "--spec", walk_spec, "--n-max", "2", "--trials", "1", "--seed", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("chaingap: ValueError: reps must be >= 2")


def test_delta_command_refuses_before_the_curve(walk_spec, monkeypatch, capsys):
    from chaingap import cli

    def no_curve(*args, **kwargs):
        raise AssertionError("the curve was computed before the options were checked")

    monkeypatch.setattr(cli, "delta_curve", no_curve)
    assert main(["delta", "--spec", walk_spec, "--n-max", "2", "--trials", "1",
                 "--seed", "3"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["delta", "--spec", walk_spec, "--n-max", "2", "--trials", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    first, second = captured.err.splitlines()
    assert first.startswith("chaingap: ValueError: reps must be >= 2")
    assert second.startswith("chaingap: error: --trials draws trajectories")


def _assert_delta_builds_the_sampler_once(N, steps, tmp_path, monkeypatch, capsys):
    import chaingap as cg
    from chaingap import empirical
    from chaingap.empirical import DeltaCurve, DeltaPoint
    from chaingap.experiments import render_report

    path = tmp_path / f"circ{N}.json"
    path.write_text(json.dumps({"family": "circulant", "N": N, "steps": steps}))
    builds = []
    build = empirical._alias_tables
    monkeypatch.setattr(empirical, "_alias_tables", lambda P: builds.append(1) or build(P))
    assert main(["delta", "--spec", str(path), "--n-max", "5", "--trials", "50",
                 "--seed", "3"]) == 0
    assert len(builds) == 1
    chain = cg.circulant_chain(N, steps)
    points = []
    for e in cg.delta_curve(chain, range(1, 6)).entries:
        est, se = cg.delta_monte_carlo(chain, e.maximizer, e.n, 50, 3)
        points.append(DeltaPoint(n=e.n, delta_exact=e.delta_exact, delta_mc=est, mc_stderr=se))
    assert capsys.readouterr().out == render_report(DeltaCurve(tuple(points)), "csv")


def test_delta_command_builds_the_sampler_once(tmp_path, monkeypatch, capsys):
    # 96 states: a size where Lemire's method can reject a bucket draw
    _assert_delta_builds_the_sampler_once(
        96, [[0, 0.2], [1, 0.5], [17, 0.3]], tmp_path, monkeypatch, capsys)


def test_delta_command_builds_the_sampler_once_on_a_small_chain(tmp_path, monkeypatch, capsys):
    # 32 states: small chains step by alias tables too
    _assert_delta_builds_the_sampler_once(
        32, [[1, 0.5], [5, 0.3], [-3, 0.2]], tmp_path, monkeypatch, capsys)


def test_delta_command_without_trials_needs_no_seed(walk_spec, capsys):
    assert main(["delta", "--spec", walk_spec, "--n-max", "2", "--trials", "0"]) == 0
    assert capsys.readouterr().out.startswith("n,delta_exact,delta_mc,mc_stderr")


@pytest.mark.parametrize(
    "spec",
    [
        {"family": "cdg", "N": 101},
        {"family": "circulant", "N": 24, "steps": [[0, 0.2], [1, 0.5], [-5, 0.3]]},
        {"family": "torus", "N": 5, "d": 2,
         "probs": {"hold": 0.1, "plus": [0.4, 0.2], "minus": [0.2, 0.1]}},
    ],
)
def test_delta_command_without_trials_forms_no_dense_gram(spec, tmp_path, monkeypatch, capsys):
    import numpy as np

    from chaingap import empirical
    from chaingap.empirical import DeltaCurve, DeltaPoint, delta_curve
    from chaingap.experiments import render_report
    from chaingap.families import ChainSpec

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    chain = ChainSpec.from_json(spec).build()
    want = render_report(DeltaCurve(tuple(
        DeltaPoint(e.n, e.delta_exact) for e in delta_curve(chain, range(1, 41)).entries
    )), "csv")

    def refuse(fn):
        def call(a, *args, **kwargs):
            if np.shape(a)[-2:] == (chain.size, chain.size):
                raise AssertionError("an N x N input")
            return fn(a, *args, **kwargs)

        return call

    monkeypatch.setattr(empirical, "dsyevx", refuse(empirical.dsyevx))
    monkeypatch.setattr(empirical, "_conjugated", refuse(empirical._conjugated))
    assert main(["delta", "--spec", str(path), "--n-max", "40"]) == 0
    assert capsys.readouterr().out == want


def test_cheeger_command(flip_spec, capsys):
    assert main(["cheeger", "--spec", flip_spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"argmin_set": [0], "exact": True, "xi": 1.0}


def test_cheeger_command_refuses_one_state_chain(tmp_path, capsys):
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"family": "explicit", "matrix": [[1.0]]}))
    assert main(["cheeger", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "chaingap: ValueError: no subset A of a one-state chain has 0 < mu(A) <= 1/2\n"
    )


def test_path_bound_command(flip_spec, capsys):
    assert main(["path-bound", "--spec", flip_spec]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["congestion"] == pytest.approx(0.5)
    assert payload["gap_lower"] == pytest.approx(2.0)


def test_audit_command_passes(walk_spec, tmp_path, capsys):
    out = tmp_path / "audit.json"
    code = main(
        ["audit", "--spec", walk_spec, "--eps", "0.16666666666666666",
         "--n-max", "20", "--out", str(out), "--format", "json"]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "additive_gap_lower" in table
    assert "avg_dev_upper" in table
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is True


def test_scan_command(walk_spec, tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["scan", "--spec", walk_spec, "--n-list", "4,8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("family,params_digest")
    assert len(lines) == 3


def test_scan_refuses_deck_past_ten(tmp_path, capsys):
    spec = tmp_path / "card.json"
    spec.write_text(json.dumps({"family": "cardshuffle", "N": 3}))
    assert main(["scan", "--spec", str(spec), "--n-list", "3,11"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "chaingap: TooLarge: 39916800 orderings of 11 cards exceed the 36000000-entry cap\n"
    )


@pytest.mark.parametrize("N", [2, -3])
def test_scan_refuses_a_deck_of_fewer_than_three_cards(tmp_path, capsys, N):
    spec = tmp_path / "card.json"
    spec.write_text(json.dumps({"family": "cardshuffle", "N": 3}))
    assert main(["scan", "--spec", str(spec), "--n-list", str(N)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"chaingap: ValueError: a deck needs at least 3 cards, got {N}\n"


def test_gap_runs_the_seven_card_deck(tmp_path, capsys, monkeypatch):
    # no flag gates N = 7; the build and the 5040-state SVD are stubbed out
    import numpy as np

    from chaingap import cli
    from chaingap.families import ChainSpec
    from chaingap.spectral import SingularSpectrum

    built = []
    spectrum = SingularSpectrum(
        values=np.array([0.0, 0.5]), gap=0.5, relaxation=2.0, method="weighted_svd", mu_min=0.25
    )
    monkeypatch.setattr(ChainSpec, "build", lambda self: built.append(self.N) or "chain")
    monkeypatch.setattr(cli, "weighted_singular_spectrum", lambda chain: spectrum)
    spec = tmp_path / "card.json"
    spec.write_text(json.dumps({"family": "cardshuffle", "N": 7}))
    assert main(["gap", "--spec", str(spec)]) == 0
    assert built == [7]
    assert json.loads(capsys.readouterr().out) == {
        "values": [0.0, 0.5], "gap": 0.5, "relaxation": 2.0, "method": "weighted_svd",
        "mu_min": 0.25, "closed_form_gap": ChainSpec("cardshuffle", 7).closed_form()[0],
    }


@pytest.mark.parametrize("name", sorted(OVERSIZE_SPECS))
def test_scan_refuses_closed_forms_past_the_cap(name, tmp_path, capsys):
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(OVERSIZE_SPECS[name]))
    N = OVERSIZE_SPECS[name]["N"]
    assert main(["scan", "--spec", str(spec), "--n-list", str(N)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("chaingap: TooLarge: ")


@pytest.mark.parametrize("name", sorted(OVERSIZE_SPECS))
def test_gap_refuses_closed_forms_past_the_cap(name, tmp_path, capsys):
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(OVERSIZE_SPECS[name]))
    assert main(["gap", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("chaingap: TooLarge: ")


def test_ensemble_command(tmp_path, capsys):
    out = tmp_path / "tails.csv"
    code = main(
        ["ensemble", "--n", "101", "--k", "2", "--trials", "100",
         "--l-grid", "1,2", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "L,fraction"
    assert len(lines) == 3


def test_ensemble_command_refuses_a_bad_l_grid(capsys):
    code = main(["ensemble", "--n", "101", "--k", "2", "--trials", "5", "--seed", "1",
                 "--l-grid", "nan,-1,1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chaingap: ValueError: every L must be a number >= 0, got nan\n"


@pytest.mark.parametrize(
    "argv",
    [["ensemble", "--n", "101", "--k", "2", "--trials", "30"],
     ["cheeger", "--spec", "WALK24", "--trials", "5"]],
    ids=["ensemble", "cheeger-search"],
)
def test_negative_seed_is_the_seed_mod_two_to_the_64(argv, tmp_path, capsys):
    spec = tmp_path / "walk24.json"
    spec.write_text(json.dumps({"family": "circulant", "N": 24, "steps": [[1, 0.7], [-1, 0.3]]}))
    argv = [str(spec) if a == "WALK24" else a for a in argv]
    outputs = []
    for seed in ("-1", "18446744073709551615", "18446744073709551617", "1"):
        out = tmp_path / f"out-{seed}"
        assert main(argv + ["--seed", seed, "--out", str(out)]) == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[2] == outputs[3]


@pytest.mark.parametrize("k", ["0", "7"])
def test_ensemble_command_refuses_k_outside_one_to_n(k, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--n", "5", "--k", k, "--trials", "1", "--seed", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("chaingap: error: --k must lie in 1..5")


def test_audit_stdout_is_the_csv_report(walk_spec, tmp_path, capsys):
    import chaingap as cg
    from chaingap.experiments import render_report
    from chaingap.families import ChainSpec

    out = tmp_path / "audit.csv"
    assert main(["audit", "--spec", walk_spec, "--n-max", "4", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    with open(walk_spec, encoding="utf-8") as fh:
        chain = ChainSpec.from_json(json.load(fh)).build()
    audit = cg.inequality_audit(chain).merged(cg.delta_bounds_audit(chain, 4))
    assert text == render_report(audit, "csv")
    assert text.split("\n")[0] == "name,lhs,relation,rhs,margin,applicable,pass"
    assert out.read_text() == text


def test_audit_reports_skipped_deviation_rows_for_infinite_tau(tmp_path, capsys):
    import chaingap as cg
    from chaingap.experiments import render_report

    P = z2_squared_walk_matrix(1e-10)
    spec = tmp_path / "z2.json"
    spec.write_text(json.dumps({"family": "explicit", "matrix": P.tolist()}))
    assert main(["audit", "--spec", str(spec), "--n-max", "5"]) == 0
    text = capsys.readouterr().out
    chain = cg.build_chain(P)
    assert text == render_report(
        cg.inequality_audit(chain).merged(cg.delta_bounds_audit(chain, 5)), "csv"
    )
    tail = [line.split(",")[0] for line in text.strip().split("\n")[-3:]]
    assert tail == [
        f"{name} [skipped: relaxation time infinite]"
        for name in ("avg_dev_upper", "avg_dev_floor", "avg_dev_window_lower")
    ]


def test_audit_skips_mixing_rows_beyond_the_step_cap(tmp_path, capsys):
    # tau = 5e6, but mixing_time's cap of 10 N^2 + 1000 steps refuses the
    # aperiodic chain: the audit skips what needs t_mix and reports the rest
    leak = 1e-7
    spec = tmp_path / "slow.json"
    spec.write_text(json.dumps({"family": "explicit",
                                "matrix": [[1 - leak, leak], [leak, 1 - leak]]}))
    assert main(["audit", "--spec", str(spec)]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    skipped = [name for name, *_, applicable, _ in rows if applicable == "false"]
    assert skipped == [
        f"{name} [skipped: mixing time beyond the step cap]"
        for name in ("relaxation_vs_mixing", "mixing_vs_relaxation",
                     "reversible_mixing_lower", "reversible_mixing_upper")
    ]
    assert all(passed == "true" for *_, passed in rows)


def test_audit_command_refuses_k_max_zero(walk_spec, capsys):
    assert main(["audit", "--spec", walk_spec, "--k-max", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chaingap: ValueError: k_max must be >= 1\n"


@pytest.mark.parametrize("n_max", ["0", "-3"])
@pytest.mark.parametrize("trials", [[], ["--trials", "10", "--seed", "1"]], ids=["exact", "mc"])
def test_delta_command_refuses_an_empty_n_range(n_max, trials, walk_spec, capsys):
    assert main(["delta", "--spec", walk_spec, "--n-max", n_max] + trials) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chaingap: ValueError: the n list is empty\n"


def test_ensemble_command_needs_a_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--n", "5", "--k", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chaingap: error: ensemble sampling is randomized; give --seed\n"


def test_cheeger_search_needs_a_seed(tmp_path, capsys):
    spec = tmp_path / "walk.json"
    spec.write_text(json.dumps({"family": "circulant", "N": 24, "steps": [[1, 0.5], [-1, 0.5]]}))
    with pytest.raises(SystemExit) as exc:
        main(["cheeger", "--spec", str(spec)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "chaingap: error: search beyond 20 states is randomized; give --seed\n"
    )


def test_audit_exit_code_on_failure(monkeypatch, walk_spec):
    from chaingap import cli
    from chaingap.audit import BoundAudit, make_check

    failing = BoundAudit((make_check("synthetic", 2.0, 1.0, "<="),))
    monkeypatch.setattr(cli, "inequality_audit", lambda *a, **k: failing)
    assert main(["audit", "--spec", walk_spec]) == 1


def test_refused_chain_exits_two_with_one_line(tmp_path, capsys):
    spec = tmp_path / "identity.json"
    spec.write_text(json.dumps({"family": "explicit", "matrix": [[1, 0], [0, 1]]}))
    assert main(["gap", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("chaingap: MultipleInvariantMeasures: ")


def test_scan_refuses_explicit_spec(flip_spec, capsys):
    assert main(["scan", "--spec", flip_spec, "--n-list", "2,3"]) == 2
    assert capsys.readouterr().err.startswith("chaingap: ValueError: ")


@pytest.mark.parametrize("command", ["cheeger", "path-bound"])
def test_json_command_out_file_equals_stdout(command, flip_spec, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main([command, "--spec", flip_spec, "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("command", ["gap", "cheeger", "path-bound"])
def test_json_only_command_refuses_csv_out(command, flip_spec, tmp_path, capsys):
    out = tmp_path / "result.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--spec", flip_spec, "--format", "csv", "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_ensemble_json_writes_infinite_l_as_a_string(tmp_path):
    out = tmp_path / "tails.json"
    code = main(
        ["ensemble", "--n", "101", "--k", "2", "--trials", "50", "--l-grid", "1,inf",
         "--seed", "5", "--format", "json", "--out", str(out)]
    )
    assert code == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    rows = json.loads(out.read_text(), parse_constant=refuse)
    assert [row["L"] for row in rows] == [1.0, "inf"]
    assert rows[1]["fraction"] == 0.0


def test_audit_accepts_chain_with_subnormal_mu(tmp_path, capsys):
    # mu spans 9^332: its smallest mass, about 1.4e-317, is subnormal
    spec = tmp_path / "bd333.json"
    spec.write_text(
        json.dumps({"family": "explicit", "matrix": birth_death_matrix(333, 0.9).tolist()})
    )
    out = tmp_path / "audit.json"
    code = main(["audit", "--spec", str(spec), "--format", "json", "--out", str(out)])
    assert "NotStochastic" not in capsys.readouterr().err
    assert code == 0
    assert json.loads(out.read_text())["all_pass"] is True


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"family": "torus", "N": 4, "probs": {"hold": 0}},
         "'probs.plus' must be a JSON array, got None"),
        ({"family": "explicit", "matrix": 5}, "explicit 'matrix' must be a JSON array, got 5"),
        ({"family": "explicit", "matrix": [[0, 1], [1, None]]},
         "a matrix entry must be a number, got None"),
        ({"family": "explicit", "matrix": [[1.0], [0.5, 0.5]]},
         "explicit 'matrix' is ragged: row 1 has 2 entries, row 0 has 1"),
        ({"family": "circulant", "N": 5, "steps": [1, 2]},
         "a circulant step must be a pair [a, p], got 1"),
        ({"family": "circulant", "N": 5, "steps": [[1.7, 1.0]]},
         "a step residue must be an integer, got 1.7"),
        ({"family": "circulant", "N": 5, "steps": [[True, 1.0]]},
         "a step residue must be an integer, got True"),
        ({"family": "cdg", "N": [3]}, "cdg 'N' must be an integer, got [3]"),
        ({"family": "cdg", "N": 101.9}, "cdg 'N' must be an integer, got 101.9"),
        ({"family": "cdg", "N": True}, "cdg 'N' must be an integer, got True"),
        ({"family": "torus", "N": 4, "d": 1.5, "probs": {"plus": [0.5], "minus": [0.5]}},
         "torus 'd' must be an integer, got 1.5"),
        ([{"family": "cdg", "N": 5}], "a chain spec must be a JSON object"),
        ({"family": "circulant", "N": 5, "steps": []}, "circulant family requires 'steps'"),
        ({"family": "torus", "N": 4, "d": 1}, "torus family requires 'probs' as a JSON object"),
    ],
    ids=["torus-no-plus", "matrix-scalar", "matrix-null", "matrix-ragged", "step-scalar",
         "step-fraction", "step-bool", "N-list", "N-fraction", "N-bool", "d-fraction",
         "top-level-list", "steps-empty", "torus-no-probs"],
)
def test_malformed_spec_is_refused(payload, message, tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(payload))
    assert main(["gap", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"chaingap: ValueError: {message}"]


def test_integral_float_size_is_accepted(tmp_path, capsys):
    spec = tmp_path / "cdg.json"
    spec.write_text(json.dumps({"family": "cdg", "N": 5.0}))
    assert main(["gap", "--spec", str(spec)]) == 0
    assert len(json.loads(capsys.readouterr().out)["values"]) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["gap", "--seed", "1"],
        ["path-bound", "--seed", "1"],
        ["audit", "--seed", "1"],
        ["scan", "--seed", "1", "--n-list", "8"],
    ],
)
def test_unread_seed_is_refused(argv, walk_spec):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--spec", walk_spec])
    assert exc.value.code == 2


def test_ensemble_refuses_extended():
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--n", "5", "--k", "2", "--seed", "1", "--extended"])
    assert exc.value.code == 2


def test_cheeger_search_refuses_negative_trials(tmp_path, capsys):
    spec = tmp_path / "walk.json"
    spec.write_text(json.dumps({"family": "circulant", "N": 24, "steps": [[1, 0.5], [-1, 0.5]]}))
    assert main(["cheeger", "--spec", str(spec), "--trials", "-1", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chaingap: ValueError: iters must be >= 0, got -1\n"


def test_cheeger_exact_refuses_negative_trials(flip_spec, capsys):
    # the exact route never reads --trials, but a negative count is refused anyway
    assert main(["cheeger", "--spec", flip_spec, "--trials", "-1", "--seed", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chaingap: ValueError: iters must be >= 0, got -1\n"


def test_cheeger_search_defaults_to_fifty_restarts(tmp_path, capsys, monkeypatch):
    from chaingap import cli

    seen = []
    real = cli.cheeger_search

    def recording_search(chain, iters, seed):
        seen.append(iters)
        return real(chain, iters=iters, seed=seed)

    monkeypatch.setattr(cli, "cheeger_search", recording_search)
    spec = tmp_path / "walk.json"
    spec.write_text(json.dumps({"family": "circulant", "N": 24, "steps": [[1, 0.5], [-1, 0.5]]}))
    assert main(["cheeger", "--spec", str(spec), "--seed", "1"]) == 0
    assert main(["cheeger", "--spec", str(spec), "--seed", "1", "--trials", "0"]) == 0
    assert seen == [50, 0]


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_cli_surface():
    # every option of every subcommand: an added or removed option is a diff here
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: sorted(s for action in sub._actions if action.dest != "help"
                     for s in action.option_strings)
        for name, sub in commands.choices.items()
    }
    assert surface == {
        "gap": ["--out", "--spec"],
        "delta": ["--format", "--n-max", "--out", "--seed", "--spec", "--trials"],
        "cheeger": ["--out", "--seed", "--spec", "--trials"],
        "path-bound": ["--out", "--spec"],
        "audit": ["--eps", "--format", "--k-max", "--n-max", "--out", "--spec"],
        "scan": ["--format", "--n-list", "--out", "--spec"],
        "ensemble": ["--format", "--k", "--l-grid", "--n", "--out", "--p", "--seed", "--trials"],
    }


@pytest.mark.parametrize(
    "prob, message",
    [(True, "a probability must be a number or a string, got True"),
     ("1/0", "probability '1/0' divides by zero"),
     ("1/sqrt(0)", "probability '1/sqrt(0)' divides by zero"),
     ("1/2/4", "chained division in probability '1/2/4'"),
     ("1e400", "probability '1e400' overflows a double"),
     ("", "empty probability expression")],
    ids=["bool", "zero", "sqrt-zero", "chained", "overflow", "empty"],
)
def test_malformed_probability_is_refused_in_one_line(prob, message, tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"family": "circulant", "N": 2, "steps": [[1, prob]]}))
    assert main(["gap", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"chaingap: ValueError: {message}\n"


@pytest.mark.parametrize("sizes", ["", ","])
def test_scan_command_refuses_an_empty_size_list(sizes, walk_spec, capsys):
    assert main(["scan", "--spec", walk_spec, "--n-list", sizes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chaingap: ValueError: the size list is empty\n"


@pytest.mark.parametrize("grid", ["", ","])
def test_ensemble_command_refuses_an_empty_l_grid(grid, capsys):
    code = main(["ensemble", "--n", "5", "--k", "2", "--seed", "1", "--l-grid", grid])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chaingap: ValueError: the L grid is empty\n"
