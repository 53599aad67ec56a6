import argparse
import json

import pytest

from chaingap.cli import build_parser, main

from conftest import OVERSIZE_SPECS, birth_death_matrix


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


def test_gap_command_without_closed_form(tmp_path, capsys):
    spec = tmp_path / "card.json"
    spec.write_text(json.dumps({"family": "cardshuffle", "N": 3}))
    out = tmp_path / "gap.json"
    assert main(["gap", "--spec", str(spec), "--out", str(out)]) == 0
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


@pytest.mark.parametrize("N", [100000, -1])
def test_gap_refuses_deck_size_without_factorial(tmp_path, capsys, N):
    spec = tmp_path / "card.json"
    spec.write_text(json.dumps({"family": "cardshuffle", "N": N}))
    assert main(["gap", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"chaingap: TooLarge: deck size must be in [3, 7], got {N}\n"


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


def test_delta_command_without_trials_needs_no_seed(walk_spec, capsys):
    assert main(["delta", "--spec", walk_spec, "--n-max", "2", "--trials", "0"]) == 0
    assert capsys.readouterr().out.startswith("n,delta_exact,delta_mc,mc_stderr")


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


def test_scan_refuses_deck_past_seven(tmp_path, capsys):
    spec = tmp_path / "card.json"
    spec.write_text(json.dumps({"family": "cardshuffle", "N": 3}))
    assert main(["scan", "--spec", str(spec), "--n-list", "3,8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chaingap: TooLarge: deck size must be in [3, 7], got 8\n"


def test_gap_runs_the_seven_card_deck(tmp_path, capsys, monkeypatch):
    # no flag gates N = 7; the build and the 5040-state SVD are stubbed out
    from chaingap import cli
    from chaingap.families import ChainSpec

    built = []

    class Spectrum:
        def to_json(self):
            return {"gap": 0.5}

    monkeypatch.setattr(ChainSpec, "build", lambda self: built.append(self.N) or "chain")
    monkeypatch.setattr(cli, "weighted_singular_spectrum", lambda chain: Spectrum())
    spec = tmp_path / "card.json"
    spec.write_text(json.dumps({"family": "cardshuffle", "N": 7}))
    assert main(["gap", "--spec", str(spec)]) == 0
    assert built == [7]
    assert json.loads(capsys.readouterr().out) == {"gap": 0.5}


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
    "payload",
    [
        {"family": "torus", "N": 4, "probs": {"hold": 0}},
        {"family": "explicit", "matrix": 5},
        {"family": "explicit", "matrix": [[0, 1], [1, None]]},
        {"family": "circulant", "N": 5, "steps": [1, 2]},
        {"family": "circulant", "N": 5, "steps": [[1.7, 1.0]]},
        {"family": "circulant", "N": 5, "steps": [[True, 1.0]]},
        {"family": "cdg", "N": [3]},
        {"family": "cdg", "N": 101.9},
        {"family": "cdg", "N": True},
        {"family": "torus", "N": 4, "d": 1.5, "probs": {"plus": [0.5], "minus": [0.5]}},
        [{"family": "cdg", "N": 5}],
    ],
    ids=["torus-no-plus", "matrix-scalar", "matrix-null", "step-scalar", "step-fraction",
         "step-bool", "N-list", "N-fraction", "N-bool", "d-fraction", "top-level-list"],
)
def test_malformed_spec_is_refused(payload, tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(payload))
    assert main(["gap", "--spec", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("chaingap: ValueError: ")


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
