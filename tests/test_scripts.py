"""Smoke tests for the scripts under scripts/, run in-process through main(),
and for the README's Python examples."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

import chaingap as cg

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "only, reports",
    [
        ("circle", ["circle_lazy_right.csv"]),
        ("torus", ["torus_half.csv", "torus_irr.csv"]),
        ("doubling", ["doubling.csv"]),
        ("card", ["card.csv"]),
    ],
)
def test_run_scaling_closed_form_tables(tmp_path, capsys, only, reports):
    assert _load("run_scaling").main(["--only", only, "--out-dir", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == reports
    for name in reports:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "family,params_digest,N,gamma,tau,method,wall_ms"
        assert all(line.split(",")[5] == "closed_form" for line in lines[1:])
    summary = "tau/ln N" if only == "doubling" else "slope"  # doubling fits no power law
    assert summary in capsys.readouterr().out


def test_run_battery_audit_report(tmp_path, capsys):
    out = tmp_path / "battery_audit.json"
    assert _load("run_battery_audit").main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert sorted(report) == sorted(item.name for item in cg.reference_battery())
    assert all(entry["all_pass"] and entry["checks"] for entry in report.values())
    assert f"report written to {out}" in capsys.readouterr().out


def test_readme_python_blocks_run(capsys):
    # the library tour and the closed_form lines, in one namespace, so a
    # renamed or removed name that the README still uses fails here
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["gamma"] > 0 and "additive_gap_lower" in capsys.readouterr().out
