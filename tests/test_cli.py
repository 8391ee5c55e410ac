import json
import subprocess
import sys

import numpy as np
import pytest

from fracch import harness
from fracch.cli import main
from fracch.fracops import cq_weights
from fracch.harness import ExperimentPlan, run_study
from oracles import read_table


def test_weights_to_file(tmp_path):
    dest = tmp_path / "w.csv"
    rc = main(["weights", "--order", "0.5", "--n", "5", "--out", str(dest)])
    assert rc == 0
    lines = dest.read_text().strip().split("\n")
    assert lines[0] == "j,weight"
    got = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
    assert np.array_equal(got, cq_weights(0.5, 5).weights)


def test_weights_to_stdout(capsys):
    rc = main(["weights", "--order", "-1", "--n", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("j,weight\n")
    assert out.count("\n") == 5


def test_weights_bad_order(capsys):
    rc = main(["weights", "--order", "1.5", "--n", "3"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_validate_ok(capsys):
    rc = main([
        "validate", "--alpha", "0.5", "--gamma", "0.3", "--m", "1",
        "--resolutions", "4,8", "--reference", "16", "--mesh", "8",
    ])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_warning_still_passes(capsys):
    rc = main([
        "validate", "--alpha", "0.25", "--gamma", "0", "--m", "0",
        "--resolutions", "4,8", "--reference", "16", "--mesh", "8",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("warning:")
    assert "ok" not in out


def test_validate_error_exit_code(capsys):
    rc = main([
        "validate", "--gamma", "1.5",
        "--resolutions", "4,8", "--reference", "16", "--mesh", "8",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().out


def test_validate_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps({"tau": 0.5}))
    rc = main(["validate", "--config", str(cfg)])
    assert rc == 2
    assert "unknown config field" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    '{"resolutions": 20}',
    '{"samples": 1.5}',
    '{"workers": true}',
    '{"t_final": Infinity}',
    '[20, 40]',
])
def test_validate_bad_types_are_one_error_line(tmp_path, doc):
    cfg = tmp_path / "plan.json"
    cfg.write_text(doc)
    proc = subprocess.run(
        [sys.executable, "-m", "fracch.cli", "validate", "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["simulate", "--steps", "0", "--mesh", "8"],
    ["oracle", "--alpha", "0.5", "--resolutions", "0,4", "--mesh", "8"],
])
def test_bad_arguments_are_one_error_line(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "fracch.cli", *argv], capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_plan_flags_override_config_aliases(tmp_path, monkeypatch):
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps({"m": 1.0, "seed": 5, "T": 0.02}))
    seen = []
    monkeypatch.setattr(harness, "validate_config", lambda plan: seen.append(plan) or [])
    assert main(["validate", "--config", str(cfg), "--m", "3", "--seed", "7"]) == 0
    assert seen[0].decay_exponent == 3.0
    assert seen[0].master_seed == 7
    assert seen[0].t_final == 0.02


def test_simulate_deterministic(capsys):
    argv = [
        "simulate", "--case", "b", "--no-noise", "--steps", "4",
        "--mesh", "8", "--t-final", "0.01",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("steps=4 newton_max_iters=")
    assert "terminal_l2=" in first and "mass_drift=" in first


def test_simulate_dumps(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    noise = tmp_path / "noise.csv"
    rc = main([
        "simulate", "--case", "a", "--steps", "4", "--mesh", "8",
        "--modes", "3", "--t-final", "0.01", "--seed", "3",
        "--dump-trajectory", str(traj), "--dump-noise", str(noise),
    ])
    assert rc == 0
    capsys.readouterr()
    tlines = traj.read_text().strip().split("\n")
    assert tlines[0].startswith("n,t,u0")
    assert len(tlines) == 1 + 5
    nlines = noise.read_text().strip().split("\n")
    assert nlines[0] == "j,k,increment"
    assert len(nlines) == 1 + 3 * 4


def test_simulate_dump_noise_requires_noise(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    rc = main([
        "simulate", "--no-noise", "--steps", "2", "--mesh", "8",
        "--dump-trajectory", str(traj), "--dump-noise", str(tmp_path / "x.csv"),
    ])
    assert rc == 2
    assert "dump-noise" in capsys.readouterr().err
    assert not traj.exists()


def test_study_matches_library_run(tmp_path, capsys):
    cfg = tmp_path / "plan.json"
    cfg.write_text(json.dumps({
        "study": "temporal", "case": "b", "alpha": 0.75, "gamma": 0.8,
        "m": 1.0, "T": 0.02, "resolutions": [4, 8], "reference": 16,
        "samples": 3, "mesh_size": 16, "seed": 5,
    }))
    dest = tmp_path / "row.csv"
    rc = main(["study", "--config", str(cfg), "--samples", "2",
               "--out", str(dest)])
    assert rc == 0
    capsys.readouterr()
    table = read_table(dest)

    plan = ExperimentPlan(
        study="temporal", case="b", alpha=0.75, gamma=0.8,
        decay_exponent=1.0, t_final=0.02, resolutions=(4, 8), reference=16,
        samples=2, mesh_size=16, master_seed=5,
    )
    direct = run_study(plan)
    assert table.errors == direct.errors
    assert table.fitted_rate == direct.fitted_rate


def test_oracle_subcommand(tmp_path, capsys):
    dest = tmp_path / "oracle.csv"
    rc = main([
        "oracle", "--alpha", "0.75", "--mesh", "16",
        "--resolutions", "4,8", "--t-final", "0.02", "--modes", "4",
        "--out", str(dest),
    ])
    assert rc == 0
    capsys.readouterr()
    table = read_table(dest)
    assert table.theoretical_rate == 1.0
    assert all(e > 0.0 for e in table.errors)
    assert table.errors[0] > table.errors[1]


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fracch.cli", "weights", "--order", "-0.5",
         "--n", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("j,weight")
