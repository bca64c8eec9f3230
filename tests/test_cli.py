"""Command-line interface tests: artifact layout, exit codes, flag and preset
precedence, and byte-stable output."""

import errno
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracsg import FracOperator, GridSpec, SchemeConfig, _dense, get_problem, run, solvers
from fracsg import cli, diagnostics
from fracsg.cli import SnapshotWriter, main
from fracsg.diagnostics import EnergyRecorder, w_projection_drift
from fracsg.scheme import IeqState


def read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_run_benchmark_produces_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--example", "5.1", "--alpha", "2", "--omega", "1.1",
                 "--domain", "-20", "20", "--h", "0.2", "--tau", "0.02",
                 "--T", "1", "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["example"] == "5.1"
    assert meta["M"] == 200 and meta["N"] == 50
    assert meta["fft_embed_size"] == 400  # 2^4 25 >= 2 (M - 1) - 1 = 397
    assert meta["precond"] == "none"
    assert 1.0 < meta["condition_bound"] < 2.0
    assert (out / "solution_0.csv").exists()
    assert (out / "solution_50.csv").exists()

    energy = read_csv(out / "energy.csv")
    assert energy.shape == (51, 4)
    assert energy[0, 3] == 0.0
    assert np.max(np.abs(energy[:, 3])) <= 1e-8

    final = read_csv(out / "solution_50.csv")
    assert final.shape == (199, 4)
    # displacement stays within the breather's range
    assert np.max(np.abs(final[:, 1])) < 2.0 * np.pi


def test_run_is_byte_stable(tmp_path):
    args = ["run", "--example", "5.2", "--alpha", "1.5", "--domain", "-20", "20",
            "--h", "0.5", "--tau", "0.1", "--T", "0.5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_preset_with_overrides(tmp_path):
    out = tmp_path / "p"
    code = main(["run", "--preset", "soliton1", "--alpha", "1.5", "--h", "0.5",
                 "--tau", "0.05", "--T", "0.1", "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["example"] == "5.1"
    assert meta["omega"] == 1.0  # preset value survives the overrides
    assert meta["domain"] == [-100.0, 100.0]
    assert meta["h"] == 0.5


@pytest.mark.parametrize("argv", [
    ["--preset", "soliton2", "--omega", "2"],
    ["--preset", "soliton1", "--example", "5.2"],  # the preset's own omega 1.0
], ids=["flag", "soliton1-preset"])
def test_omega_for_the_hump_at_rest_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "x"
    code = main(["run", "--alpha", "1.5", "--T", "0.1", "--out", str(out)] + argv)
    assert code == 1
    err = capsys.readouterr().err
    assert "5.2" in err and "omega" in err
    assert not out.exists()


def test_alpha_out_of_range_exits_one(tmp_path, capsys):
    code = main(["run", "--example", "5.1", "--alpha", "2.5", "--domain", "-20", "20",
                 "--h", "0.2", "--tau", "0.02", "--T", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "(1, 2]" in capsys.readouterr().err


def test_nondivisible_mesh_exits_one(tmp_path, capsys):
    code = main(["run", "--example", "5.1", "--alpha", "2", "--domain", "-20", "20",
                 "--h", "0.3", "--tau", "0.02", "--T", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "divide" in capsys.readouterr().err


@pytest.mark.parametrize("setting, value", [("h", "0.3"), ("tau", "0.03")])
def test_nondivisible_base_step_names_the_setting(tmp_path, capsys, setting, value):
    out = tmp_path / "x"
    assert main(["convergence", "--preset", "table1", "--out", str(out),
                 "--" + setting, value]) == 1
    assert capsys.readouterr().err.startswith(f"error: {setting}={value} does not divide")
    assert not out.exists()


@pytest.mark.parametrize("argv, setting", [
    (["run", "--example", "5.2", "--alpha", "1.5", "--domain", "-20", "20", "--h", "40",
      "--tau", "0.1", "--T", "1"], "h"),
    (["convergence", "--preset", "table1", "--h", "40"], "h"),
])
def test_step_leaving_one_subinterval_names_the_setting(tmp_path, capsys, argv, setting):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {setting}=40.0 divides 40.0 into 1 step; need M >= 2 subintervals\n")
    assert not out.exists()


def test_missing_required_setting_exits_one(tmp_path, capsys):
    code = main(["run", "--alpha", "1.5", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "missing required" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["nonsense"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


@pytest.mark.parametrize("command", ["run", "convergence", "energy", "bench"])
def test_help_states_one_default_per_option(capsys, command):
    assert main([command, "--help"]) == 0
    options = {block.split()[0]: " ".join(block.split())
               for block in re.split(r"\n  (?=-)", capsys.readouterr().out)[1:]}
    assert all(text.count("default") <= 1 for text in options.values()), options


def test_convergence_single_level_has_empty_order(tmp_path, monkeypatch):
    monkeypatch.setattr("fracsg.cli.LADDER_LEVELS", 1)
    out = tmp_path / "conv"
    code = main(["convergence", "--example", "5.1", "--alphas", "2",
                 "--domain", "-20", "20", "--h", "1", "--tau", "0.25",
                 "--T", "1", "--out", str(out)])
    assert code == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "alpha,h,tau,reference,difference,error_estimate,order"
    assert lines[1].split(",")[3] == "exact"
    assert len(lines) == 2
    assert lines[1].endswith(",")  # no order on the first ladder level


def test_convergence_preset_scaled_down(tmp_path, monkeypatch):
    monkeypatch.setattr("fracsg.cli.LADDER_LEVELS", 2)
    out = tmp_path / "conv"
    code = main(["convergence", "--preset", "table2", "--alphas", "1.6,2",
                 "--h", "2", "--tau", "0.25", "--T", "0.5", "--out", str(out)])
    assert code == 0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert len(rows) == 5  # header + 2 levels x 2 orders


def test_energy_writes_per_alpha_series(tmp_path):
    from fracsg import FracOperator, GridSpec, discrete_energy, get_problem, initial_state

    out = tmp_path / "en"
    code = main(["energy", "--example", "5.2", "--alphas", "1.5,2",
                 "--domain", "-20", "20", "--h", "0.5", "--tau", "0.1",
                 "--T", "0.5", "--out", str(out)])
    assert code == 0
    for name, alpha in (("energy_1.5.csv", 1.5), ("energy_2.csv", 2.0)):
        series = read_csv(out / name)
        assert series.shape == (6, 4)
        assert series[0, 3] == 0.0
        assert np.max(series[:, 3]) <= 1e-10
        grid = GridSpec(a=-20.0, b=20.0, M=80)
        op = FracOperator(alpha, grid)
        e0 = discrete_energy(initial_state(get_problem("5.2"), grid), op)
        assert series[0, 2] == pytest.approx(e0, rel=1e-15)


@pytest.mark.parametrize("alphas, named", [
    ("1.3,1.3000001", "1.3, 1.3000001 would all write energy_1.3.csv"),
    ("1.5,2,1.5", "1.5, 1.5 would all write energy_1.5.csv"),
])
def test_energy_alphas_sharing_a_file_name_exit_one(tmp_path, capsys, alphas, named):
    out = tmp_path / "en"
    code = main(["energy", "--example", "5.2", "--alphas", alphas, "--domain", "-10", "10",
                 "--h", "0.5", "--tau", "0.1", "--T", "1", "--out", str(out)])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not out.exists()  # refused before the first run


def test_run_meta_records_energy_drift(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--example", "5.2", "--alpha", "1.5", "--domain", "-20", "20",
                 "--h", "0.5", "--tau", "0.1", "--T", "2", "--out", str(out)]) == 0
    drift = json.loads((out / "meta.json").read_text())["energy_drift_max"]
    assert drift > 0.0
    # energy.csv holds RE to 16 significant digits
    assert float(f"{drift:.15e}") == np.max(read_csv(out / "energy.csv")[:, 3])


def test_run_meta_records_w_projection_drift(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--example", "5.2", "--alpha", "1.5", "--domain", "-20", "20",
                 "--h", "0.5", "--tau", "0.1", "--T", "2", "--out", str(out)]) == 0
    cfg = SchemeConfig(grid=GridSpec(a=-20.0, b=20.0, M=80), alpha=1.5, T=2.0, N=20)
    drifts = []
    run(get_problem("5.2"), cfg,
        observers=(lambda state, stats: drifts.append(w_projection_drift(state)),))
    assert len(drifts) == 21 and drifts[0] == 0.0
    assert json.loads((out / "meta.json").read_text())["w_drift_max"] == max(drifts) > 0.0


def _boundary_max(tmp_path, alpha, a, b):
    out = tmp_path / f"{alpha}_{b}"
    assert main(["run", "--example", "5.1", "--omega", "1.1", "--alpha", str(alpha),
                 "--domain", str(a), str(b), "--h", "0.2", "--tau", "0.05", "--T", "1",
                 "--out", str(out)]) == 0
    return json.loads((out / "meta.json").read_text())["boundary_max"]


def test_run_meta_records_zero_exterior_truncation(tmp_path):
    # near exact at alpha = 2; below, algebraic tails that a wider domain shrinks
    assert _boundary_max(tmp_path, 2, -20, 20) < 1e-7
    narrow = _boundary_max(tmp_path, 1.3, -20, 20)
    assert narrow > 1e-5
    assert _boundary_max(tmp_path, 1.3, -40, 40) <= narrow / 4


def test_run_meta_boundary_max_is_the_largest_edge_value(tmp_path):
    out = tmp_path / "run"
    assert main(RUN_ARGS + ["--out", str(out)]) == 0
    edges = [np.abs(read_csv(path)[[0, -1], 1]).max() for path in out.glob("solution_*.csv")]
    # every level is written at RUN_ARGS' stride, to 16 significant digits
    boundary_max = json.loads((out / "meta.json").read_text())["boundary_max"]
    assert float(f"{boundary_max:.15e}") == max(edges) > 0.0


@pytest.mark.parametrize("argv", [
    ["energy", "--example", "5.2", "--domain", "-10", "10", "--h", "0.5", "--tau", "0.1",
     "--T", "1", "--alphas", "1.5,2.5"],
    ["energy", "--preset", "fig2", "--alphas", "1.5, 1"],
    ["convergence", "--preset", "table1", "--alphas", "1.5,2.0000001"],
], ids=["energy-flag", "energy-preset", "convergence"])
def test_alphas_out_of_range_exit_one_before_any_run(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr("fracsg.cli.run", None)  # a run would fail with TypeError
    monkeypatch.setattr("fracsg.cli.convergence_ladder", None)
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid alphas " in err and "(1, 2]" in err
    assert not out.exists()


def bench_at(monkeypatch, **settings):
    """Makes bench, which takes no setting flags, run at ``settings`` instead of its
    fixed ones: ``sizes=`` patches ``cli.BENCH_SIZES``, and so on."""
    for name, value in settings.items():
        monkeypatch.setattr(f"fracsg.cli.BENCH_{name.upper()}", value)


def test_bench_checks_every_config_before_any_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("fracsg.cli.run", None)  # a timed run would fail with TypeError
    bench_at(monkeypatch, sizes=(64,), alphas=(1.5,), taus=(0.1, 0.3), T=1.0)
    out = tmp_path / "b"
    assert main(["bench", "--out", str(out)]) == 1
    assert "tau=0.3 does not divide 1.0" in capsys.readouterr().err
    assert not out.exists()


def test_bench_small_instance(tmp_path, monkeypatch):
    bench_at(monkeypatch, sizes=(64,), alphas=(1.5,), taus=(0.1,), T=0.2)
    out = tmp_path / "bench"
    assert main(["bench", "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "alpha,M,h,tau,steps,direct_seconds,fft_seconds,solution_diff"
    assert lines[1].startswith("1.500000000000000e+00,64,1.000000000000000e-01,"
                               "1.000000000000000e-01,2,")
    rows = read_csv(out / "bench.csv")
    assert rows.shape == (1, 8)
    assert rows[0, 7] <= solvers.CG_DEFAULT_TOL_CEILING  # direct and FFT paths agree


RUN_ARGS = ["run", "--example", "5.1", "--alpha", "2", "--domain", "-20", "20",
            "--h", "0.2", "--tau", "0.02", "--T", "1"]


@pytest.mark.parametrize("argv, setting", [
    (RUN_ARGS + ["--h", "0"], "h"),
    (RUN_ARGS + ["--tau", "0"], "tau"),
    (RUN_ARGS + ["--T", "-1"], "T"),
    (RUN_ARGS + ["--h", "nan"], "h"),
    (["energy", "--preset", "fig2", "--tau", "0"], "tau"),
    (["convergence", "--preset", "table1", "--h", "0"], "h"),
    (["convergence", "--preset", "table1", "--tau", "inf"], "tau"),
])
def test_nonpositive_step_exits_one(tmp_path, capsys, argv, setting):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    assert f"invalid {setting} " in capsys.readouterr().err


@pytest.mark.parametrize("argv, setting", [
    (RUN_ARGS + ["--tau", "0.1", "--T", "1e-11"], "tau"),
    (["convergence", "--preset", "table1", "--tau", "0.1", "--T", "1e-11"], "tau"),
], ids=["run", "convergence"])
def test_step_longer_than_its_interval_names_the_setting(tmp_path, capsys, argv, setting):
    # 1e-11 / 0.1 rounds to no step at all
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {setting}=0.1 does not divide 1e-11 into whole steps\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, out", [
    (RUN_ARGS, "file/x"),
    (["energy", "--preset", "fig2", "--alphas", "2", "--T", "0.1"], "file"),
], ids=["under-a-file", "an-existing-file"])
def test_unwritable_out_exits_one(tmp_path, capsys, argv, out):
    (tmp_path / "file").write_text("")
    assert main(argv + ["--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "file") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["energy", "--preset", "fig2"],
    ["convergence", "--preset", "table1"],
], ids=["energy", "convergence"])
@pytest.mark.parametrize("out", ["file", "file/x"], ids=["an-existing-file", "under-a-file"])
def test_out_that_cannot_be_a_directory_exits_one_before_any_run(tmp_path, capsys, monkeypatch,
                                                                 argv, out):
    monkeypatch.setattr("fracsg.cli.run", None)  # a run would fail with TypeError
    monkeypatch.setattr("fracsg.cli.convergence_ladder", None)
    (tmp_path / "file").write_text("")
    assert main(argv + ["--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{tmp_path / 'file'} is not a directory" in err
    assert (tmp_path / "file").read_text() == ""


@pytest.mark.parametrize("argv", [
    ["energy", "--preset", "fig2", "--alphas", ""],
    ["convergence", "--preset", "table1", "--alphas", " "],
    ["energy", "--preset", "fig4", "--alphas", ","],
])
def test_empty_list_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    assert "nonempty" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_removed_method_flag_is_rejected(tmp_path):
    for flag in (["--method", "direct"], ["--precond", "none"]):
        assert main(RUN_ARGS + flag + ["--out", str(tmp_path / "x")]) == 1, flag


@pytest.mark.parametrize("argv", [
    RUN_ARGS, ["convergence", "--preset", "table1"], ["energy", "--preset", "fig2"], ["bench"],
], ids=["run", "convergence", "energy", "bench"])
def test_removed_config_flag_is_rejected(tmp_path, capsys, argv):
    settings = tmp_path / "settings.txt"
    settings.write_text("T = 0.1\n")
    out = tmp_path / "x"
    assert main(argv + ["--config", str(settings), "--out", str(out)]) == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert main([argv[0], "--help"]) == 0
    assert "--config" not in capsys.readouterr().out
    assert not out.exists()


SETTINGS_OF = {"run": RUN_ARGS, "convergence": ["convergence", "--preset", "table1"],
               "energy": ["energy", "--preset", "fig2"], "bench": ["bench"]}


@pytest.mark.parametrize("command, flag, value", [
    *((command, "--cg-tol", "1e-6") for command in SETTINGS_OF),
    ("run", "--snapshot-stride", "10"),
    ("bench", "--reps", "1"),
    ("bench", "--omega", "1.1"),
    ("bench", "--h", "0.2"),  # not read as --help
    ("bench", "--sizes", "64"),
    ("bench", "--alphas", "1.5"),
    ("bench", "--taus", "0.1"),
    ("bench", "--T", "1"),
    ("convergence", "--levels", "2"),
    ("convergence", "--omega", "1.1"),
    ("convergence", "--base-h", "0.2"),
    ("convergence", "--base-tau", "0.02"),
    ("energy", "--omega", "1.1"),
])
def test_removed_setting_flag_is_rejected(tmp_path, capsys, command, flag, value):
    out = tmp_path / "x"
    assert main(SETTINGS_OF[command] + [flag, value, "--out", str(out)]) == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert main([command, "--help"]) == 0
    assert flag + " " not in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize("command", SETTINGS_OF)
def test_empty_out_exits_one_before_any_run(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("fracsg.cli.run", None)  # a run would fail with TypeError
    monkeypatch.setattr("fracsg.cli.convergence_ladder", None)
    monkeypatch.chdir(tmp_path)  # Path("") is the working directory
    assert main(SETTINGS_OF[command] + ["--out", ""]) == 1
    assert capsys.readouterr().err == "error: --out '' names no directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, domain", [
    (["run", "--example", "5.2", "--alpha", "1.5", "--domain", "20", "-20", "--h", "0.2",
      "--tau", "0.1", "--T", "1"], "20 -20"),
    (["run", "--example", "5.2", "--alpha", "1.5", "--domain", "5", "5", "--h", "0.2",
      "--tau", "0.1", "--T", "1"], "5 5"),
    (["convergence", "--preset", "table1", "--domain", "20", "-20"], "20 -20"),
], ids=["run-reversed", "run-empty", "convergence-reversed"])
def test_reversed_or_empty_domain_names_the_domain(tmp_path, capsys, monkeypatch, argv, domain):
    monkeypatch.setattr("fracsg.cli.run", None)  # a run would fail with TypeError
    monkeypatch.setattr("fracsg.cli.convergence_ladder", None)
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: invalid domain '{domain}': needs two values A < B\n"
    assert not out.exists()


def test_default_cg_tolerance_follows_condition_bound(tmp_path):
    # kappa = 40001, whose floor eps * kappa = 8.9e-12 lies above 1e-12
    stiff_args = ["run", "--example", "5.1", "--alpha", "2", "--domain", "-5", "5",
                  "--h", "0.0025", "--tau", "0.5", "--T", "1"]
    meta = {}
    for name, argv in (("plain", RUN_ARGS), ("stiff", stiff_args)):
        out = tmp_path / name
        assert main(argv + ["--out", str(out)]) == 0, name
        meta[name] = json.loads((out / "meta.json").read_text())
    assert meta["plain"]["cg_rel_tol"] == 1e-12
    stiff = meta["stiff"]
    assert stiff["condition_bound"] > 4e4
    assert stiff["cg_rel_tol"] == 10.0 * np.finfo(np.float64).eps * stiff["condition_bound"]
    assert stiff["residual_max"] <= stiff["cg_rel_tol"]


def test_default_cg_tolerance_above_its_ceiling_exits_two(tmp_path, capsys):
    # M = 1,000 and tau = 3 give a condition bound of 2.25e14, where the
    # default 10 eps kappa would be 0.5 and a step could end 5 % off
    probe = ["run", "--example", "5.2", "--alpha", "2", "--domain", "-0.0001", "0.0001",
             "--h", "2e-7", "--tau", "3", "--T", "6"]
    assert main(probe + ["--out", str(tmp_path / "default")]) == 2
    err = capsys.readouterr().err
    assert "condition bound 2.25e+14 at h=2e-07, tau=3" in err
    assert f"exceeds its ceiling {solvers.CG_DEFAULT_TOL_CEILING:g}" in err
    assert not (tmp_path / "default").exists()  # refused before any output


@pytest.mark.parametrize("argv, setting", [
    (RUN_ARGS + ["--omega", "inf"], "omega"),
    (RUN_ARGS + ["--omega", "nan"], "omega"),
    # argparse reads "-inf" as an option, so the infinite endpoint is the right one
    (RUN_ARGS + ["--domain", "0", "inf"], "domain"),
    (RUN_ARGS + ["--domain", "nan", "20"], "domain"),
], ids=["omega-inf", "omega-nan", "domain-inf", "domain-nan"])
def test_non_finite_setting_exits_one(tmp_path, capsys, argv, setting):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    assert f"invalid {setting} " in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_energy_exits_two(tmp_path):
    # a step of 1e-300 overflows the energy at level 1: the first start 1.5 U^0 - 0.5 U^{-1}
    # is an ulp off U^0 + (tau/2) V^0, and V = 2 (U^{1/2} - U^0)/tau turns that ulp into a
    # V whose square overflows; in a child interpreter, because the overflow's
    # RuntimeWarning is an error under this suite's warning filter
    out = tmp_path / "x"
    argv = ["run", "--example", "5.2", "--alpha", "1.5", "--domain", "-5", "5", "--h", "0.5",
            "--tau", "1e-300", "--T", "1e-299", "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "fracsg.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "numerical failure: non-finite discrete energy inf at level 1 for alpha=1.5\n" in (
        proc.stderr)
    assert not list(out.glob("*"))  # nor the snapshot of level 0, written before


def test_energy_failing_at_a_later_alpha_leaves_no_series(tmp_path, monkeypatch, capsys):
    seen, energy = [], diagnostics.discrete_energy

    def second_row_overflowing_at_level_1(state, op):
        seen.append((op.alpha, state.n))
        energies = energy(state, op)
        return [energies[0], math.inf] if state.n == 1 else energies

    monkeypatch.setattr(diagnostics, "discrete_energy", second_row_overflowing_at_level_1)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)  # one group: one stack, in-process
    out = tmp_path / "e"
    assert main(["energy", "--example", "5.2", "--alphas", "1.5,2", "--domain", "-5", "5",
                 "--h", "0.5", "--tau", "0.1", "--T", "0.2", "--out", str(out)]) == 2
    # the orders step as one stack, one recorder reading both rows' energies at each level
    assert seen == [((1.5, 2.0), 0), ((1.5, 2.0), 1)]
    err = capsys.readouterr().err
    assert "numerical failure: non-finite discrete energy inf at level 1 for alpha=2\n" in err
    assert not list(out.glob("*"))


# kappa bar 2.6, 3.8 and 6.8: only alpha = 2 takes the circulant preconditioner
MIXED_STACK = ["--example", "5.2", "--domain", "-10", "10", "--h", "0.25", "--tau", "0.6",
               "--T", "6"]


def test_energy_stack_equals_separate_runs_bit_for_bit(tmp_path, monkeypatch):
    import fracsg.scheme

    alphas = (1.3, 1.6, 2.0)
    iterations, recorders, results = {}, [], []
    solve, real_run = fracsg.scheme.solve, cli.run

    def recording_solve(mat, rhs, *args, **kwargs):
        x, stats = solve(mat, rhs, *args, **kwargs)
        iterations.setdefault(mat.op.alpha, []).append(stats.iterations)
        return x, stats

    class KeptRecorder(EnergyRecorder):
        def __init__(self, op):
            super().__init__(op)
            recorders.append(self)

    monkeypatch.setattr(fracsg.scheme, "solve", recording_solve)
    monkeypatch.setattr(cli, "EnergyRecorder", KeptRecorder)
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: results.append(
        real_run(*args, **kwargs)))
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)  # one group: one stack, in-process
    assert main(["energy", "--alphas", "1.3,1.6,2", *MIXED_STACK,
                 "--out", str(tmp_path / "e")]) == 0
    (stack,), (kept,), cfg = results, recorders, cli._scheme_config(
        {"domain": (-10.0, 10.0), "h": 0.25, "tau": 0.6, "T": 6.0}, alphas)
    for i, alpha in enumerate(alphas):
        op = FracOperator(alpha, cfg.grid)
        recorder = EnergyRecorder(op)
        single = run(get_problem("5.2"), replace(cfg, alpha=alpha), observers=(recorder,), op=op)
        assert kept.op.alpha[i] == alpha
        assert np.array_equal(np.array(kept.series[i]), np.array(recorder.series[0]))
        for name in ("U", "V", "W"):
            assert np.array_equal(getattr(stack.state, name)[i], getattr(single.state, name))
    # the rows left the stack's CG at different iterations, the last one ending it
    per_step = list(zip(*(iterations[(alpha,)] for alpha in alphas)))  # a float: one row
    assert any(len(set(counts)) == len(alphas) for counts in per_step)
    assert iterations[alphas] == [max(counts) for counts in per_step]
    assert np.array_equal(run(get_problem("5.2"), cfg).state.W, stack.state.W)  # op built by run


def test_energy_refuses_an_unusable_tolerance_at_any_order_before_any_step(tmp_path, capsys,
                                                                          monkeypatch):
    import fracsg.scheme

    calls = []

    def solve(*args, **kwargs):
        calls.append(1)
        raise solvers.NumericalFailure("a step was taken")

    monkeypatch.setattr(fracsg.scheme, "solve", solve)
    out = tmp_path / "e"
    # kappa bar 9e6 at alpha = 2 only, whose default tolerance exceeds its ceiling
    assert main(["energy", "--example", "5.2", "--alphas", "1.5,2", "--domain", "-0.5", "0.5",
                 "--h", "1e-3", "--tau", "3", "--T", "6", "--out", str(out)]) == 2
    assert calls == []
    err = capsys.readouterr().err
    assert "exceeds its ceiling" in err and "for alpha=2;" in err
    assert not out.exists()


def test_energy_builds_one_preconditioner_per_group(tmp_path, monkeypatch):
    # the tolerance check before any step builds none; both orders are preconditioned
    builds, build = [], solvers.build_circulant_preconditioner
    monkeypatch.setattr(solvers, "build_circulant_preconditioner",
                        lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    assert main(["energy", "--example", "5.1", "--alphas", "1.5,1.8", "--domain", "-5", "5",
                 "--h", "0.01", "--tau", "0.1", "--T", "0.2", "--out", str(tmp_path / "e")]) == 0
    assert len(builds) == 1


RUN_5_2 = ["run", "--example", "5.2", "--alpha", "1.5", "--domain", "-10", "10",
           "--h", "0.5", "--tau", "0.1", "--T", "1"]


@pytest.mark.parametrize("argv, name", [
    (RUN_5_2, "solution_3.csv"),  # the fourth snapshot: the stride is 1
    (RUN_5_2, "energy.csv"),
    (RUN_5_2, "meta.json"),
    (["energy", "--example", "5.2", "--alphas", "1.5,2", "--domain", "-5", "5",
      "--h", "0.5", "--tau", "0.1", "--T", "0.2"], "energy_2.csv"),
], ids=["run-snapshot", "run-energy", "run-meta", "energy-second-order"])
def test_write_error_mid_run_leaves_no_output(tmp_path, monkeypatch, capsys, argv, name):
    # a full disk, simulated: opening the named file fails with ENOSPC
    real_open = Path.open

    def open_or_fail(path, *args, **kwargs):
        if path.name == name:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_or_fail)
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno.ENOSPC}]")
    assert out.is_dir() and not list(out.glob("*"))


def full_disk(monkeypatch, name, writes):
    """Simulates a disk that fills up in the file ``name``: opening it fails with
    ENOSPC if ``writes`` is 0, else its write after the first ``writes`` does."""
    real_open = Path.open

    def enospc(path):
        return OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    class Filling:
        def __init__(self, path, f):
            self.path, self.f, self.left = path, f, writes

        def write(self, data):
            if not self.left:
                raise enospc(self.path)
            self.left -= 1
            return self.f.write(data)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

    def open_filling(path, *args, **kwargs):
        if path.name != name:
            return real_open(path, *args, **kwargs)
        if not writes:
            raise enospc(path)
        return Filling(path, real_open(path, *args, **kwargs))

    monkeypatch.setattr(Path, "open", open_filling)


def stub_timed_run(monkeypatch, t_direct=1.0, t_fft=0.5, u_direct=0.0):
    """Makes bench's timed runs return at once: the direct path ``t_direct`` s and
    a solution of ``u_direct``, the FFT path ``t_fft`` s and a solution of 0."""
    def timed_run(problem, cfg, reps):
        if cfg.solve is _dense.solve:
            return t_direct, np.full(cfg.grid.M - 1, u_direct)
        return t_fft, np.zeros(cfg.grid.M - 1)

    monkeypatch.setattr(cli, "_timed_run", timed_run)
    bench_at(monkeypatch, sizes=(400,), alphas=(1.5,), taus=(0.1,), T=0.2)


@pytest.mark.parametrize("argv, name", [
    (["convergence", "--example", "5.2", "--alphas", "1.5", "--domain", "-5", "5",
      "--h", "0.5", "--tau", "0.1", "--T", "0.2"], "convergence.csv"),
    (["bench"], "bench.csv"),
], ids=["convergence", "bench"])
def test_write_error_partway_through_a_file_leaves_no_output(tmp_path, monkeypatch, capsys,
                                                              argv, name):
    stub_timed_run(monkeypatch)
    full_disk(monkeypatch, name, writes=1)  # the header goes through, the first row fails
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: [Errno {errno.ENOSPC}]")
    assert out.is_dir() and not list(out.iterdir())


def test_failed_command_removes_only_the_files_it_opened(tmp_path, monkeypatch):
    out = tmp_path / "x"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    full_disk(monkeypatch, "solution_3.csv", writes=0)  # the fourth snapshot: the stride is 1
    assert main(RUN_5_2 + ["--out", str(out)]) == 1
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "kept\n"


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="snapshots are written in-process")


def failing_at_level_3(state):
    if state.n == 3:
        raise solvers.NumericalFailure("injected at level 3")
    return w_projection_drift(state)


@needs_fork
@pytest.mark.parametrize("code", [0, 1, 2])
def test_no_process_outlives_main(tmp_path, monkeypatch, code):
    if code == 1:
        full_disk(monkeypatch, "solution_3.csv", writes=0)
    if code == 2:
        monkeypatch.setattr(cli, "w_projection_drift", failing_at_level_3)
    out = tmp_path / "x"
    assert main(RUN_5_2 + ["--out", str(out)]) == code
    with pytest.raises(ChildProcessError):  # the writer is reaped: no child is left
        os.waitpid(-1, os.WNOHANG)
    assert len(list(out.iterdir())) == (13 if code == 0 else 0)  # 11 snapshots, energy, meta


@needs_fork
def test_failure_in_this_process_kills_the_writer_first(tmp_path, monkeypatch, capsys):
    # only the forked writer formats snapshots, so only it stalls, at solution_0.csv
    monkeypatch.setattr(cli, "csv_lines", lambda table: time.sleep(10))
    monkeypatch.setattr(cli, "w_projection_drift", failing_at_level_3)
    out = tmp_path / "x"
    start = time.perf_counter()
    assert main(RUN_5_2 + ["--out", str(out)]) == 2
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == "numerical failure: injected at level 3\n"
    assert not list(out.glob("*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_in_process_writer_writes_the_forked_bytes(tmp_path, monkeypatch):
    assert main(RUN_5_2 + ["--out", str(tmp_path / "forked")]) == 0
    monkeypatch.delattr(os, "fork")  # as on Windows
    assert main(RUN_5_2 + ["--out", str(tmp_path / "in_process")]) == 0
    forked = sorted((tmp_path / "forked").iterdir())
    assert [p.name for p in forked] == sorted(p.name for p in (tmp_path / "in_process").iterdir())
    for path in forked:
        assert path.read_bytes() == (tmp_path / "in_process" / path.name).read_bytes()


ENERGY_MIXED = ["energy", "--alphas", "1.3,1.6,2", *MIXED_STACK]
CONVERGENCE_3 = ["convergence", "--example", "5.2", "--alphas", "1.3,1.6,2", "--domain", "-5",
                 "5", "--h", "0.5", "--tau", "0.1", "--T", "0.2"]


def counted_forks(monkeypatch) -> list:
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


@needs_fork
@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("argv", [ENERGY_MIXED, CONVERGENCE_3], ids=["energy", "convergence"])
def test_orders_on_cores_write_the_in_process_bytes(tmp_path, monkeypatch, argv, cores):
    monkeypatch.setattr(cli, "LADDER_LEVELS", 2)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
    assert main(argv + ["--out", str(tmp_path / "in_process")]) == 0
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    forks = counted_forks(monkeypatch)
    assert main(argv + ["--out", str(tmp_path / "split")]) == 0
    assert len(forks) == min(3, cores) - 1  # the 3 orders in min(3, cores) groups
    split = sorted((tmp_path / "split").iterdir())
    assert [p.name for p in split] == sorted(p.name for p in (tmp_path / "in_process").iterdir())
    for path in split:
        assert path.read_bytes() == (tmp_path / "in_process" / path.name).read_bytes()


def in_group(monkeypatch, group: str, action) -> None:
    """Patch cli.EnergyRecorder and cli.convergence_ladder to call ``action`` at level 1 or
    ladder start, in this process (group "parent") or in a forked one ("child")."""
    parent, real_ladder = os.getpid(), cli.convergence_ladder

    def chosen():
        return (os.getpid() == parent) == (group == "parent")

    class Recorder(EnergyRecorder):
        def __call__(self, state, stats):
            if state.n == 1 and chosen():
                action()
            super().__call__(state, stats)

    def ladder(*args, **kwargs):
        if chosen():
            action()
        return real_ladder(*args, **kwargs)

    monkeypatch.setattr(cli, "EnergyRecorder", Recorder)
    monkeypatch.setattr(cli, "convergence_ladder", ladder)


def injected():
    raise solvers.NumericalFailure("injected")


@needs_fork
@pytest.mark.parametrize("group", ["parent", "child"])
@pytest.mark.parametrize("argv", [ENERGY_MIXED, CONVERGENCE_3], ids=["energy", "convergence"])
def test_numerical_failure_in_any_group_exits_two_and_leaves_no_child(tmp_path, monkeypatch,
                                                                      capsys, argv, group):
    monkeypatch.setattr(cli, "LADDER_LEVELS", 2)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    in_group(monkeypatch, group, injected)
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "numerical failure: injected\n"
    with pytest.raises(ChildProcessError):  # every child is reaped
        os.waitpid(-1, os.WNOHANG)
    assert not out.exists()


@needs_fork
def test_failure_in_this_process_kills_the_children_first(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    in_group(monkeypatch, "parent", injected)
    in_group(monkeypatch, "child", lambda: time.sleep(60))  # a child still at work
    start = time.perf_counter()
    assert main(CONVERGENCE_3 + ["--out", str(tmp_path / "x")]) == 2
    assert time.perf_counter() - start < 30
    assert capsys.readouterr().err == "numerical failure: injected\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("parent_fails", [True, False], ids=["parent", "children"])
def test_errors_are_raised_in_start_order(tmp_path, monkeypatch, capsys, parent_fails):
    # three groups, each failing with its own message: this process's error wins, else group 1's
    parent, real_ladder = os.getpid(), cli.convergence_ladder

    def ladder(problem, cfg, levels):
        if os.getpid() != parent or parent_fails:
            raise solvers.NumericalFailure(f"injected at alpha={cfg.alpha:g}")
        return real_ladder(problem, cfg, levels)

    monkeypatch.setattr(cli, "LADDER_LEVELS", 2)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 3)
    monkeypatch.setattr(cli, "convergence_ladder", ladder)
    assert main(CONVERGENCE_3 + ["--out", str(tmp_path / "x")]) == 2
    first = "1.3" if parent_fails else "1.6"
    assert capsys.readouterr().err == f"numerical failure: injected at alpha={first}\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("child", ["writer", "energy", "convergence"])
def test_child_dying_without_a_report_exits_one(tmp_path, monkeypatch, capsys, child):
    # the snapshot writer, or a group of orders: each child of cli._Children dies alike
    if child == "writer":  # only the forked writer formats snapshots, so only it dies
        argv = RUN_5_2
        monkeypatch.setattr(cli, "csv_lines", lambda table: os._exit(3))
    else:
        argv = ENERGY_MIXED if child == "energy" else CONVERGENCE_3
        monkeypatch.setattr(cli, "LADDER_LEVELS", 2)
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        in_group(monkeypatch, "child", lambda: os._exit(3))
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: child process exited with status 3 and no report\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert out.exists() == (child == "writer")  # the writer made --out before it died
    assert not list(out.glob("*"))


def test_bench_paths_disagreeing_exits_two_without_output(tmp_path, monkeypatch, capsys):
    stub_timed_run(monkeypatch, u_direct=1e-6)
    out = tmp_path / "b"
    assert main(["bench", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("numerical failure: direct and FFT solution paths "
                                       "disagree by 1.000e-06 (alpha=1.5, M=400, tau=0.1)\n")
    assert not out.exists()


def test_bench_fft_slower_exits_two_and_keeps_its_csv(tmp_path, monkeypatch, capsys):
    stub_timed_run(monkeypatch, t_direct=1.0, t_fft=2.0)
    out = tmp_path / "b"
    assert main(["bench", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("numerical failure: FFT path slower than direct at "
                                       "M >= 400:\n  alpha=1.5 M=400 tau=0.1: "
                                       "fft 2.000s > direct 1.000s\n")
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "alpha,M,h,tau,steps,direct_seconds,fft_seconds,solution_diff"
    assert len(lines) == 2 and lines[1].startswith("1.500000000000000e+00,400,")


def test_stiff_run_records_circulant_preconditioner(tmp_path):
    from fracsg.solvers import CIRCULANT_MIN_BOUND

    out = tmp_path / "stiff"
    code = main(["run", "--example", "5.1", "--alpha", "1.8", "--domain", "-5", "5",
                 "--h", "0.01", "--tau", "0.5", "--T", "1", "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["precond"] == "circulant"
    assert meta["condition_bound"] > CIRCULANT_MIN_BOUND


def test_import_loads_no_scipy():
    code = "import sys, fracsg.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# flag: main is handed the flags; default: main reads its default argv,
# sys.argv, as the fracsg console script does
@pytest.mark.parametrize("call", ["code = cli.main(['bench', '--out', out])",
                                  "sys.argv[1:] = ['bench', '--out', out]; code = cli.main()"],
                         ids=["flag", "default"])
def test_bench_loads_the_dense_solve_before_the_first_timed_run(tmp_path, call):
    # a fresh interpreter, so that no other test has loaded _dense or SciPy; the
    # spy runs inside the timed interval, when the first run starts
    code = ("import sys, fracsg.cli as cli\n"
            "cli.BENCH_SIZES, cli.BENCH_ALPHAS, cli.BENCH_TAUS, cli.BENCH_T = "
            "(16,), (1.5,), (0.1,), 0.2\n"
            "real, loaded = cli.run, []\n"
            "def spy(*args, **kwargs):\n"
            "    loaded.append('fracsg._dense' in sys.modules\n"
            "                  and not any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
            "    return real(*args, **kwargs)\n"
            "cli.run = spy\n"
            "out = sys.argv[1]\n"
            f"{call}\n"
            "assert code == 0\n"
            "print(loaded[0])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "b")], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "True"


def test_bench_beyond_direct_size_limit_exits_one(tmp_path, capsys, monkeypatch):
    def never(arg):
        raise AssertionError("dense matrix allocated")

    monkeypatch.setattr(_dense, "step_matrix", never)
    monkeypatch.setattr(_dense, "operator_matrix", never)
    bench_at(monkeypatch, sizes=(20000,), alphas=(1.5,), taus=(0.1,), T=0.2)
    out = tmp_path / "b"
    assert main(["bench", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"limited to {_dense.DIRECT_MAX_SIZE} unknowns, got 19999" in err
    assert not out.exists()


finite = st.floats(allow_nan=False, allow_infinity=False)
extreme = st.one_of(  # magnitudes near 1e+-300, and zeros and subnormals
    st.floats(1e299, 1e301), st.floats(1e-301, 1e-299), st.floats(0.0, 2.2250738585072014e-308),
).flatmap(lambda v: st.sampled_from([v, -v]))
columns = finite | extreme


@given(rows=st.lists(st.tuples(finite, columns, columns, columns), min_size=1, max_size=40),
       stride=st.integers(1, 7), last=st.integers(0, 20), block=st.integers(1, 9))
def test_snapshot_bytes_match_row_by_row_format(rows, stride, last, block):
    x, U, V, W = (np.array(col) for col in zip(*rows))
    # blocks of a few rows, so that files span several and most end in a partial one
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_BLOCK", block)
        out = Path(tmp)
        with SnapshotWriter(cli.Outputs(tmp), x, stride, last) as writer:
            for n in range(last + 1):
                writer(IeqState(U=U, V=V, W=W, t=0.0, n=n), None)
        expected = {f"solution_{n}.csv" for n in range(last + 1)
                    if n % stride == 0 or n == last}
        assert {p.name for p in out.iterdir()} == expected
        reference = "x,U,V,W\n" + "".join(
            ",".join("{:.15e}".format(v) for v in row) + "\n" for row in rows)
        for name in expected:
            assert (out / name).read_bytes() == reference.encode()
