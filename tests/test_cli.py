"""Command-line interface tests: artifact layout, exit codes, config-file
precedence, and byte-stable output."""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracsg import FracOperator, solvers
from fracsg.cli import SnapshotWriter, main
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
    assert meta["fft_embed_size"] == 512
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


def test_missing_required_setting_exits_one(tmp_path, capsys):
    code = main(["run", "--alpha", "1.5", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "missing required" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["nonsense"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "settings.txt"
    cfg.write_text(
        "# benchmark configuration\n"
        "example = 5.2\n"
        "alpha = 1.5\n"
        "domain = -20 20\n"
        "h = 0.5\n"
        "tau = 0.1\n"
        "T = 0.5\n")
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--alpha", "1.9", "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["alpha"] == 1.9  # flag wins
    assert meta["example"] == "5.2"  # file supplies the rest


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "settings.txt"
    cfg.write_text("alpha = 1.5\nwavelength = 3\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "wavelength" in capsys.readouterr().err


def test_convergence_single_level_has_empty_order(tmp_path):
    out = tmp_path / "conv"
    code = main(["convergence", "--example", "5.1", "--alphas", "2", "--omega", "1.1",
                 "--domain", "-20", "20", "--base-h", "1", "--base-tau", "0.25",
                 "--levels", "1", "--T", "1", "--out", str(out)])
    assert code == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "alpha,h,tau,error,order"
    assert len(lines) == 2
    assert lines[1].endswith(",")  # no order on the first ladder level


def test_convergence_preset_scaled_down(tmp_path):
    out = tmp_path / "conv"
    code = main(["convergence", "--preset", "table2", "--alphas", "1.6,2",
                 "--base-h", "2", "--base-tau", "0.25", "--levels", "2",
                 "--T", "0.5", "--out", str(out)])
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


def test_bench_rejects_empty_sizes(tmp_path, capsys):
    code = main(["bench", "--sizes", "", "--out", str(tmp_path / "b")])
    assert code == 1
    assert "nonempty" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config", [
    (["energy", "--example", "5.2", "--domain", "-10", "10", "--h", "0.5", "--tau", "0.1",
      "--T", "1", "--alphas", "1.5,2.5"], ""),
    (["energy", "--preset", "fig2"], "alphas = 1.5, 1\n"),
    (["convergence", "--preset", "table1", "--alphas", "1.5,2.0000001"], ""),
    (["bench", "--alphas", "1.5,nan"], ""),
], ids=["energy-flag", "energy-file", "convergence", "bench"])
def test_alphas_out_of_range_exit_one_before_any_run(tmp_path, capsys, monkeypatch, argv,
                                                     config):
    monkeypatch.setattr("fracsg.cli.run", None)  # a run would fail with TypeError
    monkeypatch.setattr("fracsg.cli.convergence_ladder", None)
    cfg = tmp_path / "settings.txt"
    cfg.write_text(config)
    out = tmp_path / "x"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid alphas " in err and "(1, 2]" in err
    assert not out.exists()


def test_bench_sizes_below_two_exit_one_before_any_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("fracsg.cli.run", None)
    out = tmp_path / "b"
    assert main(["bench", "--sizes", "20,0", "--taus", "0.5", "--T", "1", "--reps", "1",
                 "--out", str(out)]) == 1
    assert "invalid sizes '20,0': needs M >= 2 subintervals" in capsys.readouterr().err
    assert not out.exists()


def test_bench_small_instance(tmp_path):
    out = tmp_path / "bench"
    code = main(["bench", "--sizes", "64", "--alphas", "1.5", "--taus", "0.1",
                 "--T", "0.2", "--reps", "1", "--out", str(out)])
    assert code == 0
    rows = read_csv(out / "bench.csv")
    assert rows.shape == (1, 8)
    assert rows[0, 7] <= 1e-8  # direct and FFT paths agree


RUN_ARGS = ["run", "--example", "5.1", "--alpha", "2", "--domain", "-20", "20",
            "--h", "0.2", "--tau", "0.02", "--T", "1"]


@pytest.mark.parametrize("argv, setting", [
    (RUN_ARGS + ["--h", "0"], "h"),
    (RUN_ARGS + ["--tau", "0"], "tau"),
    (RUN_ARGS + ["--T", "-1"], "T"),
    (RUN_ARGS + ["--h", "nan"], "h"),
    (["energy", "--preset", "fig2", "--tau", "0"], "tau"),
    (["convergence", "--preset", "table1", "--base-h", "0"], "base_h"),
    (["convergence", "--preset", "table1", "--base-tau", "inf"], "base_tau"),
    (["bench", "--taus", "0.1,0"], "taus"),
])
def test_nonpositive_step_exits_one(tmp_path, capsys, argv, setting):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    assert f"invalid {setting} " in capsys.readouterr().err


def test_nonpositive_step_in_config_file_exits_one(tmp_path, capsys):
    cfg = tmp_path / "settings.txt"
    cfg.write_text("h = 0\n")
    code = main(["run", "--example", "5.1", "--alpha", "2", "--domain", "-20", "20",
                 "--tau", "0.02", "--T", "1", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "invalid h " in capsys.readouterr().err


def test_unreadable_config_file_exits_one(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "missing.txt" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["energy", "--preset", "fig2", "--alphas", ""],
    ["convergence", "--preset", "table1", "--alphas", " "],
    ["bench", "--taus", ","],
])
def test_empty_list_exits_one(tmp_path, capsys, argv):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    assert "nonempty" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("source", ["flag", "file"])
def test_zero_snapshot_stride_exits_one(tmp_path, capsys, source):
    cfg = tmp_path / "settings.txt"
    cfg.write_text("snapshot_stride = 0\n")
    extra = ["--snapshot-stride", "0"] if source == "flag" else ["--config", str(cfg)]
    code = main(RUN_ARGS + extra + ["--out", str(tmp_path / "x")])
    assert code == 1
    assert "invalid snapshot_stride " in capsys.readouterr().err


def test_removed_method_flag_is_rejected(tmp_path):
    for flag in (["--method", "direct"], ["--precond", "none"]):
        assert main(RUN_ARGS + flag + ["--out", str(tmp_path / "x")]) == 1, flag


def test_unattainable_cg_tolerance_exits_two(tmp_path, capsys):
    code = main(RUN_ARGS + ["--cg-tol", "1e-30", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "1e-30 lies below the attainable floor" in err
    assert "condition bound" in err


def test_default_cg_tolerance_follows_condition_bound(tmp_path, capsys):
    # kappa = 40001, whose floor eps * kappa = 8.9e-12 lies above 1e-12
    stiff_args = ["run", "--example", "5.1", "--alpha", "2", "--domain", "-5", "5",
                  "--h", "0.0025", "--tau", "0.5", "--T", "1"]
    meta = {}
    for name, argv in (("plain", RUN_ARGS), ("stiff", stiff_args)):
        out = tmp_path / name
        assert main(argv + ["--snapshot-stride", "100", "--out", str(out)]) == 0, name
        meta[name] = json.loads((out / "meta.json").read_text())
    assert meta["plain"]["cg_rel_tol"] == 1e-12
    stiff = meta["stiff"]
    assert stiff["condition_bound"] > 4e4
    assert stiff["cg_rel_tol"] == 10.0 * np.finfo(np.float64).eps * stiff["condition_bound"]
    assert stiff["residual_max"] <= stiff["cg_rel_tol"]
    # a tolerance set below the floor is still refused
    assert main(stiff_args + ["--cg-tol", "1e-12", "--out", str(tmp_path / "x")]) == 2
    assert "lies below the attainable floor" in capsys.readouterr().err


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
    # an explicit tolerance keeps its own rules: at or above eps kappa it runs
    out = tmp_path / "explicit"
    assert main(probe + ["--cg-tol", "0.6", "--out", str(out)]) == 0
    assert json.loads((out / "meta.json").read_text())["cg_rel_tol"] == 0.6


RUN_WITHOUT_DOMAIN = ["run", "--example", "5.1", "--alpha", "2", "--h", "0.2", "--tau", "0.02",
                      "--T", "1"]


@pytest.mark.parametrize("argv, config, setting", [
    (RUN_ARGS + ["--omega", "inf"], "", "omega"),
    (RUN_ARGS + ["--omega", "nan"], "", "omega"),
    (["convergence", "--preset", "table1", "--omega", "inf"], "", "omega"),
    (RUN_ARGS + ["--cg-tol", "inf"], "", "cg_tol"),
    (RUN_ARGS + ["--cg-tol", "nan"], "", "cg_tol"),
    (RUN_WITHOUT_DOMAIN, "domain = -inf, 20\n", "domain"),
    (RUN_WITHOUT_DOMAIN, "domain = -20, nan\n", "domain"),
], ids=["omega-inf", "omega-nan", "convergence-omega-inf", "cg_tol-inf", "cg_tol-nan",
        "domain-inf", "domain-nan"])
def test_non_finite_setting_exits_one(tmp_path, capsys, argv, config, setting):
    cfg = tmp_path / "settings.txt"
    cfg.write_text(config)
    out = tmp_path / "x"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert f"invalid {setting} " in capsys.readouterr().err
    assert not out.exists()


def test_stiff_run_records_circulant_preconditioner(tmp_path):
    from fracsg.solvers import CIRCULANT_MIN_BOUND

    out = tmp_path / "stiff"
    code = main(["run", "--example", "5.1", "--alpha", "1.8", "--domain", "-5", "5",
                 "--h", "0.01", "--tau", "0.5", "--T", "1", "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["precond"] == "circulant"
    assert meta["condition_bound"] > CIRCULANT_MIN_BOUND


def test_energy_config_file_beats_preset(tmp_path):
    from fracsg import FracOperator, GridSpec, discrete_energy, get_problem, initial_state

    cfg = tmp_path / "settings.txt"
    cfg.write_text("T = 0.1\nh = 0.5\nalphas = 1.5\n")
    out = tmp_path / "en"
    assert main(["energy", "--preset", "fig2", "--config", str(cfg), "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["energy_1.5.csv"]
    series = read_csv(out / "energy_1.5.csv")
    assert series.shape == (3, 4)  # T = 0.1 at the preset's tau = 0.05
    # the preset's domain (-40, 40) at the file's h = 0.5
    grid = GridSpec(a=-40.0, b=40.0, M=160)
    e0 = discrete_energy(initial_state(get_problem("5.1", omega=1.1), grid),
                         FracOperator(1.5, grid))
    assert series[0, 2] == pytest.approx(e0, rel=1e-15)


def test_convergence_config_file_beats_preset(tmp_path):
    cfg = tmp_path / "settings.txt"
    cfg.write_text("T = 0.5\nbase_h = 2\nbase_tau = 0.25\nlevels = 2\nalphas = 1.5\n")
    out = tmp_path / "conv"
    code = main(["convergence", "--preset", "table1", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2  # one order, two levels
    assert [(float(r[1]), float(r[2])) for r in rows] == [(2.0, 0.25), (1.0, 0.125)]


def test_import_does_not_load_scipy_integrate():
    code = ("import sys, fracsg.cli; "
            "print('scipy.integrate' in sys.modules or 'scipy.linalg' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_import_loads_no_scipy():
    code = "import sys, fracsg.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_bench_beyond_direct_size_limit_exits_one(tmp_path, capsys, monkeypatch):
    def never(self):
        raise AssertionError("dense matrix allocated")

    monkeypatch.setattr(solvers.StepMatrix, "dense", never)
    monkeypatch.setattr(FracOperator, "dense_matrix", never)
    code = main(["bench", "--sizes", "20000", "--alphas", "1.5", "--taus", "0.1",
                 "--T", "0.2", "--reps", "1", "--out", str(tmp_path / "b")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"limited to {solvers.DIRECT_MAX_SIZE} unknowns, got 19999" in err


finite = st.floats(allow_nan=False, allow_infinity=False)
extreme = st.one_of(  # magnitudes near 1e+-300, and zeros and subnormals
    st.floats(1e299, 1e301), st.floats(1e-301, 1e-299), st.floats(0.0, 2.2250738585072014e-308),
).flatmap(lambda v: st.sampled_from([v, -v]))
columns = finite | extreme


@given(rows=st.lists(st.tuples(finite, columns, columns, columns), min_size=1, max_size=40),
       stride=st.integers(1, 7), last=st.integers(0, 20))
def test_snapshot_bytes_match_row_by_row_format(rows, stride, last):
    x, U, V, W = (np.array(col) for col in zip(*rows))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        writer = SnapshotWriter(out, x, stride, last)
        for n in range(last + 1):
            writer(IeqState(U=U, V=V, W=W, t=0.0, n=n), None)
        expected = {f"solution_{n}.csv" for n in range(last + 1)
                    if n % stride == 0 or n == last}
        assert {p.name for p in out.iterdir()} == expected
        reference = "x,U,V,W\n" + "".join(
            ",".join("{:.15e}".format(v) for v in row) + "\n" for row in rows)
        for name in expected:
            assert (out / name).read_bytes() == reference.encode()
