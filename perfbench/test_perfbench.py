"""Self-tests of the benchmark: tracer counts, failure counting, exit codes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy.fft
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fracsg  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from fracsg.operator import FracOperator  # noqa: E402


def test_traced_counts_agree_with_fft_calls():
    grid = fracsg.GridSpec(-5.0, 5.0, 40)
    cfg = fracsg.SchemeConfig(grid=grid, alpha=1.5, T=0.5, N=10)
    rfft = numpy.fft.rfft
    with tracer.Tracer() as traced:
        op = fracsg.FracOperator(cfg.alpha, grid)
        fracsg.run(fracsg.get_problem("5.1"), cfg, observers=(fracsg.EnergyRecorder(op),), op=op)
    assert numpy.fft.rfft is rfft
    assert vars(FracOperator)["apply"] is vars(FracOperator)["apply_fft"]

    m = tracer.layer_metrics(traced.spans)
    lengths = tracer.transform_lengths(traced.spans)
    rfft_calls = sum(lengths["rfft"].values())
    irfft_calls = sum(lengths["irfft"].values())
    levels = cfg.N + 1
    assert m["operator.builds"] == 1
    assert m["scheme.steps"] == cfg.N
    # one symbol transform per build, then one rfft/irfft pair per apply
    assert rfft_calls == m["operator.builds"] + m["operator.apply_calls"]
    assert irfft_calls == m["operator.apply_calls"]
    assert round(m["fft.pairs_per_step"] * levels) == rfft_calls
    # every matvec applies the operator once; the energy observer once per level
    assert round(m["solvers.matvecs_per_step"] * levels) == m["operator.apply_calls"] - levels
    assert m["solvers.matvecs_per_step"] > m["solvers.cg_iters_per_step"] > 0


def _tiny_soliton(cls=workloads.SolitonRun, alpha=1.5):
    return cls(alpha=alpha, extra=("--domain", "-10", "10", "--h", "0.5"))


class _NanSnapshot(workloads.SolitonRun):
    def execute(self, out_dir):
        super().execute(out_dir)
        path = out_dir / "solution_100.csv"
        lines = path.read_text().splitlines()
        lines[1] = "nan" + lines[1][lines[1].index(","):]
        path.write_text("\n".join(lines) + "\n")


class _DiffersOnRerun(workloads.SolitonRun):
    runs = 0

    def execute(self, out_dir):
        super().execute(out_dir)
        self.runs += 1
        if self.runs > 1:
            path = out_dir / "meta.json"
            path.write_text(path.read_text().replace('"N": 200', '"N": 200 '))


@pytest.mark.parametrize("workload, failed", [
    (_tiny_soliton(), 0),
    (_tiny_soliton(_NanSnapshot), 2),
    (_tiny_soliton(_DiffersOnRerun), 1),
    (_tiny_soliton(alpha=2.5), 2),  # the CLI rejects alpha > 2 with exit code 1
])
def test_failed_checks_are_counted(workload, failed, tmp_path):
    out = worker.measure(workload, seconds=0.0, trace=False, scratch=tmp_path)
    assert out["attempted"] == 2  # warm-up plus one timed iteration
    assert out["failed"] == failed


class _ExtraTransformOnRerun(workloads.SolitonRun):
    runs = 0

    def execute(self, out_dir):
        super().execute(out_dir)
        self.runs += 1
        if self.runs > 2:  # after the warm-up and the first traced iteration
            numpy.fft.rfft(numpy.ones(8))


def test_count_mismatch_between_traced_iterations_is_counted(tmp_path):
    # warm-up, then traced, untraced, traced, untraced iterations
    out = worker.measure(_tiny_soliton(_ExtraTransformOnRerun), seconds=0.0, trace=True,
                         scratch=tmp_path)
    assert out["attempted"] == 5
    assert len(out["traced_wall_s"]) == 2
    assert out["failed"] == 1
    assert "fft.pairs_per_step" in worker.COUNTS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline.json"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "soliton_run",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
