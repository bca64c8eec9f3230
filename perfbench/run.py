"""fracsg workflow benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Workloads: soliton_run, energy_presets,
stiff_fine_mesh (see perfbench/README.md for why each).  The workload runs
in a child process of its own, which also times set-up in a fresh
interpreter after each timed iteration; BLAS/OpenMP run on one thread in
both (see ``child_env``).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# everything but the measured seconds must fit in this, so that a 30 s run
# ends within 180 s even when a child hangs
OVERHEAD_BUDGET_S = 140

# names and units of the metrics, as BENCHMARK.json lists them; layer times
# are per workload iteration, medians over traced iterations, and counts are
# per iteration unless the name says per step (per time level)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env(scratch: Path) -> dict[str, str]:
    """Environment of the workload process.  BLAS/OpenMP get one thread: the
    CG dot products of stiff_fine_mesh are long enough for OpenBLAS to start
    a second thread, which then spin-waits, doubling cpu_s and making wall_s
    depend on whether another core is free."""
    threads = "1"
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
        OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
        TMPDIR=str(scratch), PYTHONHASHSEED="0",
    )
    return env


def _last_json(stdout: str, what: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{what} printed no result")
    return json.loads(lines[-1])


def _child(args: list[str], env: dict, deadline: float, what: str) -> dict:
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{what} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    return _last_json(proc.stdout, what)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return the result object and the worker's details."""
    deadline = time.perf_counter() + seconds + OVERHEAD_BUDGET_S
    if not (ROOT / "src" / "fracsg" / "__init__.py").is_file():
        raise BenchError(f"no fracsg sources under {ROOT / 'src'}")
    scratch_root = ROOT / ".perfbench_tmp"
    scratch = scratch_root / f"run_{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        details = _child(["--workload", workload, "--seed", str(seed),
                          "--seconds", repr(seconds), "--trace", str(int(trace)),
                          "--scratch", str(scratch)],
                         child_env(scratch), deadline, f"workload {workload}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch_root.rmdir()  # only when no other run is using it
    if not details["wall_s"] or not details["setup_s"]:
        raise BenchError(f"workload {workload}: no iteration completed")

    if trace:
        values = dict(details["layers"])
        if not values:
            raise BenchError(f"workload {workload}: no traced iteration completed")
        values["diagnostics.energy_drift_max"] = details["energy_drift_max"]
        values["setup.import_s"] = statistics.median(details["import_s"])
        plain = statistics.median(details["wall_s"])
        values["trace.overhead_ratio"] = (statistics.median(details["traced_wall_s"]) - plain) / plain
        units = PER_LAYER
    else:
        values = {
            "wall_s": statistics.median(details["wall_s"]),
            "cpu_s": statistics.median(details["cpu_s"]),
            "setup_s": statistics.median(details["setup_s"]),
            "peak_rss_mib": details["peak_rss_mib"],
        }
        units = END_TO_END
    result = {
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, details


def summary(workload: str, seed: int, result: dict, details: dict) -> list[str]:
    """Human-readable report: inputs, environment, metrics with sample counts."""
    env = details["environment"]
    lines = [
        f"workload {workload} (seed {seed}): {details['describe']}",
        "environment: " + ", ".join(f"{k} {v}" for k, v in env.items()),
    ]
    walls = details["wall_s"]
    counts = {
        "wall_s": f"median of {len(walls)} timed iterations, "
                  f"range {min(walls):.4g}-{max(walls):.4g} s",
        "cpu_s": f"median of {len(details['cpu_s'])} timed iterations, user+sys",
        "setup_s": f"median of {len(details['setup_s'])} fresh interpreters",
        "peak_rss_mib": "workload process, warm-up included",
        "setup.import_s": f"median of {len(details['import_s'])} fresh interpreters",
        "trace.overhead_ratio": f"traced {len(details['traced_wall_s'])} vs "
                                f"untraced {len(walls)} iterations",
    }
    for name, metric in result["metrics"].items():
        note = counts.get(name, "")
        lines.append(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']:6s} {note}")
    lines.append(f"  {'failed_ratio':32s} {result['failed'] / result['attempted']:>14.6g} "
                 f"{'1':6s} {result['failed']} of {result['attempted']} iterations, "
                 "warm-up included")
    if details.get("kernel"):
        for kind, per in details["kernel"].items():
            lengths = ", ".join(f"n={n} x{calls}" for n, calls in sorted(
                per.items(), key=lambda item: int(item[0])))
            lines.append(f"  computed kernel work per iteration, {kind}: {lengths or 'none'}")
        lines.append("  computed FFT flops at 2.5 n log2 n per real transform: "
                     f"{result['metrics']['fft.flops_per_step']['value']:.4g} per time level")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, details = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(summary(args.workload, args.seed, result, details)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
