"""Child process of ``run.py``: runs one workload and prints its raw samples.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
    python3 perfbench/worker.py --workload NAME --seed N --probe

The first form runs a closed loop (one client; each iteration waits for the
previous one): one untimed warm-up iteration, then timed iterations until
``--seconds`` have passed.  With ``--trace 1`` traced and untraced
iterations alternate, so the tracing overhead is the difference of their
medians.  Every iteration's outputs are checked, and a failed check, an
exception, a nonzero exit code or a layer count that differs from the first
traced iteration's counts as a failed iteration.  After each timed iteration,
outside its timed region, a set-up probe runs in a fresh interpreter, so the
set-up samples are spread over the same minutes as the wall-time samples.

``--probe`` measures set-up only: it imports ``fracsg.cli``, builds the
workload's first ``FracOperator`` and prints the monotonic clock reading at
that point, which the spawning process subtracts from the time it spawned
the probe.

Either form prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from run import PER_LAYER

# Layer metrics that are not timings: they must repeat exactly between
# iterations and runs on the same inputs.
COUNTS = frozenset(name for name, unit in PER_LAYER.items() if unit not in ("s", "ms"))


def environment() -> dict:
    """Machine and library versions the numbers were measured with."""
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    llc, level = "unknown", 0
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError, ValueError):
            this = int((index / "level").read_text())
            if this >= level:
                level, llc = this, f"L{this} {(index / 'size').read_text().strip()}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "cpu": cpu,
        "last_level_cache": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up and import time of one fresh interpreter running ``--probe``."""
    spawned = time.perf_counter()
    proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                           "--probe"], stdout=subprocess.PIPE, text=True, check=True, timeout=60)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["ready"] - spawned, out["import_s"]


def measure(workload, seconds: float, trace: bool, scratch: Path, probe=None) -> dict:
    """Run the closed loop and return raw samples, counts and layer metrics.

    ``probe``, when given, is called after each timed iteration and returns
    one (set-up, import) time pair."""
    # imported here, so that main() times a fresh ``import fracsg.cli``
    import tracer as tracing
    from workloads import CheckFailure

    samples: dict[bool, list[tuple[float, float]]] = {False: [], True: []}
    setup: list[tuple[float, float]] = []
    layers: list[dict[str, float]] = []
    kernel = None
    drift = 0.0
    attempted = failed = 0
    reference = None
    start = None
    while True:
        timed = attempted - 1  # timed iterations so far; the first is the warm-up
        if start is not None and time.perf_counter() - start >= seconds \
                and timed >= (4 if trace else 1):
            break
        traced = trace and timed >= 0 and timed % 2 == 0
        tracer = tracing.Tracer() if traced else None
        out_dir = scratch / f"iteration_{attempted}"
        attempted += 1
        try:
            out_dir.mkdir(parents=True)
            with tracer if tracer is not None else contextlib.nullcontext():
                c0, t0 = time.process_time(), time.perf_counter()
                result = workload.execute(out_dir)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            if start is not None:
                samples[traced].append((wall, cpu))
            outcome = workload.check(out_dir, result)
            if reference is None:
                reference = outcome.digest
            elif outcome.digest != reference:
                raise CheckFailure("outputs differ from the first iteration's")
            drift = max(drift, outcome.energy_drift)
            if tracer is not None:
                metrics = tracing.layer_metrics(tracer.spans)
                metrics["cli.files_written"] = outcome.files
                metrics["cli.bytes_written"] = outcome.bytes
                differ = sorted(name for name in COUNTS & metrics.keys()
                                if layers and metrics[name] != layers[0][name])
                if differ:
                    raise CheckFailure(f"counts differ from the first traced iteration's: {differ}")
                layers.append(metrics)
                kernel = kernel or tracing.transform_lengths(tracer.spans)
        except Exception:  # any failure of an iteration is counted, not fatal
            traceback.print_exc()
            failed += 1
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if start is None:
            start = time.perf_counter()
        elif probe is not None:
            setup.append(probe())

    return {
        "attempted": attempted,
        "failed": failed,
        "wall_s": [w for w, _ in samples[False]],
        "cpu_s": [c for _, c in samples[False]],
        "traced_wall_s": [w for w, _ in samples[True]],
        "setup_s": [s for s, _ in setup],
        "import_s": [i for _, i in setup],
        "layers": _reduce_layers(layers),
        "kernel": kernel,
        "energy_drift_max": drift,
    }


def _reduce_layers(layers: list[dict[str, float]]) -> dict[str, float]:
    """Median of each timing over traced iterations; counts, which measure()
    has checked to repeat exactly, are taken from the first."""
    if not layers:
        return {}
    return {name: value if name in COUNTS else statistics.median(m[name] for m in layers)
            for name, value in layers[0].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import fracsg.cli  # noqa: F401  (the import every CLI invocation pays)
    import_s = time.perf_counter() - t0
    import workloads

    workload = workloads.make(args.workload, args.seed)
    if args.probe:
        workload.first_operator()
        print(json.dumps({"ready": time.perf_counter(), "import_s": import_s}))
        return 0
    if args.scratch is None:
        parser.error("--scratch is required unless --probe is given")
    result = measure(workload, args.seconds, bool(args.trace), args.scratch,
                     probe=lambda: probe_setup(args.workload, args.seed))
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["describe"] = workload.describe()
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
