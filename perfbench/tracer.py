"""In-memory span tracer that wraps fracsg's public functions from outside.

The tracer patches the names that callers actually resolve at call time:
module globals such as ``fracsg.scheme.solve`` (``scheme`` imports ``solve``
by name), class attributes such as ``FracOperator.apply`` (bound to
``apply_fft`` when the class was created, and the name ``StepMatrix.matvec``
calls), and ``numpy.fft.rfft``/``irfft`` as the kernel under the operator
and the solvers.  Every original is restored when the tracer is closed.

A span is ``[name, start, end, parent_index, info]``; ``info`` holds what a
metric needs from the call's arguments or result (transform length, CG
iterations, steps).  Spans stay in memory until :func:`layer_metrics`
reduces them.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy.fft

import fracsg
import fracsg.cli
import fracsg.diagnostics
import fracsg.scheme
import fracsg.solvers
from fracsg.diagnostics import EnergyRecorder
from fracsg.operator import FracOperator
from fracsg.solvers import StepMatrix


def _fft_length(args, kwargs, result):
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    return int(n) if n is not None else len(args[0])


def _solve_stats(args, kwargs, result):
    stats = result[1]
    return stats.iterations, stats.residual


def _run_steps(args, kwargs, result):
    return result.steps


# (owner, attribute, span name, info extractor).  The same span name on
# several owners means several names resolve to one function.
TARGETS = (
    (fracsg.cli, "main", "cli.main", None),
    (fracsg.cli.SnapshotWriter, "__call__", "cli.snapshot", None),
    (fracsg, "run", "scheme.run", _run_steps),
    (fracsg.scheme, "run", "scheme.run", _run_steps),
    (fracsg.cli, "run", "scheme.run", _run_steps),
    (fracsg.diagnostics, "run", "scheme.run", _run_steps),
    (fracsg.scheme, "startup_step", "scheme.startup", None),
    (fracsg.scheme, "cn_step", "scheme.cn_step", None),
    (fracsg.scheme, "solve", "solvers.solve", _solve_stats),
    (fracsg.solvers, "solve", "solvers.solve", _solve_stats),
    (fracsg.solvers, "build_circulant_preconditioner", "solvers.precond", None),
    (StepMatrix, "matvec", "solvers.matvec", None),
    (FracOperator, "__init__", "operator.build", None),
    (FracOperator, "apply", "operator.apply", None),
    (FracOperator, "apply_fft", "operator.apply", None),
    (numpy.fft, "rfft", "fft.rfft", _fft_length),
    (numpy.fft, "irfft", "fft.irfft", _fft_length),
    (EnergyRecorder, "__call__", "diagnostics.energy_observer", None),
)


class Tracer:
    """Context manager: patches every target on entry, restores on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, original, name, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, info in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def transform_lengths(spans) -> dict[str, dict[int, int]]:
    """Calls per transform length, for rfft and irfft separately."""
    out: dict[str, dict[int, int]] = {"rfft": {}, "irfft": {}}
    for name, _, _, _, n in spans:
        if name in ("fft.rfft", "fft.irfft"):
            per = out[name[4:]]
            per[n] = per.get(n, 0) + 1
    return out


def fft_flops(n: int) -> float:
    """Computed (not measured) cost of one real transform of length n."""
    return 2.5 * n * math.log2(n) if n > 1 else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Reduce the spans of one workload iteration to per-layer metrics.

    ``*_per_step`` divides by time levels, level 0 included (N + 1 per
    ``run``), the way the FFT pairs per level are counted in the ROADMAP;
    ``solvers.cg_iters_per_step`` is the mean over the ``cn_step`` solves.
    """
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for name, start, end, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
    # self time: a span's duration minus the durations of its direct children
    own = dict(total)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[spans[parent][0]] -= end - start

    levels = sum(info + 1 for name, _, _, _, info in spans if name == "scheme.run")
    step_ms = sorted(1e3 * (end - start)
                     for name, start, end, _, _ in spans if name == "scheme.cn_step")
    step_iters, all_iters, residuals, startup_solves = [], [], [], 0
    for name, _, _, parent, info in spans:
        if name != "solvers.solve":
            continue
        all_iters.append(info[0])
        residuals.append(info[1])
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent_name == "scheme.cn_step":
            step_iters.append(info[0])
        elif parent_name == "scheme.startup":
            startup_solves += 1
    points = flops = 0.0
    for per in transform_lengths(spans).values():
        for n, calls in per.items():
            points += n * calls
            flops += fft_flops(n) * calls
    matvecs = count.get("solvers.matvec", 0)
    per_level = 1.0 / levels if levels else 0.0
    p99 = step_ms[min(len(step_ms) - 1, int(0.99 * len(step_ms)))] if step_ms else 0.0

    return {
        "cli.self_s": own.get("cli.main", 0.0),
        "cli.snapshot_s": total.get("cli.snapshot", 0.0),
        "scheme.steps": count.get("scheme.cn_step", 0) + count.get("scheme.startup", 0),
        "scheme.step_s": total.get("scheme.cn_step", 0.0),
        "scheme.step_self_s": own.get("scheme.cn_step", 0.0),
        "scheme.step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "scheme.step_ms_p99": p99,
        "scheme.startup_s": total.get("scheme.startup", 0.0),
        "scheme.startup_solves": startup_solves,
        "solvers.solve_s": total.get("solvers.solve", 0.0),
        "solvers.solve_calls": count.get("solvers.solve", 0),
        "solvers.cg_iters_per_step": statistics.fmean(step_iters) if step_iters else 0.0,
        "solvers.cg_iters_max": max(step_iters, default=0),
        "solvers.matvecs_per_step": matvecs * per_level,
        "solvers.useful_matvec_ratio": sum(all_iters) / matvecs if matvecs else 0.0,
        "solvers.precond_builds": count.get("solvers.precond", 0),
        "solvers.precond_s": total.get("solvers.precond", 0.0),
        "solvers.true_residual_max": max(residuals, default=0.0),
        "operator.builds": count.get("operator.build", 0),
        "operator.build_s": total.get("operator.build", 0.0),
        "operator.apply_calls": count.get("operator.apply", 0),
        "fft.pairs_per_step": count.get("fft.rfft", 0) * per_level,
        "fft.points_per_step": points * per_level,
        "fft.flops_per_step": flops * per_level,
        "fft.s": total.get("fft.rfft", 0.0) + total.get("fft.irfft", 0.0),
        "diagnostics.energy_observer_s": total.get("diagnostics.energy_observer", 0.0),
    }
