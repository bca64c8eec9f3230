"""Command-line front end of the fracsg solver.

A setting comes from its flag, else from the --preset; bench has none.
All real numbers in CSV output are written as Python's "%.15e" writes them,
and every output except bench timings is byte-stable across repeated runs.
Solution snapshots are formatted in numpy; their bytes still equal "%.15e"
(see _format).  Exit codes: 0 success, 1 configuration or I/O error, 2
numerical failure.  A command that exits 2, or 1 on an I/O error, leaves none
of the files it wrote, save the bench.csv of a bench that fails on timing.
energy and convergence spread their orders over the usable cores, in forked
processes (_on_cores), and write every file from the command's own process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import IO, Any, Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from ._format import csv_lines
from .diagnostics import EnergyRecorder, convergence_ladder, w_projection_drift
from .operator import FracOperator, GridSpec, check_alpha
from .presets import PRESETS
from .problems import get_problem
from .scheme import IeqState, SchemeConfig, run
from .solvers import CG_DEFAULT_TOL_CEILING, NumericalFailure, cg_rows

_BLOCK = 500  # rows per csv_lines call, so that its work arrays stay small
_PIPE_BYTES = 1 << 20  # room for about 21 soliton snapshots of 48 KB while the writer lags
LADDER_LEVELS = 4  # refinement levels of each ladder, as in the paper's tables

# bench, the paper's timing experiment: example 5.1 at fixed sizes and steps
BENCH_SIZES, BENCH_ALPHAS, BENCH_TAUS = (200, 400), (1.3, 2.0), (0.1, 0.05, 0.025, 0.0125)
BENCH_T, BENCH_H, BENCH_OMEGA = 10.0, 0.1, 1.0
BENCH_REPS = 3  # timings per reported median
# tighter than the derived tolerance: per-step CG error accumulates over the
# longest sweep (800 steps), and bench holds CG to the dense direct solution
# within CG_DEFAULT_TOL_CEILING; at 1e-12, 8 of its 16 runs would not be
BENCH_CG_TOL = 1e-14


def _between(low: float, high: float) -> Callable[[str], float]:
    """A converter of text to float that admits values in (low, high) only."""
    def convert(text: str) -> float:
        value = float(text)
        if not low < value < high:  # also rejects NaN
            raise ValueError(f"must lie in ({low:g}, {high:g})")
        return value
    return convert


def _list(conv: Callable[[str], Any]) -> Callable[[str], tuple]:
    def convert(text: str) -> tuple:
        values = tuple(conv(p) for p in text.replace(",", " ").split())
        if not values:
            raise ValueError("needs a nonempty comma-separated list")
        return values
    return convert


def _interval(text: str) -> tuple[float, float]:
    values = _list(_between(-math.inf, math.inf))(text)
    if len(values) != 2 or not values[0] < values[1]:
        raise ValueError("needs two values A < B")
    return values


class Option(NamedTuple):
    """A setting of the subcommands in ``commands``, which ``conv`` reads from its
    flag's text; an optional one is None where neither flag nor preset sets it."""

    name: str
    commands: tuple[str, ...]
    help: str
    conv: Callable[[str], Any]
    extra: dict = {}  # further add_argument keywords
    required: bool = True


_POSITIVE = _between(0, math.inf)
SIM = ("run", "convergence", "energy")
OPTIONS = (
    Option("example", SIM, "benchmark problem", str, {"choices": ("5.1", "5.2")}),
    Option("alpha", ("run",), "fractional order in (1, 2]", check_alpha),
    Option("alphas", ("convergence", "energy"), "comma-separated fractional orders in (1, 2]",
           _list(check_alpha)),
    Option("omega", ("run",), "width parameter of example 5.1, which alone takes one "
           f"(default {get_problem('5.1').omega:g})", _POSITIVE, required=False),
    Option("domain", SIM, "interval endpoints A < B", _interval,
           extra={"nargs": 2, "metavar": ("A", "B")}),
    Option("h", SIM, "mesh size (convergence: of the coarsest level)", _POSITIVE),
    Option("tau", SIM, "time step, dividing T (convergence: of the coarsest level)", _POSITIVE),
    Option("T", SIM, "final time", _POSITIVE),
)


def _convert(opt: Option, text: str | list[str]) -> Any:
    text = " ".join(text) if isinstance(text, list) else text  # a flag taking several words
    try:
        return opt.conv(text)
    except ValueError as exc:
        raise ValueError(f"invalid {opt.name} {text!r}: {exc}") from None


def resolve(ns: argparse.Namespace) -> dict[str, Any]:
    """The settings of subcommand ``ns.command``, each from its flag, else its
    preset.  Raises ValueError on a bad value or a missing required setting."""
    owned = [o for o in OPTIONS if ns.command in o.commands]
    preset = PRESETS[ns.command][ns.preset].settings() if vars(ns).get("preset") else {}
    settings = {o.name: preset.get(o.name) if vars(ns)[o.name] is None
                else _convert(o, vars(ns)[o.name]) for o in owned}
    missing = [o.name for o in owned if o.required and settings[o.name] is None]
    if missing:
        raise ValueError(f"missing required settings: {', '.join(missing)}")
    return settings


def subdivisions(span: float, step: float, what: str) -> int:
    """The whole number, at least 1, of steps of size ``step`` in ``span``;
    ValueError naming the setting ``what`` when there is none (up to rounding)."""
    count = span / step
    if not np.isfinite(count) or count < 0.5 or abs(count - round(count)) > 1e-9 * max(1.0, count):
        raise ValueError(f"{what}={step} does not divide {span} into whole steps")
    return round(count)


def _scheme_config(s: dict, alpha: float | tuple[float, ...]) -> SchemeConfig:
    """The one SchemeConfig maker: settings ``s`` at ``alpha`` (a tuple: a stack)."""
    a, b = s["domain"]
    M = subdivisions(b - a, s["h"], "h")
    if M < 2:
        raise ValueError(f"h={s['h']} divides {b - a} into {M} step; need M >= 2 subintervals")
    return SchemeConfig(grid=GridSpec(a=a, b=b, M=M), alpha=alpha, T=s["T"],
                        N=subdivisions(s["T"], s["tau"], "tau"))


class Outputs:
    """The --out directory of one command.  Every file the command writes opens
    through ``open``, which lists it in ``opened`` for main to remove on failure."""

    def __init__(self, text: str):
        if not text:  # Path("") would be the working directory
            raise ValueError("--out '' names no directory")
        self.dir, self.opened = Path(text), []
        # an --out that cannot be a directory fails here, before any run
        existing = next(p for p in (self.dir, *self.dir.parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"--out {self.dir}: {existing} is not a directory")

    def open(self, name: str, mode: str = "w") -> IO:
        self.dir.mkdir(parents=True, exist_ok=True)  # here, so a refused run leaves no --out
        path = self.dir / name
        self.opened.append(path)  # before opening, which may fail
        return path.open(mode)


def _write_csv(out: Outputs, name: str, header: str, rows) -> None:
    """Rows of values, each cell a float as "%.15e", None empty, else (an int, a str) by str."""
    def cell(value) -> str:
        return f"{value:.15e}" if isinstance(value, float) else "" if value is None else str(value)
    with out.open(name) as f:
        f.write(header + "\n")
        f.writelines(",".join(map(cell, row)) + "\n" for row in rows)


class _Children(contextlib.AbstractContextManager):
    """Forked children, one per ``fork(func)``: func() runs in the child, which sends back its
    result or exception pickled over a pipe.  Leaving the with block reaps them all, killed
    first if the block failed but by a BrokenPipeError (a child left early).  Raised then: its
    error, else the children's in start order (OSError: no report); ``results`` holds theirs."""

    children = ()  # (pid, read end of its pipe)

    def fork(self, func: Callable[[], Any]) -> None:
        read, write = os.pipe()
        if not (pid := os.fork()):  # the child; os._exit flushes no inherited stdio buffer
            try:
                os.close(read)
                try:
                    report = func()
                except Exception as exc:  # sent back, raised again by the parent
                    report = exc
                with os.fdopen(write, "wb") as pipe:
                    pipe.write(pickle.dumps(report))
                os._exit(0)
            finally:
                os._exit(1)
        os.close(write)
        self.children += ((pid, os.fdopen(read, "rb")),)

    def __exit__(self, exc_type, *exc) -> None:
        reports, statuses = [], []
        try:
            if exc_type is None or issubclass(exc_type, BrokenPipeError):
                reports = [pipe.read() for _, pipe in self.children]  # each until its child exits
        finally:
            if len(reports) < len(self.children):  # this process failed: results go unread
                import signal  # here, on failure only: importing it costs 0.13 MiB of peak RSS
                for pid, _ in self.children:
                    os.kill(pid, signal.SIGKILL)
            for pid, pipe in self.children:
                pipe.close()
                statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        self.results = [pickle.loads(report) if report else OSError(
            f"child process exited with status {status} and no report")
            for report, status in zip(reports, statuses)]
        if errors := [result for result in self.results if isinstance(result, BaseException)]:
            raise errors[0]


class SnapshotWriter(_Children):
    """Writes solution_<n>.csv at the stride and the last level, cells "%.15e" by csv_lines,
    _BLOCK rows at a time: where os.fork exists, in a writer it forks and hands each level."""

    def __init__(self, out: Outputs, x: np.ndarray, stride: int, last: int):
        self.out, self.x, self.stride, self.last = out, x, stride, last
        if hasattr(os, "fork"):
            import fcntl  # here: where os.fork is missing, so is fcntl
            read, self._data = os.pipe()  # n, U, V, W as raw float64: n < 2**53 is exact
            with contextlib.suppress(OSError, AttributeError):  # else the default size
                fcntl.fcntl(self._data, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            self.fork(lambda: self._drain(read))
            os.close(read)

    def __call__(self, state: IeqState, stats) -> None:
        if state.n % self.stride == 0 or state.n == self.last:
            level = np.concatenate(([state.n], state.U, state.V, state.W), axis=None)  # one row
            if not self.children:  # in-process
                return self._write(state.n, *level[1:].reshape(3, -1))
            self.out.opened.append(self.out.dir / f"solution_{state.n}.csv")  # the writer's: a copy
            view = memoryview(level).cast("B")
            while view:  # BrokenPipeError if the writer has left; __exit__ raises its error
                view = view[os.write(self._data, view):]

    def _write(self, n: int, *rows: np.ndarray) -> None:
        table = np.stack([self.x, *rows], axis=1)
        with self.out.open(f"solution_{n}.csv", "wb") as f:
            f.write(b"x,U,V,W\n")
            f.writelines(csv_lines(table[lo:lo + _BLOCK]) for lo in range(0, len(table), _BLOCK))

    def _drain(self, read: int) -> None:  # the writer
        os.close(self._data)
        with os.fdopen(read, "rb") as pipe:
            while (level := np.frombuffer(pipe.read(8 * (1 + 3 * len(self.x))))).size:
                self._write(int(level[0]), *level[1:].reshape(3, -1))

    def __exit__(self, *exc) -> None:
        if self.children:
            os.close(self._data)  # the writer's end of input
        super().__exit__(*exc)


def _usable_cores() -> int:  # the one place that counts them, so tests can fix the count
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _on_cores(func: Callable[[Sequence], list], items: Sequence) -> list:
    """func(group)'s results, one per item, in the items' order; item i is in group i mod k,
    k = min(len(items), usable cores) or 1 without os.fork, and a child runs each but group 0."""
    k = min(len(items), _usable_cores()) if hasattr(os, "fork") else 1
    with _Children() as children:
        for g in range(1, k):
            children.fork(lambda g=g: func(items[g::k]))
        groups = [func(items[::k])]
    groups += children.results
    return [groups[i % k][i // k] for i in range(len(items))]


def cmd_run(s: dict, out: Outputs) -> int:
    """single simulation with snapshots and energy series"""
    cfg = _scheme_config(s, s["alpha"])
    grid = cfg.grid
    stride = max(1, cfg.N // 100)
    problem = get_problem(s["example"], omega=s["omega"])
    op = FracOperator(cfg.alpha, grid)
    recorder = EnergyRecorder(op)
    levels = []  # per level: W drift, largest |U| at the two outermost interior nodes
    with SnapshotWriter(out, grid.interior_nodes(), stride, cfg.N) as snapshots:
        result = run(problem, cfg, op=op, observers=(recorder, snapshots, lambda state, stats:
                     levels.append((w_projection_drift(state), abs(state.U[..., [0, -1]]).max()))))
    w_drift_max, boundary_max = np.max(levels, axis=0)
    cg = result.cg
    meta = dict(
        example=problem.key, omega=problem.omega, alpha=cfg.alpha, domain=[grid.a, grid.b],
        h=grid.h, M=grid.M, tau=cfg.tau, N=cfg.N, T=cfg.T,
        cg_rel_tol=cg.rel_tols[0], precond="circulant" if cg.preconditioned[0] else "none",
        condition_bound=cg.bounds[0], snapshot_stride=stride,
        fft_embed_size=op.embed_size, cg_iterations_max=result.cg_iterations_max,
        cg_iterations_mean=result.cg_iterations_mean, residual_max=result.residual_max,
        energy_drift_max=recorder.max_relative_drift(), w_drift_max=w_drift_max,
        boundary_max=boundary_max, version=__version__)
    _write_csv(out, "energy.csv", "n,t,E,RE", recorder.series[0])
    with out.open("meta.json") as f:
        f.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_convergence(s: dict, out: Outputs) -> int:
    """refinement-ladder error table"""
    problem = get_problem(s["example"])
    configs = [_scheme_config(s, alpha) for alpha in s["alphas"]]  # each checked before any run
    reports = _on_cores(lambda group: [
        convergence_ladder(problem, cfg, LADDER_LEVELS) for cfg in group], configs)
    _write_csv(out, "convergence.csv", "alpha,h,tau,reference,difference,error_estimate,order", [
        (cfg.alpha, row.h, row.tau, report.mode, row.error, report.error_estimate(row), row.order)
        for cfg, report in zip(configs, reports) for row in report.rows])
    return 0


def cmd_energy(s: dict, out: Outputs) -> int:
    """energy-conservation series per fractional order"""
    alphas_of: dict[str, list[float]] = {}
    for alpha in s["alphas"]:
        alphas_of.setdefault(f"energy_{alpha:g}.csv", []).append(alpha)
    clashes = [f"{', '.join(map(str, alphas))} would all write {name}"
               for name, alphas in alphas_of.items() if len(alphas) > 1]
    if clashes:
        raise ValueError(f"invalid alphas: {'; '.join(clashes)}")
    cfg = _scheme_config(s, tuple(alpha for alpha, in alphas_of.values()))
    op, problem = FracOperator(cfg.alpha, cfg.grid), get_problem(s["example"])
    cg_rows(op, cfg.tau, cfg.cg_tol)  # an unusable tolerance at any order: refused before any step

    def series(rows: range) -> list:  # the orders of a group step as one stack
        group = op[rows.start:rows.stop:rows.step]  # views of op's rows
        recorder = EnergyRecorder(group)
        run(problem, replace(cfg, alpha=group.alpha), observers=(recorder,), op=group)
        return recorder.series

    for name, rows in zip(alphas_of, _on_cores(series, range(len(cfg.alpha)))):
        _write_csv(out, name, "n,t,E,RE", rows)
    return 0


def _timed_run(problem, cfg: SchemeConfig, reps: int) -> tuple[float, np.ndarray]:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        final = run(problem, cfg).state.U
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), final


def cmd_bench(_: dict, out: Outputs) -> int:
    """dense-direct vs FFT-CG wall-clock comparison at fixed sizes and steps (minutes)"""
    from . import _dense  # only bench uses it; loaded here, before the first timed run
    problem = get_problem("5.1", omega=BENCH_OMEGA)
    rows, violations = [], []
    runs = [(alpha, M, tau, replace(_scheme_config({
        "domain": (-0.5 * M * BENCH_H, 0.5 * M * BENCH_H), "h": BENCH_H, "tau": tau,
        "T": BENCH_T}, alpha), cg_tol=BENCH_CG_TOL))
        for alpha in BENCH_ALPHAS for M in BENCH_SIZES for tau in BENCH_TAUS]
    for alpha, M, tau, cfg in runs:  # every config is built, so checked, before any timing
        t_direct, u_direct = _timed_run(problem, replace(cfg, solve=_dense.solve), BENCH_REPS)
        t_fft, u_fft = _timed_run(problem, cfg, BENCH_REPS)
        diff = float(np.max(np.abs(u_direct - u_fft)))
        if diff > CG_DEFAULT_TOL_CEILING:
            raise NumericalFailure(f"direct and FFT solution paths disagree by {diff:.3e} "
                                   f"(alpha={alpha}, M={M}, tau={tau})")
        if M >= 400 and t_fft > t_direct:
            violations.append(f"alpha={alpha} M={M} tau={tau}: "
                              f"fft {t_fft:.3f}s > direct {t_direct:.3f}s")
        rows.append((alpha, M, cfg.grid.h, tau, cfg.N, t_direct, t_fft, diff))
    _write_csv(out, "bench.csv",
               "alpha,M,h,tau,steps,direct_seconds,fft_seconds,solution_diff", rows)
    if violations:  # a numerical failure that keeps bench.csv, its evidence
        print("numerical failure: FFT path slower than direct at M >= 400:\n  "
              + "\n  ".join(violations), file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: "bench --h" would otherwise read as --help
    parser = argparse.ArgumentParser(prog="fracsg", description=__doc__, allow_abbrev=False,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__,
                        help="show the version and exit")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for func in (cmd_run, cmd_convergence, cmd_energy, cmd_bench):
        name = func.__name__.removeprefix("cmd_")
        p = parsers[name] = sub.add_parser(name, help=func.__doc__, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--out", required=True, help="output directory")
        if name in PRESETS:
            p.add_argument("--preset", choices=sorted(PRESETS[name]),
                           help="named experiment settings")
    for opt, cmd in ((o, c) for o in OPTIONS for c in o.commands):
        parsers[cmd].add_argument("--" + opt.name, help=opt.help, **opt.extra)
    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        settings, out = resolve(ns), Outputs(ns.out)
        try:
            return ns.func(settings, out)
        except (NumericalFailure, OSError):  # a failed command leaves none of its files
            for path in out.opened:
                path.unlink(missing_ok=True)  # the last may have failed to open
            raise
    except SystemExit as exc:
        # help and --version exit 0; usage errors 1, as exit code 2 means a numerical failure
        return 1 if exc.code else 0
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
