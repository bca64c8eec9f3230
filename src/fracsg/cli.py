"""Command-line front end of the fracsg solver.

A setting comes from its flag, else from the --preset; bench has none.
All real numbers in CSV output are written as Python's "%.15e" writes them,
and every output except bench timings is byte-stable across repeated runs.
Solution snapshots are formatted in numpy; their bytes still equal "%.15e"
(see _format).  Exit codes: 0 success, 1 configuration or I/O error, 2
numerical failure.  A command that exits 2, or 1 on an I/O error, leaves none
of the files it wrote, save the bench.csv of a bench that fails on timing.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import pickle
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import IO, Any, Callable, NamedTuple

import numpy as np

from . import __version__
from ._format import csv_lines
from .diagnostics import EnergyRecorder, convergence_ladder, w_projection_drift
from .operator import FracOperator, GridSpec, OperatorStack, check_alpha
from .presets import PRESETS
from .problems import get_problem
from .scheme import IeqState, SchemeConfig, run
from .solvers import CG_DEFAULT_TOL_CEILING, NumericalFailure

_BLOCK = 500  # rows per csv_lines call
_PIPE_BYTES = 1 << 20  # room for about 21 soliton snapshots of 48 KB while the writer lags


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


def _cell(value) -> str:
    return "" if value is None else str(value) if isinstance(value, int) else f"{value:.15e}"


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
    """Rows of values, each cell an int by str, a real as "%.15e", None empty."""
    with out.open(name) as f:
        f.write(header + "\n")
        f.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


class SnapshotWriter:
    """Writes solution_<n>.csv at the configured stride plus the final level,
    each cell as ``"%.15e"`` by ``_format.csv_lines``, _BLOCK rows at a time
    so that its work arrays stay small.  Entered, it forks one writer process
    where os.fork exists, and hands it n, U, V, W as raw float64 over a pipe.
    """

    def __init__(self, out: Outputs, x: np.ndarray, stride: int, last: int):
        self.out, self.x, self.stride, self.last = out, x, stride, last
        self._send, self._pid = self._write, None  # in-process unless entered with os.fork

    def __call__(self, state: IeqState, stats) -> None:
        if state.n % self.stride == 0 or state.n == self.last:
            self._send(state.n, state.U, state.V, state.W)

    def _write(self, n: int, *rows: np.ndarray) -> None:
        table = np.stack([self.x, *rows], axis=1)
        with self.out.open(f"solution_{n}.csv", "wb") as f:
            f.write(b"x,U,V,W\n")
            for lo in range(0, len(table), _BLOCK):
                f.write(csv_lines(table[lo:lo + _BLOCK]))

    def __enter__(self) -> SnapshotWriter:
        if not hasattr(os, "fork"):
            return self
        import fcntl  # here: where os.fork is missing, so is fcntl
        (data_r, self._data), (self._errors, err_w) = os.pipe(), os.pipe()
        with contextlib.suppress(OSError, AttributeError):  # else the default size
            fcntl.fcntl(self._data, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        self._pid = os.fork()
        if self._pid == 0:  # the writer; os._exit flushes no inherited stdio buffer
            try:
                os.close(self._data)
                with os.fdopen(data_r, "rb") as pipe:
                    while level := pipe.read(8 * (1 + 3 * len(self.x))):
                        values = np.frombuffer(level)
                        self._write(int(values[0]), *values[1:].reshape(3, -1))
                os._exit(0)
            except BaseException as exc:  # sent back; the finally ends the writer
                os.write(err_w, pickle.dumps(exc))
            finally:
                os._exit(1)
        os.close(data_r)
        os.close(err_w)
        self._send = self._hand_off
        return self

    def _hand_off(self, n: int, *rows: np.ndarray) -> None:
        self.out.opened.append(self.out.dir / f"solution_{n}.csv")  # the writer's list is a copy
        view = memoryview(np.concatenate(([n], *rows))).cast("B")  # n < 2**53 is exact
        while view:  # BrokenPipeError if the writer has left; __exit__ raises its error
            view = view[os.write(self._data, view):]

    def __exit__(self, exc_type, *exc) -> None:  # reaps the writer: its error beats a broken pipe
        if self._pid is None:
            return
        os.close(self._data)
        with os.fdopen(self._errors, "rb") as errors:
            report = errors.read()  # until the writer exits
        status = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        if exc_type is None or issubclass(exc_type, BrokenPipeError):
            if report:
                raise pickle.loads(report)
            if status:
                raise OSError(f"snapshot writer exited with status {status} and no error report")


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
                     levels.append((w_projection_drift(state), abs(state.U[[0, -1]]).max()))))
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
    _write_csv(out, "energy.csv", "n,t,E,RE", recorder.rows)
    with out.open("meta.json") as f:
        f.write(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


LADDER_LEVELS = 4  # refinement levels of each ladder, as in the paper's tables


def cmd_convergence(s: dict, out: Outputs) -> int:
    """refinement-ladder error table"""
    problem = get_problem(s["example"])
    rows = []
    for alpha in s["alphas"]:
        report = convergence_ladder(problem, _scheme_config(s, alpha), LADDER_LEVELS)
        rows.extend((alpha, row.h, row.tau, row.error, row.order) for row in report.rows)
    _write_csv(out, "convergence.csv", "alpha,h,tau,error,order", rows)
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
    op = OperatorStack([FracOperator(alpha, cfg.grid) for alpha in cfg.alpha])
    recorders = [EnergyRecorder(op, row) for row in range(len(cfg.alpha))]
    run(get_problem(s["example"]), cfg, observers=recorders, op=op)  # all orders as one stack
    for name, recorder in zip(alphas_of, recorders):
        _write_csv(out, name, "n,t,E,RE", recorder.rows)
    return 0


def _timed_run(problem, cfg: SchemeConfig, reps: int) -> tuple[float, np.ndarray]:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        final = run(problem, cfg).state.U
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), final


# bench, the paper's timing experiment: example 5.1 at fixed sizes and steps
BENCH_SIZES, BENCH_ALPHAS, BENCH_TAUS = (200, 400), (1.3, 2.0), (0.1, 0.05, 0.025, 0.0125)
BENCH_T, BENCH_H, BENCH_OMEGA = 10.0, 0.1, 1.0
BENCH_REPS = 3  # timings per reported median
# tighter than the derived tolerance: per-step CG error accumulates over the
# longest sweep (800 steps), and bench holds CG to the dense direct solution
# within CG_DEFAULT_TOL_CEILING; at 1e-12, 8 of its 16 runs would not be
BENCH_CG_TOL = 1e-14


def cmd_bench(_: dict, out: Outputs) -> int:
    """dense-direct vs FFT-CG wall-clock comparison at fixed sizes and steps (minutes)"""
    from . import _dense  # loads SciPy here, before the first timed run
    problem = get_problem("5.1", omega=BENCH_OMEGA)
    rows, violations = [], []
    runs = [(alpha, M, tau, replace(_scheme_config({
        "domain": (-0.5 * M * BENCH_H, 0.5 * M * BENCH_H), "h": BENCH_H, "tau": tau,
        "T": BENCH_T}, alpha), cg_tol=BENCH_CG_TOL))
        for alpha, M, tau in itertools.product(BENCH_ALPHAS, BENCH_SIZES, BENCH_TAUS)]
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
        if name in PRESETS:
            p.add_argument("--preset", choices=sorted(PRESETS[name]),
                           help="named experiment settings")
    for opt, cmd in ((o, c) for o in OPTIONS for c in o.commands):
        parsers[cmd].add_argument("--" + opt.name.replace("_", "-"), dest=opt.name,
                                  help=opt.help, **opt.extra)
    for p in parsers.values():
        p.add_argument("--out", required=True, help="output directory")
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
        # help and --version exit 0; usage errors exit 1, not argparse's 2,
        # because exit code 2 is reserved for numerical failures
        return 1 if exc.code else 0
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
