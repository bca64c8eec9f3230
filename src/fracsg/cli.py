"""Command-line front end of the fracsg solver.

Settings come from flags, then a --config file, then a --preset, then the
subcommand's defaults.  All real numbers in CSV output use 16-significant-digit
scientific notation, and every output except bench timings is byte-stable
across repeated runs.  Exit codes: 0 success, 1 configuration error,
2 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from collections import ChainMap
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__
from .diagnostics import EnergyRecorder, convergence_ladder
from .operator import FracOperator, GridSpec, subdivisions
from .presets import DEFAULTS, PRESETS
from .problems import get_problem
from .scheme import IeqState, SchemeConfig, run
from .solvers import (NumericalFailure, SolveConfig, cg_tolerance, choose_preconditioner,
                      condition_bound)

_REAL = "{:.15e}".format


def _positive(conv: Callable[[str], Any]) -> Callable[[str], Any]:
    def convert(text: str):
        value = conv(text)
        if not 0 < value < math.inf:  # also rejects NaN
            raise ValueError("must be positive and finite")
        return value
    return convert


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _list(conv: Callable[[str], Any], length: int | None = None) -> Callable[[str], tuple]:
    def convert(text: str) -> tuple:
        values = tuple(conv(p) for p in text.replace(",", " ").split())
        if not values:
            raise ValueError("needs a nonempty comma-separated list")
        if length is not None and len(values) != length:
            raise ValueError(f"needs {length} values")
        return values
    return convert


class Option(NamedTuple):
    """An option of the subcommands in ``commands``.  ``conv`` turns its text,
    from a flag or a config-file line, into a setting; an option without one
    (where settings come from, where output goes) is no config-file key."""

    name: str
    commands: tuple[str, ...]
    help: str
    conv: Callable[[str], Any] | None = None
    choices: tuple[str, ...] | None = None
    extra: dict = {}  # further add_argument keywords


SIM = ("run", "convergence", "energy")
ALL = SIM + ("bench",)
OPTIONS = (
    Option("version", ("fracsg",), "show the version and exit",  # the top-level parser
           extra={"action": "version", "version": __version__}),
    Option("preset", SIM, "named experiment settings"),
    Option("example", SIM, "benchmark problem", str, ("5.1", "5.2")),
    Option("alpha", ("run",), "fractional order in (1, 2]", float),
    Option("alphas", ("convergence", "energy", "bench"), "comma-separated fractional orders",
           _list(float)),
    Option("omega", ALL, "width parameter of benchmark 5.1", _positive(float)),
    Option("domain", SIM, "interval endpoints", _list(_finite, 2),
           extra={"nargs": 2, "metavar": ("A", "B")}),
    Option("h", ("run", "energy", "bench"), "mesh size", _positive(float)),
    Option("tau", ("run", "energy"), "time step (must divide T)", _positive(float)),
    Option("base_h", ("convergence",), "coarsest mesh size", _positive(float)),
    Option("base_tau", ("convergence",), "coarsest time step", _positive(float)),
    Option("levels", ("convergence",), "ladder depth", _positive(int)),
    Option("T", ALL, "final time", _positive(float)),
    Option("sizes", ("bench",), "comma-separated interior sizes M", _list(int)),
    Option("taus", ("bench",), "comma-separated time steps", _list(_positive(float))),
    Option("reps", ("bench",), "repetitions per timing (median reported)", _positive(int)),
    Option("cg_tol", ALL, "CG relative residual tolerance (default max(1e-12, 10 eps "
           "times the condition bound))", _positive(float)),
    Option("snapshot_stride", ("run",),
           "write solution_<n>.csv every this many steps (default N/100)", _positive(int)),
    Option("out", ALL, "output directory", extra={"required": True}),
    Option("config", ALL, "flat key = value config file; flags take precedence"),
)


def _convert(opt: Option, text: str | list[str]) -> Any:
    text = " ".join(text) if isinstance(text, list) else text  # a flag taking several words
    try:
        if opt.choices and text not in opt.choices:
            raise ValueError(f"choose from {', '.join(opt.choices)}")
        return opt.conv(text)
    except ValueError as exc:
        raise ValueError(f"invalid {opt.name} {text!r}: {exc}") from None


def _read_config(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments ignored; keys match
    long option names with dashes replaced by underscores."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    entries = {}
    for lineno, raw in enumerate(lines, start=1):
        key, eq, value = raw.split("#", 1)[0].partition("=")
        if eq:
            entries[key.strip().replace("-", "_")] = value.strip()
        elif key.strip():
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
    return entries


def resolve(ns: argparse.Namespace) -> dict[str, Any]:
    """Every setting of subcommand ``ns.command``, taken from its flags, then
    its config file, then its preset, then the subcommand's defaults.  Raises
    ValueError on an unknown config-file key, a bad value or a missing setting."""
    owned = {o.name: o for o in OPTIONS if ns.command in o.commands and o.conv}
    flags = {k: _convert(o, vars(ns)[k]) for k, o in owned.items() if vars(ns)[k] is not None}
    entries = _read_config(ns.config) if ns.config else {}
    unknown = sorted(set(entries) - set(owned))
    if unknown:
        raise ValueError(f"unknown config file keys: {', '.join(unknown)}")
    from_file = {k: _convert(owned[k], v) for k, v in entries.items()}
    preset = PRESETS[ns.command][ns.preset].settings() if vars(ns).get("preset") else {}
    merged = ChainMap(flags, from_file, preset, DEFAULTS[ns.command])
    missing = [k for k in owned if k not in merged]
    if missing:
        raise ValueError(f"missing required settings: {', '.join(missing)}")
    return {k: merged[k] for k in owned}


def _solve_config(s: dict) -> SolveConfig:
    return SolveConfig(cg_rel_tol=s["cg_tol"])


def _scheme_config(s: dict, alpha: float) -> SchemeConfig:
    a, b = s["domain"]
    return SchemeConfig(grid=GridSpec(a=a, b=b, M=subdivisions(b - a, s["h"], "h")),
                        alpha=alpha, T=s["T"], N=subdivisions(s["T"], s["tau"], "tau"),
                        solve=_solve_config(s))


def _write_csv(path: Path, header: str, rows) -> None:
    with path.open("w") as f:
        f.write(header + "\n")
        f.writelines(",".join(row) + "\n" for row in rows)


def _write_energy(path: Path, recorder: EnergyRecorder) -> None:
    _write_csv(path, "n,t,E,RE",
               ((str(n), _REAL(t), _REAL(e), _REAL(re)) for n, t, e, re in recorder.rows))


class SnapshotWriter:
    """Writes solution_<n>.csv at the configured stride plus the final level.

    Each file is formatted by one ``%`` over a flat cell list whose x column
    is formatted once; ``"%.15e" % v`` gives the same bytes as ``_REAL(v)``.
    """

    def __init__(self, out_dir: Path, x: np.ndarray, stride: int, last: int):
        self.out_dir = out_dir
        self.stride = stride
        self.last = last
        self._template = "%s,%.15e,%.15e,%.15e\n" * len(x)
        self._cells: list = [None] * (4 * len(x))
        self._cells[0::4] = map(_REAL, x.tolist())

    def __call__(self, state: IeqState, stats) -> None:
        if state.n % self.stride == 0 or state.n == self.last:
            cells = self._cells
            cells[1::4], cells[2::4], cells[3::4] = (
                state.U.tolist(), state.V.tolist(), state.W.tolist())
            text = "x,U,V,W\n" + self._template % tuple(cells)
            (self.out_dir / f"solution_{state.n}.csv").write_text(text)


def cmd_run(s: dict, out_dir: Path) -> int:
    """single simulation with snapshots and energy series"""
    cfg = _scheme_config(s, s["alpha"])
    grid, solve = cfg.grid, cfg.solve
    stride = max(1, cfg.N // 100) if s["snapshot_stride"] is None else s["snapshot_stride"]
    problem = get_problem(s["example"], omega=s["omega"])
    op = FracOperator(cfg.alpha, grid)
    recorder = EnergyRecorder(op)
    snapshots = SnapshotWriter(out_dir, grid.interior_nodes(), stride, cfg.N)
    result = run(problem, cfg, observers=(recorder, snapshots), op=op)
    _write_energy(out_dir / "energy.csv", recorder)
    bound = condition_bound(op, cfg.tau)
    meta = dict(
        example=problem.key, omega=problem.omega, alpha=cfg.alpha, domain=[grid.a, grid.b],
        h=grid.h, M=grid.M, tau=cfg.tau, N=cfg.N, T=cfg.T, method=solve.method,
        cg_rel_tol=cg_tolerance(solve, bound), precond=choose_preconditioner(op, cfg.tau),
        condition_bound=bound, snapshot_stride=stride,
        fft_embed_size=op.embed_size, cg_iterations_max=result.cg_iterations_max,
        cg_iterations_mean=result.cg_iterations_mean, residual_max=result.residual_max,
        version=__version__)
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_convergence(s: dict, out_dir: Path) -> int:
    """refinement-ladder error table"""
    problem = get_problem(s["example"], omega=s["omega"])
    rows = []
    for alpha in s["alphas"]:
        report = convergence_ladder(problem, alpha, *s["domain"], s["base_h"], s["base_tau"],
                                    s["levels"], s["T"], solve_cfg=_solve_config(s))
        rows.extend((_REAL(alpha), _REAL(row.h), _REAL(row.tau), _REAL(row.error),
                     "" if row.order is None else _REAL(row.order)) for row in report.rows)
    _write_csv(out_dir / "convergence.csv", "alpha,h,tau,error,order", rows)
    return 0


def cmd_energy(s: dict, out_dir: Path) -> int:
    """energy-conservation series per fractional order"""
    problem = get_problem(s["example"], omega=s["omega"])
    for alpha in s["alphas"]:
        cfg = _scheme_config(s, alpha)
        op = FracOperator(alpha, cfg.grid)
        recorder = EnergyRecorder(op)
        run(problem, cfg, observers=(recorder,), op=op)
        _write_energy(out_dir / f"energy_{alpha:g}.csv", recorder)
    return 0


def _timed_run(problem, cfg: SchemeConfig, reps: int) -> tuple[float, np.ndarray]:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        final = run(problem, cfg).state.U
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), final


def cmd_bench(s: dict, out_dir: Path) -> int:
    """dense-direct vs FFT-CG wall-clock comparison (default settings take a few minutes)"""
    problem = get_problem("5.1", omega=s["omega"])
    rows, violations = [], []
    for alpha, M, tau in itertools.product(s["alphas"], s["sizes"], s["taus"]):
        grid = GridSpec(a=-0.5 * M * s["h"], b=0.5 * M * s["h"], M=M)
        base = dict(grid=grid, alpha=alpha, T=s["T"], N=subdivisions(s["T"], tau, "tau"))
        direct_cfg = SchemeConfig(solve=SolveConfig(method="direct"), **base)
        fft_cfg = SchemeConfig(solve=SolveConfig(cg_rel_tol=s["cg_tol"]), **base)
        t_direct, u_direct = _timed_run(problem, direct_cfg, s["reps"])
        t_fft, u_fft = _timed_run(problem, fft_cfg, s["reps"])
        diff = float(np.max(np.abs(u_direct - u_fft)))
        if diff > 1e-8:
            raise NumericalFailure(f"direct and FFT solution paths disagree by {diff:.3e} "
                                   f"(alpha={alpha}, M={M}, tau={tau})")
        if M >= 400 and t_fft > t_direct:
            violations.append(f"alpha={alpha} M={M} tau={tau}: "
                              f"fft {t_fft:.3f}s > direct {t_direct:.3f}s")
        rows.append((_REAL(alpha), str(M), _REAL(grid.h), _REAL(tau), str(base["N"]),
                     _REAL(t_direct), _REAL(t_fft), _REAL(diff)))
    _write_csv(out_dir / "bench.csv",
               "alpha,M,h,tau,steps,direct_seconds,fft_seconds,solution_diff", rows)
    if violations:
        raise NumericalFailure(
            "FFT path slower than direct at M >= 400:\n  " + "\n  ".join(violations))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fracsg", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {"fracsg": parser}
    for func in (cmd_run, cmd_convergence, cmd_energy, cmd_bench):
        name = func.__name__.removeprefix("cmd_")
        parsers[name] = sub.add_parser(name, help=func.__doc__)
        parsers[name].set_defaults(func=func)
    for opt, cmd in ((o, c) for o in OPTIONS for c in o.commands):
        kwargs = dict(opt.extra, dest=opt.name, help=opt.help)
        default = DEFAULTS.get(cmd, {}).get(opt.name)
        if default is not None:
            text = ",".join(map(str, default)) if isinstance(default, tuple) else default
            kwargs["help"] += f" (default {text})"
        choices = sorted(PRESETS[cmd]) if opt.name == "preset" else opt.choices
        if choices:
            kwargs["choices"] = choices
        parsers[cmd].add_argument("--" + opt.name.replace("_", "-"), **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
        settings = resolve(ns)
        out_dir = Path(ns.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return ns.func(settings, out_dir)
    except SystemExit as exc:
        # help and --version exit 0; usage errors exit 1, not argparse's 2,
        # because exit code 2 is reserved for numerical failures
        return 1 if exc.code else 0
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
