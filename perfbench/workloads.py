"""The benchmark's workloads: their inputs, one execution, and its checks.

Each workload has ``execute(out_dir)``, the timed call into fracsg's public
entry points, and ``check(out_dir, result)``, run untimed afterwards, which
raises :class:`CheckFailure` on a wrong output and otherwise returns an
:class:`Outcome` whose digest must repeat byte for byte across iterations.
Tolerances are the ones the ROADMAP gates on.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fracsg
import fracsg.cli
from fracsg import FracOperator, GridSpec, SchemeConfig, discrete_energy, get_problem
from fracsg.presets import ENERGY_PRESETS, RUN_PRESETS

ENERGY_DRIFT_MAX = 1e-8
RESIDUAL_MAX = 1e-10

# alphas a nonzero seed draws for soliton_run
SEED_ALPHAS = (1.3, 1.5, 1.75, 1.9)
# omegas a nonzero seed draws for stiff_fine_mesh; drawing alpha there would
# change the CG work per step fivefold between seeds
SEED_OMEGAS = (0.9, 1.0, 1.1, 1.2)


class CheckFailure(Exception):
    """An output failed a correctness check."""


@dataclass
class Outcome:
    digest: str
    energy_drift: float
    files: int = 0
    bytes: int = 0


def _grid(a: float, b: float, h: float) -> GridSpec:
    return GridSpec(a=a, b=b, M=round((b - a) / h))


def _call_cli(argv: list[str]) -> None:
    # resolved at call time, so a traced run sees the wrapped name
    code = fracsg.cli.main(argv)
    if code != 0:
        raise CheckFailure(f"fracsg {' '.join(argv)} exited with code {code}")


def _energy_drift(path: Path, levels: int) -> float:
    """Largest relative energy drift RE in an energy CSV with n,t,E,RE rows."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (levels, 4) or not np.all(np.isfinite(rows)):
        raise CheckFailure(f"{path.name}: expected {levels} finite rows of n,t,E,RE")
    return float(rows[:, 3].max())


def _tree_digest(out_dir: Path) -> tuple[str, int, int]:
    """Hash of every file's name and bytes, with the file and byte counts."""
    digest = hashlib.sha256()
    files = size = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0" + data)
        files += 1
        size += len(data)
    return digest.hexdigest(), files, size


def _check_drift(drift: float, where: str) -> None:
    if not drift <= ENERGY_DRIFT_MAX:
        raise CheckFailure(f"{where}: energy drift {drift:.3e} exceeds {ENERGY_DRIFT_MAX:g}")


def _check_residual(residual: float, where: str) -> None:
    if not residual <= RESIDUAL_MAX:  # also rejects NaN
        raise CheckFailure(f"{where}: residual_max {residual!r} exceeds {RESIDUAL_MAX:g}")


class SolitonRun:
    """``fracsg run --preset soliton1`` into a fresh directory."""

    name = "soliton_run"

    def __init__(self, alpha: float = 1.5, extra: tuple[str, ...] = ()):
        self.alpha = alpha
        self.argv = ["run", "--preset", "soliton1", "--alpha", repr(alpha), *extra]

    def describe(self) -> str:
        return "fracsg " + " ".join(self.argv)

    def first_operator(self) -> FracOperator:
        p = RUN_PRESETS["soliton1"]
        return FracOperator(self.alpha, _grid(p.a, p.b, p.h))

    def execute(self, out_dir: Path) -> None:
        _call_cli(self.argv + ["--out", str(out_dir)])

    def check(self, out_dir: Path, result) -> Outcome:
        preset = RUN_PRESETS["soliton1"]
        N = round(preset.T / preset.tau)
        meta = json.loads((out_dir / "meta.json").read_text())
        _check_residual(meta["residual_max"], "meta.json")
        if meta["N"] != N:
            raise CheckFailure(f"meta.json: expected N={N}, found {meta['N']}")
        M = meta["M"]
        # the CLI's default stride, N // 100, plus the final level
        expected = {f"solution_{n}.csv" for n in (*range(0, N + 1, max(1, N // 100)), N)}
        found = {p.name for p in out_dir.glob("solution_*.csv")}
        if found != expected:
            raise CheckFailure(f"expected {len(expected)} snapshots, found {len(found)}")
        for name in found:
            snap = np.loadtxt(out_dir / name, delimiter=",", skiprows=1, ndmin=2)
            if snap.shape != (M - 1, 4) or not np.all(np.isfinite(snap)):
                raise CheckFailure(f"{name}: expected {M - 1} finite rows of x,U,V,W")
        drift = _energy_drift(out_dir / "energy.csv", N + 1)
        _check_drift(drift, "energy.csv")
        digest, files, size = _tree_digest(out_dir)
        if files != len(expected) + 2:
            raise CheckFailure(f"expected snapshots, energy.csv and meta.json, found {files} files")
        return Outcome(digest, drift, files, size)


class EnergyPresets:
    """``fracsg energy --preset fig2`` then ``--preset fig4``."""

    name = "energy_presets"
    presets = ("fig2", "fig4")

    def describe(self) -> str:
        return "; ".join(f"fracsg energy --preset {p}" for p in self.presets)

    def first_operator(self) -> FracOperator:
        p = ENERGY_PRESETS[self.presets[0]]
        return FracOperator(p.alphas[0], _grid(p.a, p.b, p.h))

    def execute(self, out_dir: Path) -> None:
        # fig2 and fig4 share alphas, so each writes its own directory
        for preset in self.presets:
            _call_cli(["energy", "--preset", preset, "--out", str(out_dir / preset)])

    def check(self, out_dir: Path, result) -> Outcome:
        drift = 0.0
        for preset in self.presets:
            files = sorted((out_dir / preset).glob("energy_*.csv"))
            p = ENERGY_PRESETS[preset]
            if len(files) != len(p.alphas):
                raise CheckFailure(f"{preset}: expected {len(p.alphas)} energy series, "
                                   f"found {len(files)}")
            levels = round(p.T / p.tau) + 1
            for path in files:
                d = _energy_drift(path, levels)
                _check_drift(d, f"{preset}/{path.name}")
                drift = max(drift, d)
        digest, files, size = _tree_digest(out_dir)
        return Outcome(digest, drift, files, size)


class StiffFineMesh:
    """``fracsg.run`` on example 5.1, alpha 1.8, M = 16000, N = 10: large
    tau^2 h^-alpha, so CG iterations dominate.  No observers."""

    name = "stiff_fine_mesh"

    def __init__(self, omega: float = 1.1):
        self.problem = get_problem("5.1", omega=omega)
        self.alpha = 1.8
        self.cfg = SchemeConfig(grid=GridSpec(a=-20.0, b=20.0, M=16000), alpha=self.alpha,
                                T=1.0, N=10)
        self._op: FracOperator | None = None

    def describe(self) -> str:
        g = self.cfg.grid
        return (f"fracsg.run example 5.1 omega={self.problem.omega} alpha={self.alpha} "
                f"on ({g.a:g}, {g.b:g}) M={g.M} N={self.cfg.N} T={self.cfg.T:g}")

    def first_operator(self) -> FracOperator:
        return FracOperator(self.alpha, self.cfg.grid)

    def execute(self, out_dir: Path):
        return fracsg.run(self.problem, self.cfg)

    def check(self, out_dir: Path, result) -> Outcome:
        _check_residual(result.residual_max, "RunResult")
        state = result.state
        if not all(np.all(np.isfinite(a)) for a in (state.U, state.V, state.W)):
            raise CheckFailure("final state is not finite")
        if self._op is None:
            self._op = FracOperator(self.alpha, self.cfg.grid)
        e0 = discrete_energy(fracsg.initial_state(self.problem, self.cfg.grid), self._op)
        drift = abs(discrete_energy(state, self._op) - e0) / abs(e0)
        _check_drift(drift, "final state")
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (state.U, state.V, state.W)))
        return Outcome(digest.hexdigest(), drift)


def make(name: str, seed: int):
    """The workload ``name`` with inputs drawn from ``seed``; seed 0 gives
    the reference settings."""
    rng = random.Random(seed)
    if name == "soliton_run":
        return SolitonRun(alpha=1.5 if seed == 0 else rng.choice(SEED_ALPHAS))
    if name == "energy_presets":
        return EnergyPresets()
    if name == "stiff_fine_mesh":
        return StiffFineMesh(omega=1.1 if seed == 0 else rng.choice(SEED_OMEGAS))
    raise ValueError(f"unknown workload {name!r}")
