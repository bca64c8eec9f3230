"""Named experiment presets for the CLI.

Convergence presets cover the two benchmark tables (refinement ladder from
(h, tau) = (1/5, 1/50), four levels, T = 1); energy presets cover the
long-time conservation runs; run presets cover the wide-domain soliton
evolutions.  Each subcommand also has defaults, the values it uses when no
flag, config file or preset sets them; those of bench drive the
direct-vs-FFT timing comparison.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Preset:
    """Experiment settings; a field left at None is not part of the preset."""

    problem_key: str
    a: float
    b: float
    T: float
    h: float | None = None
    tau: float | None = None
    alphas: tuple[float, ...] | None = None
    base_h: float | None = None
    base_tau: float | None = None
    levels: int | None = None
    omega: float = 1.1

    def settings(self) -> dict:
        """The set fields under the CLI's setting names."""
        values = asdict(self)
        values["example"] = values.pop("problem_key")
        values["domain"] = (values.pop("a"), values.pop("b"))
        return {k: v for k, v in values.items() if v is not None}


CONVERGENCE_PRESETS: dict[str, Preset] = {
    "table1": Preset(problem_key="5.1", a=-20.0, b=20.0, base_h=0.2, base_tau=0.02,
                     levels=4, T=1.0, alphas=(1.3, 1.75, 1.99, 2.0), omega=1.1),
    "table2": Preset(problem_key="5.2", a=-20.0, b=20.0, base_h=0.2, base_tau=0.02,
                     levels=4, T=1.0, alphas=(1.3, 1.6, 1.9, 2.0)),
}

# the long-time energy runs; final time is not dictated by the benchmark
# tables, T=10 matches the timing experiment's horizon
ENERGY_PRESETS: dict[str, Preset] = {
    "fig2": Preset(problem_key="5.1", a=-40.0, b=40.0, h=0.1, tau=0.05, T=10.0,
                   alphas=(1.3, 1.75, 1.99, 2.0), omega=1.1),
    "fig4": Preset(problem_key="5.2", a=-40.0, b=40.0, h=0.05, tau=0.05, T=10.0,
                   alphas=(1.3, 1.6, 1.9, 2.0)),
}

RUN_PRESETS: dict[str, Preset] = {
    "soliton1": Preset(problem_key="5.1", a=-100.0, b=100.0, h=0.1,
                       tau=0.05, T=10.0, omega=1.0),
    "soliton2": Preset(problem_key="5.2", a=-100.0, b=100.0, h=0.1,
                       tau=0.05, T=10.0),
}

PRESETS: dict[str, dict[str, Preset]] = {
    "run": RUN_PRESETS,
    "convergence": CONVERGENCE_PRESETS,
    "energy": ENERGY_PRESETS,
}

# what a subcommand falls back on when no flag, config file or preset sets a
# value; every other setting the subcommand owns is required
_SOLVE_DEFAULTS = {"omega": 1.1, "cg_tol": 1e-12}
DEFAULTS: dict[str, dict] = {
    "run": {**_SOLVE_DEFAULTS, "snapshot_stride": None},  # None: N // 100
    "convergence": {**_SOLVE_DEFAULTS, "levels": 4},
    "energy": _SOLVE_DEFAULTS,
    "bench": {
        "sizes": (200, 400),
        "alphas": (1.3, 2.0),
        "taus": (0.1, 0.05, 0.025, 0.0125),
        "h": 0.1,
        "T": 10.0,
        "reps": 3,
        "omega": 1.0,  # soliton setting
        # tighter than the general default: per-step CG error accumulates over
        # the longest sweep (800 steps), and the bench contract checks the two
        # solution paths against each other at 1e-8
        "cg_tol": 1e-14,
    },
}
