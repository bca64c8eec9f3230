"""Named experiment presets for the CLI.

Convergence presets cover the two benchmark tables (refinement ladder from
(h, tau) = (1/5, 1/50), four levels, T = 1); energy presets cover the
long-time conservation runs; run presets cover the wide-domain soliton
evolutions.  A flag overrides a preset's value (cli.resolve).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Preset:
    """Experiment settings; a field left at None is not part of the preset."""

    example: str
    a: float
    b: float
    T: float
    h: float
    tau: float
    alphas: tuple[float, ...] | None = None
    omega: float | None = None

    def settings(self) -> dict:
        """The set fields under the CLI's setting names."""
        values = asdict(self)
        values["domain"] = (values.pop("a"), values.pop("b"))
        return {k: v for k, v in values.items() if v is not None}


CONVERGENCE_PRESETS: dict[str, Preset] = {
    "table1": Preset(example="5.1", a=-20.0, b=20.0, h=0.2, tau=0.02,
                     T=1.0, alphas=(1.3, 1.75, 1.99, 2.0)),
    "table2": Preset(example="5.2", a=-20.0, b=20.0, h=0.2, tau=0.02,
                     T=1.0, alphas=(1.3, 1.6, 1.9, 2.0)),
}

# the long-time energy runs; final time is not dictated by the benchmark
# tables, T=10 matches the timing experiment's horizon
ENERGY_PRESETS: dict[str, Preset] = {
    "fig2": Preset(example="5.1", a=-40.0, b=40.0, h=0.1, tau=0.05, T=10.0,
                   alphas=(1.3, 1.75, 1.99, 2.0)),
    "fig4": Preset(example="5.2", a=-40.0, b=40.0, h=0.05, tau=0.05, T=10.0,
                   alphas=(1.3, 1.6, 1.9, 2.0)),
}

RUN_PRESETS: dict[str, Preset] = {
    "soliton1": Preset(example="5.1", a=-100.0, b=100.0, h=0.1,
                       tau=0.05, T=10.0, omega=1.0),
    "soliton2": Preset(example="5.2", a=-100.0, b=100.0, h=0.1,
                       tau=0.05, T=10.0),
}

PRESETS: dict[str, dict[str, Preset]] = {
    "run": RUN_PRESETS,
    "convergence": CONVERGENCE_PRESETS,
    "energy": ENERGY_PRESETS,
}
