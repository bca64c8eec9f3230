"""Energy, error-norm, and convergence-order diagnostics.

The discrete energy is the conserved quadratic form of the stepper; the error
utilities implement the exact-solution max-norm error (classical case of the
velocity-kick benchmark only) and the grid-halving self-comparison error at
coincident nodes (no interpolation).  Convergence ladders assemble the rows
behind the convergence tables and the observed orders log2(E(h)/E(h/2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator import FracOperator, GridSpec, subdivisions
from .problems import Problem, exact_breather
from .scheme import IeqState, SchemeConfig, level_product, run
from .solvers import SolveConfig


def discrete_energy(state: IeqState, op: FracOperator) -> float:
    """E^n = 1/2 (||V||^2 + ||Lambda^alpha U||^2 + 2 ||W||^2) with the
    discrete inner product h * sum over interior nodes.  The seminorm term
    ||Lambda^alpha U||^2 = h^{1-alpha} U^T C U is h (op.apply(U), U), with the
    level's operator product, which the stepper and this function share:
    whichever reads it first computes it."""
    h = op.grid.h
    return 0.5 * (
        h * float(np.dot(state.V, state.V))
        + h * float(np.dot(level_product(state, op), state.U))
        + 2.0 * h * float(np.dot(state.W, state.W))
    )


def w_projection_drift(state: IeqState) -> float:
    """Max-norm distance of the evolved W from sqrt(2 - cos U).  Recorded as
    a diagnostic only; the scheme never re-projects W."""
    return float(np.max(np.abs(state.W - np.sqrt(2.0 - np.cos(state.U)))))


class EnergyRecorder:
    """Run observer accumulating (n, t, E, RE) rows, RE = |(E^n - E^0)/E^0|."""

    def __init__(self, op: FracOperator):
        self.op = op
        self.rows: list[tuple[int, float, float, float]] = []
        self._e0: float | None = None

    def __call__(self, state: IeqState, stats) -> None:
        e = discrete_energy(state, self.op)
        if self._e0 is None:
            self._e0 = e
        self.rows.append((state.n, state.t, e, abs((e - self._e0) / self._e0)))

    def max_relative_drift(self) -> float:
        return max(r[3] for r in self.rows)


def max_norm_error_exact(U: np.ndarray, grid: GridSpec, t: float, omega: float) -> float:
    """Max-norm distance from the breather at time t over interior nodes."""
    return float(np.max(np.abs(exact_breather(grid.interior_nodes(), t, omega) - U)))


def max_norm_error_self(coarse: np.ndarray, fine: np.ndarray, ratio: int = 2) -> float:
    """Max-norm difference between a coarse run and a run refined by
    ``ratio`` in both h and tau, compared at coincident nodes only.

    Coarse interior node j coincides with fine interior node ratio*j; the
    refined grid contains every coarse node exactly, so no interpolation is
    involved.
    """
    if ratio < 2:
        raise ValueError(f"refinement ratio must be >= 2, got {ratio}")
    if len(fine) + 1 != ratio * (len(coarse) + 1):
        raise ValueError(
            f"grids are not {ratio}x nested: coarse has {len(coarse)} interior "
            f"nodes, fine has {len(fine)}")
    return float(np.max(np.abs(coarse - fine[ratio - 1::ratio])))


def orders_from_errors(errors) -> list[float]:
    """Observed orders p_i = log2(e_{i-1}/e_i) between consecutive ladder
    levels; one fewer entry than errors."""
    return [float(np.log2(errors[i - 1] / errors[i])) for i in range(1, len(errors))]


@dataclass
class LadderRow:
    h: float
    tau: float
    error: float
    order: float | None  # None on the first level


@dataclass
class ErrorReport:
    mode: str  # "exact" | "self"
    rows: list[LadderRow]


def convergence_ladder(problem: Problem, alpha: float, a: float, b: float,
                       base_h: float, base_tau: float, levels: int, T: float,
                       solve_cfg: SolveConfig | None = None) -> ErrorReport:
    """Errors and observed orders over the refinement ladder (h, tau),
    (h/2, tau/2), ...

    Exact-solution errors when alpha = 2 and the problem has one; otherwise
    self-comparison against the next refinement (one extra run).
    """
    if levels < 1:
        raise ValueError(f"need at least one ladder level, got {levels}")
    base_M = subdivisions(b - a, base_h, "h")
    base_N = subdivisions(T, base_tau, "tau")
    solve_cfg = solve_cfg if solve_cfg is not None else SolveConfig()

    exact_mode = alpha == 2.0 and problem.has_exact
    n_runs = levels if exact_mode else levels + 1
    finals: list[np.ndarray] = []
    grids: list[GridSpec] = []
    for lvl in range(n_runs):
        grid = GridSpec(a=a, b=b, M=base_M * 2 ** lvl)
        cfg = SchemeConfig(grid=grid, alpha=alpha, T=T, N=base_N * 2 ** lvl, solve=solve_cfg)
        finals.append(run(problem, cfg).state.U)
        grids.append(grid)

    errors: list[float] = []
    for lvl in range(levels):
        if exact_mode:
            errors.append(max_norm_error_exact(finals[lvl], grids[lvl], T, problem.omega))
        else:
            errors.append(max_norm_error_self(finals[lvl], finals[lvl + 1]))
    orders = orders_from_errors(errors)
    rows = [
        LadderRow(h=grids[lvl].h, tau=T / (base_N * 2 ** lvl), error=errors[lvl],
                  order=None if lvl == 0 else orders[lvl - 1])
        for lvl in range(levels)
    ]
    return ErrorReport(mode="exact" if exact_mode else "self", rows=rows)
