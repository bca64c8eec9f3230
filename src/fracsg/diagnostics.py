"""Energy, error-norm, and convergence-order diagnostics.

The discrete energy is the conserved quadratic form of the stepper.
Convergence ladders refine a given SchemeConfig, halving h and tau at each
level, and assemble the rows behind the convergence tables and the observed
orders log2(E(h)/E(h/2)): each error is the max-norm distance from
the problem's exact solution (Problem.exact, at alpha = 2 only) or, without
one, the grid-halving self-comparison error at coincident nodes (no
interpolation).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .operator import FracOperator
from .problems import Problem
from .scheme import IeqState, SchemeConfig, level_product, run
from .solvers import NumericalFailure


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
    """Run observer accumulating (n, t, E, RE) rows, RE = |(E^n - E^0)/E^0|;
    a non-finite E^n is a NumericalFailure."""

    def __init__(self, op: FracOperator):
        self.op = op
        self.rows: list[tuple[int, float, float, float]] = []
        self._e0: float | None = None

    def __call__(self, state: IeqState, stats) -> None:
        e = discrete_energy(state, self.op)
        if not np.isfinite(e):
            raise NumericalFailure(f"non-finite discrete energy {e} at level {state.n}")
        if self._e0 is None:
            self._e0 = e
        self.rows.append((state.n, state.t, e, abs((e - self._e0) / self._e0)))

    def max_relative_drift(self) -> float:
        return max(r[3] for r in self.rows)


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


def convergence_ladder(problem: Problem, cfg: SchemeConfig, levels: int) -> ErrorReport:
    """Errors and observed orders over the refinement ladder of cfg: level l
    halves h and tau l times and keeps the rest (domain, alpha, T, cg_tol, solve).

    Exact-solution errors when alpha = 2 and the problem has one; otherwise
    self-comparison against the next refinement (one extra run).
    """
    if levels < 1:
        raise ValueError(f"need at least one ladder level, got {levels}")
    exact_mode = cfg.alpha == 2.0 and problem.exact is not None
    ladder = [replace(cfg, grid=replace(cfg.grid, M=cfg.grid.M * 2 ** lvl), N=cfg.N * 2 ** lvl)
              for lvl in range(levels if exact_mode else levels + 1)]
    finals = [run(problem, c).state.U for c in ladder]
    if exact_mode:
        errors = [float(np.max(np.abs(problem.exact(c.grid.interior_nodes(), c.T) - u)))
                  for c, u in zip(ladder, finals)]
    else:
        errors = [max_norm_error_self(u, fine) for u, fine in zip(finals, finals[1:])]
    rows = [LadderRow(h=c.grid.h, tau=c.tau, error=e, order=p)
            for c, e, p in zip(ladder, errors, [None, *orders_from_errors(errors)])]
    return ErrorReport(mode="exact" if exact_mode else "self", rows=rows)
