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
from .scheme import IeqState, SchemeConfig, run
from .solvers import NumericalFailure


def discrete_energy(state: IeqState, op: FracOperator) -> float | list[float]:
    """E^n = 1/2 (||V||^2 + ||Lambda^alpha U||^2 + 2 ||W||^2) with the discrete inner
    product h * sum over interior nodes: the rows' energies, a list, or a float for a
    level of vectors.  The seminorm term ||Lambda^alpha U||^2 = h^{1-alpha} U^T C U is
    h (op.apply(U), U), one operator application for all rows."""
    h = op.grid.h
    return (0.5 * (h * np.vecdot(state.V, state.V) + h * np.vecdot(op.apply(state.U), state.U)
                   + 2.0 * h * np.vecdot(state.W, state.W))).tolist()


def w_projection_drift(state: IeqState) -> float:
    """Max-norm distance of the evolved W from sqrt(2 - cos U).  Recorded as
    a diagnostic only; the scheme never re-projects W."""
    return float(np.max(np.abs(state.W - np.sqrt(2.0 - np.cos(state.U)))))


class EnergyRecorder:
    """Run observer accumulating, per row of ``op``, (n, t, E, RE) rows, RE =
    |(E^n - E^0)/E^0|, in ``series``; a non-finite E^n is a NumericalFailure
    naming the row's alpha."""

    def __init__(self, op: FracOperator):
        self.op, self.series = op, [[] for _ in op.alpha]

    def __call__(self, state: IeqState, stats) -> None:
        energies = discrete_energy(state, self.op)
        for e, alpha in zip(energies, self.op.alpha):  # every row checked before any is kept
            if not np.isfinite(e):
                raise NumericalFailure(
                    f"non-finite discrete energy {e} at level {state.n} for alpha={alpha:g}")
        for rows, e in zip(self.series, energies):
            e0 = rows[0][2] if rows else e
            rows.append((state.n, state.t, e, abs((e - e0) / e0)))

    def max_relative_drift(self) -> float:
        return max(r[3] for rows in self.series for r in rows)


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
    mode: str  # what each row's error is a difference from: "exact" | "next" (level)
    rows: list[LadderRow]

    def error_estimate(self, row: LadderRow) -> float:
        """The row's error: against the exact solution, its difference; against the next
        level, that difference times 2^p/(2^p - 1) with p = 2 (Richardson extrapolation for
        a second-order scheme; P. J. Roache, J. Fluids Eng. 116 (1994) 405-413)."""
        return row.error if self.mode == "exact" else 4.0 / 3.0 * row.error


def convergence_ladder(problem: Problem, cfg: SchemeConfig, levels: int) -> ErrorReport:
    """Errors and observed orders over the refinement ladder of cfg: level l
    halves h and tau l times and keeps the rest (domain, alpha, T, cg_tol, solve).

    Exact-solution errors when alpha = 2 and the problem has one; otherwise
    differences from the next refinement (one extra run), mode "next".
    """
    if levels < 1:
        raise ValueError(f"need at least one ladder level, got {levels}")
    if isinstance(cfg.alpha, tuple):
        raise ValueError(f"a ladder refines one order, got alpha={cfg.alpha}")
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
    return ErrorReport(mode="exact" if exact_mode else "next", rows=rows)
