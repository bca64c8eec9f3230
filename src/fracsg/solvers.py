"""Per-step linear solvers for the Schur-reduced midpoint system.

Each time step requires one solve with I + (tau^2/4) * Dh^alpha + diag(d),
d >= 0: identity plus SPD plus nonnegative diagonal, hence SPD for every
tau > 0.  It is solved by conjugate gradients with FFT mat-vecs, the
default tolerance and cap set by the system's a-priori condition bound and,
where that bound is large, preconditioned through the operator's own circulant
embedding.  The dense direct solve, the reference this one is checked and
timed against, lives in the private module _dense.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .operator import FracOperator, OperatorStack

# Condition bound above which CG runs with the circulant preconditioner; below
# it the preconditioner's extra FFT pair per iteration costs more than it saves.
# At alpha = 1.8, N = 10 and M = 800, 4000, 16000 the preconditioned run took
# 0.9-1.4x the plain time at bounds 2-4 and 0.6-0.95x from 5 on (0.35x at 40).
# No preset's bound exceeds about 2.  CHANGES.md records the sweep.
CIRCULANT_MIN_BOUND = 5.0

# CG cap: this factor times ceil(sqrt(bound)/2 ln(2/rel_tol)), the
# exact-arithmetic CG bound (Saad 2003, sec. 6.11.3).  Runs at alpha 1.3-2,
# bounds 1-400 and tolerances 1e-12 and 1e-14 took at most 0.87 of the bound.
CG_CAP_FACTOR = 2

# Ceiling of the default CG tolerance: the direct/FFT agreement contract.
CG_DEFAULT_TOL_CEILING = 1e-8


class NumericalFailure(RuntimeError):
    """Base for runtime numerical breakdowns (mapped to CLI exit code 2)."""


class SolveFailure(NumericalFailure):
    pass


@dataclass
class StepMatrix:
    """Action of M_sys = I + (tau^2/4) * Dh^alpha + diag(d), applied without
    forming the matrix."""

    op: FracOperator  # an OperatorStack: one system per row
    tau: float
    diag: np.ndarray  # nonnegative, shaped like the vectors it acts on

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.matvec_from_product(v, self.op.apply(v))

    def matvec_from_product(self, v: np.ndarray, op_v: np.ndarray) -> np.ndarray:
        """M_sys v from v and its operator product op_v = op.apply(v)."""
        return v + (0.25 * self.tau * self.tau) * op_v + self.diag * v


@dataclass
class SolveStats:  # of a stack: the largest over its rows
    iterations: int
    residual: float  # true relative residual, recomputed a posteriori


def condition_bound(op: FracOperator, tau: float) -> float:
    """Upper bound 1 + (tau^2/2) h^{-alpha} c_0 + tau^2/8 on the condition
    number of every step matrix of a run with this operator and time step.

    The eigenvalues of C lie in (0, 2 c_0) and the diagonal term
    (tau^2/8) b^2 in [0, tau^2/8) since |b| < 1, so the spectrum of M_sys lies
    in [1, bound].
    """
    return 1.0 + 0.5 * tau * tau * op.scale * float(op.kernel[0]) + 0.125 * tau * tau


def cg_tolerance(cg_tol: float | None, op: FracOperator, tau: float) -> float:
    """CG's relative tolerance for the step matrices of ``op`` and ``tau``:
    cg_tol, by default (None) max(1e-12, 10 eps bound) with the condition
    bound (1e-12 up to bounds of about 450).  Below eps * bound the true
    residual no longer follows the recursive one, so a tolerance set there
    raises SolveFailure, as does a default above CG_DEFAULT_TOL_CEILING
    (bounds above about 4.5e6), which would accept a visibly wrong step."""
    bound = condition_bound(op, tau)
    floor = np.finfo(np.float64).eps * bound
    if cg_tol is None:
        if 10.0 * floor > CG_DEFAULT_TOL_CEILING:
            raise SolveFailure(
                f"default CG rel tol {10.0 * floor:.3g} (10 eps times condition bound "
                f"{bound:.4g} at h={op.grid.h:g}, tau={tau:g}) exceeds its ceiling "
                f"{CG_DEFAULT_TOL_CEILING:g} for alpha={op.alpha:g}; a smaller tau lowers "
                "the bound")
        return max(1e-12, 10.0 * floor)
    if cg_tol < floor:
        raise SolveFailure(
            f"CG rel tol {cg_tol:g} lies below the attainable floor {floor:.3g} "
            f"(machine epsilon times condition bound {bound:.4g})")
    return cg_tol


def choose_preconditioner(op: FracOperator, tau: float) -> str:
    """The preconditioner solve uses: "circulant" when the condition bound
    exceeds CIRCULANT_MIN_BOUND, otherwise "none".  Depends only on alpha, h
    and tau, so it is the same for every solve of a run."""
    return "circulant" if condition_bound(op, tau) > CIRCULANT_MIN_BOUND else "none"


def build_circulant_preconditioner(mat: StepMatrix):
    """Approximate inverse of M_sys: the leading (M-1) x (M-1) block of
    (I + (tau^2/4) h^{-alpha} E)^{-1}, with E the operator's circulant
    embedding of C.  E's eigenvalues are nonnegative, so the block is SPD
    with eigenvalues in (0, 1]; d = (tau^2/8) b^2 < tau^2/8 is left out.
    Returns a callable r -> approx M_sys^{-1} r, one FFT pair at the
    embedding length.
    """
    op = mat.op
    spectrum = 1.0 / (1.0 + (0.25 * mat.tau * mat.tau * op.scale) * op.symbol.real)
    return lambda r: op.circulant_product(spectrum, r)


def _preconditioner(mat: StepMatrix):
    """r -> z: the circulant preconditioner on the rows choose_preconditioner
    gives one, the identity on the rest."""
    on = [choose_preconditioner(op, mat.tau) == "circulant" for op in mat.op.rows]
    pre = build_circulant_preconditioner(mat) if any(on) else lambda r: r
    return pre if all(on) or not any(on) else lambda r: np.where(np.c_[on], pre(r), r)


def _dots(a: np.ndarray, b: np.ndarray) -> list[float]:  # row by row: each row's own bits
    return [float(np.dot(a, b))] if a.ndim == 1 else list(map(float, map(np.dot, a, b)))


def _column(values, like: np.ndarray):  # per-row scalars, shaped to scale the rows of like
    return next(values) if like.ndim == 1 else np.fromiter(values, np.float64)[:, None]


def solve(mat: StepMatrix, rhs: np.ndarray, cg_tol: float | None = None,
          x0: np.ndarray | None = None,
          x0_product: np.ndarray | None = None) -> tuple[np.ndarray, SolveStats]:
    """Solve M_sys x = rhs by CG to the relative tolerance cg_tolerance(cg_tol),
    each row of a stack (mat.op an OperatorStack) as its own system.

    CG starts from x0 (zero if None) and terminates when the recursive
    residual satisfies ||r||_2 <= cg_tolerance * ||rhs||_2, preconditioned as
    choose_preconditioner decides; a row of a stack that gets there leaves
    it, so each row takes the steps of its own solve, bit for bit.  Given
    x0_product = op.apply(x0), the initial residual needs no operator
    application, so the solve costs its CG iterations plus one matvec: the
    true residual the returned stats carry, recomputed from x and never from
    x0_product.  Non-convergence, non-finite data and a tolerance below
    eps * bound raise SolveFailure.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != mat.diag.shape:
        raise ValueError(f"rhs shape {rhs.shape} does not match system shape {mat.diag.shape}")
    full, ops = mat, mat.op.rows
    bnorms = [_finite(math.sqrt(v), "right-hand side") for v in _dots(rhs, rhs)]  # ||rhs||_2
    rel_tols = [cg_tolerance(cg_tol, op, mat.tau) for op in ops]  # refused even for a zero rhs
    bounds = [condition_bound(op, mat.tau) for op in ops]  # the plain bound caps both paths
    caps = [CG_CAP_FACTOR * math.ceil(0.5 * math.sqrt(bound) * math.log(2.0 / rel_tol))
            for bound, rel_tol in zip(bounds, rel_tols)]
    tols = [rel_tol * bnorm if bnorm else math.inf for rel_tol, bnorm in zip(rel_tols, bnorms)]
    x = np.zeros(rhs.shape) if x0 is None else np.array(x0, dtype=np.float64)
    r = rhs - (mat.matvec(x) if x0_product is None else mat.matvec_from_product(x, x0_product))
    pre = _preconditioner(mat)
    z = pre(r)
    p = z.copy()
    rz = _dots(r, z)
    live, solution, iterations, cap = list(range(len(ops))), [None] * len(ops), 0, min(caps)
    while True:
        norms = [_finite(math.sqrt(v), "residual") for v in _dots(r, r)]
        if not all(map(operator.gt, norms, tols)):  # rows at their tolerance leave
            stay = [j for j, (norm, tol) in enumerate(zip(norms, tols)) if norm > tol]
            for j, xj in enumerate((x,) if x.ndim == 1 else x):
                if j not in stay:  # a zero rhs's row leaves at once, with 0
                    solution[live[j]] = xj if bnorms[live[j]] else np.zeros_like(xj)
            if not stay:
                break
            x, r, p = x[stay], r[stay], p[stay]
            mat = StepMatrix(OperatorStack([mat.op.rows[j] for j in stay]), mat.tau, mat.diag[stay])
            live, norms, rz, caps, tols = ([v[j] for j in stay]
                                           for v in (live, norms, rz, caps, tols))
            pre, cap = _preconditioner(mat), min(caps)
        if iterations >= cap:
            j = caps.index(cap)
            raise SolveFailure(
                f"CG failed to reach rel tol {rel_tols[live[j]]:g} within the cap of {cap} "
                f"iterations at condition bound {bounds[live[j]]:.4g} (residual "
                f"{norms[j] / bnorms[live[j]]:.3e}) for alpha={ops[live[j]].alpha:g}")
        Ap = mat.matvec(p)
        alpha = _column(map(operator.truediv, rz, _dots(p, Ap)), x)
        x += alpha * p
        r -= alpha * Ap
        del Ap  # freed before the next matvec, whose transforms set a stack's peak memory
        z = pre(r)
        rz_new = _dots(r, z)
        p *= _column(map(operator.truediv, rz_new, rz), p)
        p += z
        rz = rz_new
        iterations += 1
    x = solution[0] if rhs.ndim == 1 else np.array(solution)
    res = rhs - full.matvec(x)
    return x, SolveStats(iterations=iterations, residual=max(
        math.sqrt(v) / bnorm if bnorm else 0.0 for v, bnorm in zip(_dots(res, res), bnorms)))


def _finite(norm: float, what: str) -> float:
    """``norm`` unchanged; SolveFailure naming ``what`` if it is NaN or Inf,
    which would otherwise pass every tolerance comparison."""
    if not math.isfinite(norm):
        raise SolveFailure(f"non-finite {what} (norm {norm})")
    return norm
