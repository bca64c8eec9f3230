"""Per-step linear solvers for the Schur-reduced midpoint system.

Each time step requires one solve with I + (tau^2/4) * Dh^alpha + diag(d),
d >= 0: identity plus SPD plus nonnegative diagonal, hence SPD for every
tau > 0, one such system per row of the operator: a single order is a stack
of one row.  It is solved by conjugate gradients with FFT mat-vecs, set up
once per run by cg_setup: the default tolerance and cap follow from each
row's a-priori condition bound and, where that bound is large, CG is
preconditioned through the operator's own circulant embedding.  The dense
direct solve, the reference this one is checked and timed against, lives in
the private module _dense.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operator import FracOperator

# Condition bound above which CG runs with the circulant preconditioner (and
# the stepper with its projected start).  At alpha = 1.8, N = 10 and M = 800,
# 4000, 16000 the preconditioned run took 0.71-0.88x the plain time at bounds
# 2-2.5 and 0.45-0.72x at 3-7.  At 4, twice the largest preset bound (2.0), no
# preset is near the switch.  CHANGES.md records the sweep.
CIRCULANT_MIN_BOUND = 4.0

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

    op: FracOperator  # one system per row of op
    tau: float
    diag: np.ndarray  # nonnegative, (k, M-1), or (M-1,) for one row: shaped like the vectors
    product: np.ndarray | None = field(default=None, repr=False)  # solve leaves op.apply(x) here

    def matvec(self, v: np.ndarray) -> np.ndarray:
        self.product = self.op.apply(v)
        return self.matvec_from_product(v, self.product)

    def matvec_from_product(self, v: np.ndarray, op_v: np.ndarray) -> np.ndarray:
        """M_sys v from v and its operator product op_v = op.apply(v)."""
        return v + (0.25 * self.tau * self.tau) * op_v + self.diag * v


@dataclass
class SolveStats:  # the largest over the rows
    iterations: int
    residual: float  # true relative residual, recomputed a posteriori


def condition_bound(op: FracOperator, tau: float) -> np.ndarray:
    """Per row of ``op``, an upper bound 1 + (tau^2/2) h^{-alpha} c_0 + tau^2/8 on
    the condition number of every step matrix of a run with it and time step tau.

    The eigenvalues of C lie in (0, 2 c_0) and the diagonal term
    (tau^2/8) b^2 in [0, tau^2/8) since |b| < 1, so the spectrum of M_sys lies
    in [1, bound].
    """
    return 1.0 + 0.5 * tau * tau * op.scale[:, 0] * op.kernel[:, 0] + 0.125 * tau * tau


def build_circulant_preconditioner(op: FracOperator, tau: float):
    """Approximate inverse of M_sys: the leading (M-1) x (M-1) block of
    (I + (tau^2/4) h^{-alpha} F)^{-1}, with F the circulant of half the embedding
    length whose column is the operator's embedding E's folded modulo that length.
    F's eigenvalues are E's even-indexed ones, so nonnegative, and the block is SPD
    with eigenvalues in (0, 1]; d = (tau^2/8) b^2 < tau^2/8 is left out.  Returns a
    callable (r, rows) -> approx M_sys^{-1} r, r (len(rows), M-1), one FFT pair at half the
    embedding length, on op's rows ``rows`` (by default all); building it takes none.
    It holds the spectrum alone, not ``op``."""
    spectrum = 1.0 / (1.0 + (0.25 * tau * tau * op.scale) * op.symbol.real[..., ::2])
    return lambda r, rows=...: FracOperator.circulant_product(spectrum[rows], r)


@dataclass(frozen=True)
class CGSetup:
    """Per row of a run's operator, cg_rows' values; the preconditioner, None if no row is."""

    rel_tols: tuple[float, ...]
    bounds: tuple[float, ...]
    caps: tuple[int, ...]
    preconditioned: tuple[bool, ...]
    preconditioner: Callable | None = field(default=None, repr=False)


def cg_rows(op: FracOperator, tau: float, cg_tol: float | None = None) -> list[tuple]:
    """Per row of ``op``, its CG for the step matrices of ``op`` and ``tau``: the relative
    tolerance, cg_tol or by default max(1e-12, 10 eps bound) (1e-12 up to bounds of about
    450), the condition bound, the cap CG_CAP_FACTOR * ceil(sqrt(bound)/2 ln(2/rel_tol)) and
    whether bound > CIRCULANT_MIN_BOUND, which preconditions it.  Below eps * bound the true
    residual no longer follows the recursive one, so a tolerance set there raises
    SolveFailure naming the row's alpha; so does a default above CG_DEFAULT_TOL_CEILING
    (bounds over about 4.5e6), which passes wrong steps."""
    rows = []
    for alpha, bound in zip(op.alpha, condition_bound(op, tau).tolist()):
        floor = np.finfo(np.float64).eps * bound
        if cg_tol is None and 10.0 * floor > CG_DEFAULT_TOL_CEILING:
            raise SolveFailure(
                f"default CG rel tol {10.0 * floor:.3g} (10 eps times condition bound "
                f"{bound:.4g} at h={op.grid.h:g}, tau={tau:g}) exceeds its ceiling "
                f"{CG_DEFAULT_TOL_CEILING:g} for alpha={alpha:g}; a smaller tau lowers the bound")
        if cg_tol is not None and cg_tol < floor:
            raise SolveFailure(
                f"CG rel tol {cg_tol:g} lies below the attainable floor {floor:.3g} "
                f"(machine epsilon times condition bound {bound:.4g}) for alpha={alpha:g}")
        rel_tol = max(1e-12, 10.0 * floor) if cg_tol is None else cg_tol
        rows.append((rel_tol, bound, CG_CAP_FACTOR * math.ceil(
            0.5 * math.sqrt(bound) * math.log(2.0 / rel_tol)), bound > CIRCULANT_MIN_BOUND))
    return rows


def cg_setup(op: FracOperator, tau: float, cg_tol: float | None = None) -> CGSetup:
    """The CG set-up of ``op``'s rows and ``tau``, by cg_rows, which may refuse it."""
    rel_tols, bounds, caps, on = zip(*cg_rows(op, tau, cg_tol))
    return CGSetup(rel_tols, bounds, caps, on,
                   build_circulant_preconditioner(op, tau) if any(on) else None)


def solve(mat: StepMatrix, rhs: np.ndarray, setup: CGSetup | None = None,
          x0: np.ndarray | None = None,
          x0_product: np.ndarray | None = None) -> tuple[np.ndarray, SolveStats]:
    """Solve M_sys x = rhs by CG, each of mat.op's rows as its own system, to the tolerance,
    within the cap and preconditioned as ``setup`` says, by default cg_setup(mat.op, mat.tau);
    rhs is shaped like mat.diag, and so is x.

    CG starts from x0 (zero if None), and a row terminates when its recursive residual
    satisfies ||r||_2 <= rel_tol * ||rhs||_2; a row that gets there leaves the others, so
    each row takes the steps of its own solve, bit for bit; only the residual of a
    preconditioned row that goes on is preconditioned.  Given x0_product =
    op.apply(x0), the initial residual needs no operator application, so the solve
    costs its CG iterations plus one matvec: the true residual the returned stats carry,
    recomputed from x (never from x0_product), which leaves op.apply(x) in mat.product.
    Non-convergence and non-finite data raise SolveFailure naming the row's alpha.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != mat.diag.shape:
        raise ValueError(f"rhs shape {rhs.shape} does not match system shape {mat.diag.shape}")
    setup = setup or cg_setup(mat.op, mat.tau)
    full, alphas = mat, mat.op.alpha
    b = rhs.reshape(len(alphas), mat.op.size)  # one row may come as a vector
    bnorms = [_finite(math.sqrt(v), "right-hand side", a)
              for v, a in zip(np.vecdot(b, b).tolist(), alphas)]
    tols = [tol * bnorm if bnorm else math.inf for tol, bnorm in zip(setup.rel_tols, bnorms)]
    x = np.zeros(b.shape) if x0 is None else np.array(x0, dtype=np.float64).reshape(b.shape)
    r = b - (mat.matvec(x) if x0_product is None else mat.matvec_from_product(x, x0_product))
    out, live, rz = x, list(range(len(alphas))), np.zeros((len(alphas), 1))
    p, iterations, planned = None, 0, None
    while True:
        squares = np.vecdot(r, r, keepdims=True)  # also each plain row's <r, z>, as a column
        norms = [_finite(math.sqrt(v), "residual", alphas[j])
                 for (v,), j in zip(squares.tolist(), live)]
        if not all(map(operator.gt, norms, tols)):  # rows at their tolerance leave
            stay = [i for i, (norm, tol) in enumerate(zip(norms, tols)) if norm > tol]
            for i, j in enumerate(live):
                if i not in stay:  # a zero rhs's row leaves at once, with 0
                    out[j] = x[i] if bnorms[j] else 0.0
            if not stay:
                break
            x, r, p = x[stay], r[stay], None if p is None else p[stay]
            mat = StepMatrix(mat.op[stay], mat.tau, mat.diag[stay])
            live, norms, tols = ([v[i] for i in stay] for v in (live, norms, tols))
            squares, rz = squares[stay], rz[stay]
        if live is not planned:  # on the first pass and after rows leave: the row whose cap
            # comes first, the places ``at`` of the preconditioned rows, and ``rows``, their
            # rows in the preconditioner (..., all of them)
            planned, capped = live, min(live, key=setup.caps.__getitem__)
            at = [i for i, j in enumerate(live) if setup.preconditioned[j]]
            rows = ... if len(at) == len(setup.caps) else [live[i] for i in at]
        if iterations >= setup.caps[capped]:
            raise SolveFailure(
                f"CG failed to reach rel tol {setup.rel_tols[capped]:g} within the cap of "
                f"{setup.caps[capped]} iterations at condition bound {setup.bounds[capped]:.4g} "
                f"(residual {norms[live.index(capped)] / bnorms[capped]:.3e}) for "
                f"alpha={alphas[capped]:g}")
        if not at:
            z = r
        elif len(at) == len(live):
            z = setup.preconditioner(r, rows)
        else:  # a mixed stack: the plain rows' z is their r
            z = r.copy()
            z[at] = setup.preconditioner(r[at], rows)
        rz, rz_old = squares if z is r else np.vecdot(r, z, keepdims=True), rz
        if p is None:
            p = z.copy()
        else:
            p *= rz / rz_old
            p += z
        Ap = mat.matvec(p)
        alpha = rz / np.vecdot(p, Ap, keepdims=True)
        x += alpha * p
        r -= alpha * Ap
        Ap = mat.product = None  # freed before the next matvec, whose transforms set peak memory
        iterations += 1
    res = b - full.matvec(out)
    return out.reshape(rhs.shape), SolveStats(iterations=iterations, residual=max(
        math.sqrt(v) / bnorm if bnorm else 0.0
        for v, bnorm in zip(np.vecdot(res, res).tolist(), bnorms)))


def _finite(norm: float, what: str, alpha: float) -> float:
    """``norm`` unchanged; SolveFailure naming ``what`` and the row's ``alpha`` if it is
    NaN or Inf, which would otherwise pass every tolerance comparison."""
    if not math.isfinite(norm):
        raise SolveFailure(f"non-finite {what} (norm {norm}) for alpha={alpha:g}")
    return norm
