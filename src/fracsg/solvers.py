"""Per-step linear solvers for the Schur-reduced midpoint system.

Each time step requires one solve with I + (tau^2/4) * Dh^alpha + diag(d),
d >= 0: identity plus SPD plus nonnegative diagonal, hence SPD for every
tau > 0.  The fast path runs conjugate gradients with FFT mat-vecs, its
default tolerance and cap set by the system's a-priori condition bound and,
where that bound is large, preconditioned through the operator's own circulant
embedding.  The direct path refactorizes the dense matrix every step, since d
changes with the midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator import FracOperator

# Condition bound above which CG runs with the circulant preconditioner; below
# it the preconditioner's extra FFT pair per iteration costs more than it saves.
# At alpha = 1.8, N = 10 and M = 800, 4000, 16000 the preconditioned run took
# 0.9-1.4x the plain time at bounds 2-4 and 0.6-0.95x from 5 on (0.35x at 40).
# No preset's bound exceeds about 2.  CHANGES.md records the sweep.
CIRCULANT_MIN_BOUND = 5.0

# CG cap: this factor times ceil(sqrt(bound)/2 ln(2/cg_rel_tol)), the
# exact-arithmetic CG bound (Saad 2003, sec. 6.11.3).  Runs at alpha 1.3-2,
# bounds 1-400 and tolerances 1e-12 and 1e-14 took at most 0.87 of the bound.
CG_CAP_FACTOR = 2

# Largest system the dense direct path factorizes.  It forms several dense
# copies of the matrix, 128 MiB each at this size.
DIRECT_MAX_SIZE = 4096


class NumericalFailure(RuntimeError):
    """Base for runtime numerical breakdowns (mapped to CLI exit code 2)."""


class SolveFailure(NumericalFailure):
    pass


@dataclass
class StepMatrix:
    """Action of M_sys = I + (tau^2/4) * Dh^alpha + diag(d); never formed
    densely on the fast path."""

    op: FracOperator
    tau: float
    diag: np.ndarray  # nonnegative, length M-1

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return v + (0.25 * self.tau * self.tau) * self.op.apply(v) + self.diag * v

    def dense(self) -> np.ndarray:
        m = (0.25 * self.tau * self.tau) * self.op.dense_matrix()
        m = m + np.eye(len(self.diag))
        m[np.diag_indices_from(m)] += self.diag
        return m


@dataclass
class SolveConfig:
    method: str = "cg"  # "cg" | "direct"
    cg_rel_tol: float | None = None  # None: the default of cg_tolerance

    def __post_init__(self) -> None:
        if self.method not in ("cg", "direct"):
            raise ValueError(f"unknown solve method {self.method!r}")
        if self.cg_rel_tol is not None and not 0.0 < self.cg_rel_tol < 1.0:
            raise ValueError("cg_rel_tol must lie in (0, 1)")


@dataclass
class SolveStats:
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


def cg_tolerance(cfg: SolveConfig, bound: float) -> float:
    """CG's relative tolerance at condition bound ``bound``: cfg.cg_rel_tol,
    by default max(1e-12, 10 eps bound) (1e-12 up to bounds of about 450).
    Below eps * bound the true residual no longer follows the recursive one,
    so a tolerance set there raises SolveFailure."""
    floor = np.finfo(np.float64).eps * bound
    if cfg.cg_rel_tol is None:
        return max(1e-12, 10.0 * floor)
    if cfg.cg_rel_tol < floor:
        raise SolveFailure(
            f"CG rel tol {cfg.cg_rel_tol:g} lies below the attainable floor {floor:.3g} "
            f"(machine epsilon times condition bound {bound:.4g})")
    return cfg.cg_rel_tol


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


def solve(mat: StepMatrix, rhs: np.ndarray, cfg: SolveConfig,
          x0: np.ndarray | None = None) -> tuple[np.ndarray, SolveStats]:
    """Solve M_sys x = rhs to the configured tolerance contract.

    CG terminates when the recursive residual satisfies ||r||_2 <=
    cg_tolerance * ||rhs||_2, preconditioned as choose_preconditioner decides;
    the returned stats carry the recomputed true residual.  Non-convergence,
    non-finite data and a tolerance below eps * bound raise SolveFailure.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    m = len(mat.diag)
    if rhs.shape != (m,):
        raise ValueError(f"rhs length {rhs.shape} does not match system size {m}")
    if cfg.method == "direct" and m > DIRECT_MAX_SIZE:
        raise ValueError(f"dense direct solve limited to {DIRECT_MAX_SIZE} unknowns, got {m}")
    bnorm = _finite(float(np.linalg.norm(rhs)), "right-hand side")
    if bnorm == 0.0:
        return np.zeros(m), SolveStats(iterations=0, residual=0.0)

    if cfg.method == "direct":
        from scipy.linalg import cho_factor, cho_solve  # here, so importing fracsg does not load it
        x = cho_solve(cho_factor(mat.dense()), rhs)
        res = float(np.linalg.norm(rhs - mat.matvec(x))) / bnorm
        return x, SolveStats(iterations=0, residual=res)

    bound = condition_bound(mat.op, mat.tau)  # the plain bound caps both paths
    rel_tol = cg_tolerance(cfg, bound)
    pre = None
    if choose_preconditioner(mat.op, mat.tau) == "circulant":
        pre = build_circulant_preconditioner(mat)
    max_iter = CG_CAP_FACTOR * math.ceil(
        0.5 * math.sqrt(bound) * math.log(2.0 / rel_tol))
    x = np.zeros(m) if x0 is None else np.array(x0, dtype=np.float64)
    r = rhs - mat.matvec(x)
    z = pre(r) if pre is not None else r
    p = z.copy()
    rz = float(np.dot(r, z))
    iterations = 0
    tol = rel_tol * bnorm
    while _finite(float(np.linalg.norm(r)), "residual") > tol:
        if iterations >= max_iter:
            res = float(np.linalg.norm(r)) / bnorm
            raise SolveFailure(
                f"CG failed to reach rel tol {rel_tol:g} within the cap of "
                f"{max_iter} iterations at condition bound {bound:.4g} (residual {res:.3e})")
        Ap = mat.matvec(p)
        alpha = rz / float(np.dot(p, Ap))
        x = x + alpha * p
        r = r - alpha * Ap
        z = pre(r) if pre is not None else r
        rz_new = float(np.dot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
        iterations += 1
    res = float(np.linalg.norm(rhs - mat.matvec(x))) / bnorm
    return x, SolveStats(iterations=iterations, residual=res)


def _finite(norm: float, what: str) -> float:
    """``norm`` unchanged; SolveFailure naming ``what`` if it is NaN or Inf,
    which would otherwise pass every tolerance comparison."""
    if not math.isfinite(norm):
        raise SolveFailure(f"non-finite {what} (norm {norm})")
    return norm
