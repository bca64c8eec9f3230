"""Linearly-implicit energy-conserving time stepper.

The sine-Gordon nonlinearity is quadratized through the auxiliary variable
w = sqrt(2 - cos u), after which a midpoint (Crank-Nicolson) discretization
with the extrapolated coefficient b((3 U^n - U^{n-1})/2) is linearly implicit
and conserves the discrete energy

    E^n = 1/2 (||V^n||^2 + ||Lambda^alpha U^n||^2 + 2 ||W^n||^2)

exactly in exact arithmetic.  Each step reduces to one SPD solve for the
midpoint displacement; velocity and auxiliary midpoints are recovered
algebraically.  A level holds (k, M-1) arrays, one row per order: a single
order steps as a stack of one row.  The first step extrapolates from the
virtual level U^{-1} = U^0 - tau V^0, so it evaluates b at the explicit
predictor U^0 + (tau/2) V^0 of the midpoint; the energy is conserved for any
frozen b, so it is the same linear solve, by the same cn_step.

CG starts each later step from the solved midpoints of up to HISTORY earlier steps,
stored on the level with the products each solve leaves in mat.product: a plain row
extrapolates them, a preconditioned row projects on them.  So a step costs its CG
iterations and one true-residual matvec, the first step one more for its initial
residual, and no step reads a level product op.apply(U^n); an observer that needs one,
such as diagnostics.discrete_energy, computes it.  A level, IeqState, is frozen.  Every
step reads the CG set-up run makes once, before the first (solvers.cg_setup).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

import numpy as np

from .operator import FracOperator, GridSpec, _orders
from .solvers import CGSetup, SolveStats, StepMatrix, cg_setup, solve

# Midpoints a start is made of: at alpha 1.8, M = 16000, N = 10, 3 to 6 took 28 CG iterations, 2 35
HISTORY = 3


def b_func(x):
    """sin(x)/sqrt(2 - cos x); bounded by 1 (actual max is sqrt(3) - 1)."""
    return np.sin(x) / np.sqrt(2.0 - np.cos(x))


@dataclass(frozen=True)
class IeqState:
    """Grid unknowns at one time level: displacement U, velocity V, and the
    quadratization variable W (initialized to sqrt(2 - cos U)), one row per order
    of a run, or vectors (initial_state, a float alpha's result); ``midpoints`` belong
    to the next step, which starts from them.  Frozen: no field is rebound after
    construction, so the level an observer receives is the one the next step reads."""

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    t: float
    n: int
    midpoints: tuple = field(default=(), repr=False)  # (op, U^{k-1/2}, product), newest first


@dataclass
class SchemeConfig:
    grid: GridSpec
    alpha: float | tuple[float, ...]  # a tuple: its orders step as one stack, a float as one row
    T: float
    N: int
    cg_tol: float | None = None  # None: the default of solvers.cg_setup
    solve: Callable | None = None  # like solvers.solve; None: the module's solve when called

    def __post_init__(self) -> None:
        _orders(self.alpha)
        if self.cg_tol is not None and not 0.0 < self.cg_tol < 1.0:
            raise ValueError(f"cg_tol must lie in (0, 1), got {self.cg_tol}")
        if not 0 < self.T < math.inf:
            raise ValueError(f"final time must be positive and finite, got T={self.T}")
        if not isinstance(self.N, numbers.Integral) or self.N < 1:
            raise ValueError(f"N must be a whole number of timesteps, at least 1, got N={self.N!r}")

    @property
    def tau(self) -> float:
        return self.T / self.N


@dataclass
class RunResult:
    state: IeqState
    steps: int
    cg_iterations_max: int
    cg_iterations_mean: float
    residual_max: float
    cg: CGSetup  # the set-up of every solve


def initial_state(problem, grid: GridSpec) -> IeqState:
    """Level 0 of ``problem`` on ``grid``, as vectors of the interior values."""
    x = grid.interior_nodes()
    U = np.asarray(problem.phi(x), dtype=np.float64)
    V = np.asarray(problem.psi(x), dtype=np.float64)
    W = np.sqrt(2.0 - np.cos(U))
    return IeqState(U=U, V=V, W=W, t=0.0, n=0)


def _projected_start(mat: StepMatrix, rhs: np.ndarray, history, x0: np.ndarray,
                     x0_product: np.ndarray) -> None:
    """Sets x0 = sum c_i y_i, the Galerkin projection of M_sys x = rhs on the midpoints y_i
    of ``history`` (Fischer 1998), and x0_product from their products.  Gram-Schmidt drops
    a y_i within 1e-6 of the newer ones' span, which keeps c bounded."""
    gram = np.array([[np.dot(u, ay) for u, _ in history]
                     for ay in (mat.matvec_from_product(y, p) for y, p in history)])
    inner = lambda a, b: float((a[:, None] * gram * b).sum())  # a^T gram b; LAPACK: +1 MiB RSS
    basis = []
    for j, q in enumerate(np.eye(len(history))):
        for e, ee in basis:
            q = q - (inner(e, q) / ee) * e
        if inner(q, q) > 1e-12 * gram[j, j]:
            basis.append((q, inner(q, q)))
    g = np.array([np.dot(u, rhs) for u, _ in history])  # c = sum_e (e.g / e^T gram e) e
    c = sum(((e * g).sum() / ee * e for e, ee in basis), np.zeros(len(history)))
    for out, k in ((x0, 0), (x0_product, 1)):
        out[...] = reduce(np.add, (ci * pair[k] for ci, pair in zip(c, history)))


def cn_step(U_nm1: np.ndarray, state_n: IeqState, op: FracOperator, cfg: SchemeConfig,
            setup: CGSetup) -> tuple[IeqState, SolveStats]:
    """One linearly-implicit step: one SPD solve for U^{n+1/2} with b frozen at the
    extrapolated midpoint (3 U^n - U^{n-1})/2, then the other midpoints recovered and
    reflected onward.  CG starts from the k midpoints stored on state_n, k <= HISTORY, and
    their products: a plain row from their extrapolation with binomial weights (3, -3, 1),
    (2, -1) or (1), a row that ``setup`` (run's solvers.cg_setup(op, cfg.tau, cfg.cg_tol))
    preconditions from their Galerkin projection, each row from its own midpoints alone.
    The step costs its CG iterations and one true-residual matvec and reads no level
    product.  With no midpoints stored, as on the first step, CG starts at b's point and
    the initial residual costs one matvec."""
    tau, x0, x0_product = cfg.tau, 1.5 * state_n.U - 0.5 * U_nm1, None
    bvec = b_func(x0)
    diag = (tau * tau / 8.0) * bvec * bvec
    rhs = (state_n.U + (0.5 * tau) * state_n.V - (tau * tau / 4.0) * bvec * state_n.W
           + diag * state_n.U)
    mat = StepMatrix(op, tau, diag)
    history = [(u, p) for o, u, p in state_n.midpoints if o is op]
    if history:
        weights = [(-1) ** i * math.comb(len(history), i + 1) for i in range(len(history))]
        x0, x0_product = (np.empty_like(rhs) if all(setup.preconditioned) else  # projected below
                          reduce(np.add, (w * y[k] for w, y in zip(weights, history)))
                          for k in (0, 1))
        for j in (j for j, on in enumerate(setup.preconditioned) if on):
            _projected_start(StepMatrix(op[j:j + 1], tau, diag[j]), rhs[j],
                             [(u[j], p[j]) for u, p in history], x0[j], x0_product[j])
    U_mid, stats = (cfg.solve or solve)(mat, rhs, setup, x0=x0, x0_product=x0_product)
    midpoints = ((op, U_mid, mat.product),) + state_n.midpoints[:HISTORY - 1]  # solve's own arrays
    del diag, rhs, mat  # freed before the next level is built
    dU = U_mid - state_n.U
    V_mid = 2.0 * dU / tau
    W_mid = state_n.W + 0.5 * bvec * dU
    n = state_n.n + 1
    return IeqState(
        U=2.0 * U_mid - state_n.U,
        V=2.0 * V_mid - state_n.V,
        W=2.0 * W_mid - state_n.W,
        t=cfg.T * (n / cfg.N),  # from the level index, so level N is at T exactly
        n=n, midpoints=midpoints), stats


def startup_step(state0: IeqState, op: FracOperator, cfg: SchemeConfig,
                 setup: CGSetup) -> tuple[IeqState, SolveStats]:
    """run's first step: cn_step from the virtual level U^{-1} = U^0 - tau V^0."""
    return cn_step(state0.U - cfg.tau * state0.V, state0, op, cfg, setup)


def run(problem, cfg: SchemeConfig, observers=(), op: FracOperator | None = None) -> RunResult:
    """Integrate from t=0 to t=T; deterministic for a fixed config.

    Observers are callables ``observer(state, stats)`` invoked at every level, with
    stats None at level 0 only; a level is frozen and holds (k, M-1) arrays, one row
    per order of cfg.alpha, which step as one stack, stats the largest over the rows.
    An already constructed operator of cfg's (alpha, grid) may be passed to share it
    with observers; one of another raises ValueError.  No step reads a level product
    op.apply(U^n).  The solves' CG set-up, made once before the first step (which
    refuses an unusable tolerance), is the result's cg, and its state the last level,
    as vectors for a float cfg.alpha."""
    if op is None:
        op = FracOperator(cfg.alpha, cfg.grid)
    elif op.alpha != _orders(cfg.alpha) or op.grid != cfg.grid:
        raise ValueError(f"op of alpha={op.alpha}, {op.grid} passed for cfg's "
                         f"alpha={cfg.alpha}, {cfg.grid}")
    setup = cg_setup(op, cfg.tau, cfg.cg_tol)
    state = initial_state(problem, cfg.grid)  # vectors, then a row of them per order
    state = IeqState(*(np.tile(a, (len(op.alpha), 1)) for a in (state.U, state.V, state.W)), 0.0, 0)
    for obs in observers:
        obs(state, None)

    U_prev, iters, res_max = state.U - cfg.tau * state.V, [], 0.0  # the virtual level U^{-1}
    for _ in range(cfg.N):
        nxt, stats = cn_step(U_prev, state, op, cfg, setup)
        U_prev, state = state.U, nxt  # the next step reads this level's U alone of it
        iters.append(stats.iterations)
        res_max = max(res_max, stats.residual)
        for obs in observers:
            obs(state, stats)

    shape = np.shape(cfg.alpha) + (op.size,)  # a float alpha's level: one row as a vector
    final = IeqState(*(a.reshape(shape) for a in (state.U, state.V, state.W)), state.t, state.n)
    return RunResult(state=final, steps=cfg.N, cg_iterations_max=max(iters),
                     cg_iterations_mean=float(np.mean(iters)), residual_max=res_max, cg=setup)
