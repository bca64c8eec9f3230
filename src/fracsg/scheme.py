"""Linearly-implicit energy-conserving time stepper.

The sine-Gordon nonlinearity is quadratized through the auxiliary variable
w = sqrt(2 - cos u), after which a midpoint (Crank-Nicolson) discretization
with the extrapolated coefficient b((3 U^n - U^{n-1})/2) is linearly implicit
and conserves the discrete energy

    E^n = 1/2 (||V^n||^2 + ||Lambda^alpha U^n||^2 + 2 ||W^n||^2)

exactly in exact arithmetic.  Each step reduces to one SPD solve for the
midpoint displacement; velocity and auxiliary midpoints are recovered
algebraically.  The first step has no U^{-1} to extrapolate from, so it
evaluates b at the explicit predictor U^0 + (tau/2) V^0 of the midpoint; the
energy is conserved for any frozen b, so it too is one linear solve.

Each level's operator product op.apply(U^n), one FFT pair, is computed the
first time a step or an observer reads it and is stored on its state, so a
later step costs its CG iterations, one true-residual matvec and at most one
product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .operator import FracOperator, GridSpec, OperatorStack, check_alpha
from .solvers import SolveStats, StepMatrix, cg_tolerance, solve


def b_func(x):
    """sin(x)/sqrt(2 - cos x); bounded by 1 (actual max is sqrt(3) - 1)."""
    return np.sin(x) / np.sqrt(2.0 - np.cos(x))


@dataclass
class IeqState:
    """Grid unknowns at one time level: displacement U, velocity V, and the
    quadratization variable W (initialized to sqrt(2 - cos U)).  Only
    level_product modifies a state after construction."""

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    t: float
    n: int
    # (operator, op.apply(U)), stored by level_product on first use
    product: tuple[FracOperator, np.ndarray] | None = field(default=None, repr=False)


@dataclass
class SchemeConfig:
    grid: GridSpec
    alpha: float | tuple[float, ...]  # a tuple: its orders step as one stack
    T: float
    N: int
    cg_tol: float | None = None  # None: the default of solvers.cg_tolerance
    solve: Callable | None = None  # like solvers.solve; None: the module's solve when called

    def __post_init__(self) -> None:
        for alpha in np.atleast_1d(self.alpha):
            check_alpha(alpha)
        if self.cg_tol is not None and not 0.0 < self.cg_tol < 1.0:
            raise ValueError(f"cg_tol must lie in (0, 1), got {self.cg_tol}")
        if not self.T > 0:
            raise ValueError(f"final time must be positive, got T={self.T}")
        if self.N < 1:
            raise ValueError(f"need at least one timestep, got N={self.N}")

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


def initial_state(problem, grid: GridSpec, rows: int = 0) -> IeqState:
    x = grid.interior_nodes()
    U = np.asarray(problem.phi(x), dtype=np.float64)
    V = np.asarray(problem.psi(x), dtype=np.float64)
    if rows:  # a stack of that many equal rows
        U, V = np.tile(U, (rows, 1)), np.tile(V, (rows, 1))
    W = np.sqrt(2.0 - np.cos(U))
    return IeqState(U=U, V=V, W=W, t=0.0, n=0)


def level_product(state: IeqState, op: FracOperator) -> np.ndarray:
    """op.apply(state.U), computed on first use and stored on the state, so
    steps and observers reading the same level share one operator product.
    Recomputed if the stored one came from another operator object."""
    if state.product is None or state.product[0] is not op:
        state.product = (op, op.apply(state.U))
    return state.product[1]


def _step(op: FracOperator, cfg: SchemeConfig, state: IeqState, bvec: np.ndarray,
          x0: np.ndarray, x0_product: np.ndarray | None = None) -> tuple[IeqState, SolveStats]:
    """One SPD solve for U^{n+1/2} given the frozen coefficient vector, then
    the remaining midpoints recovered and reflected to the next level."""
    tau = cfg.tau
    diag = (tau * tau / 8.0) * bvec * bvec
    rhs = state.U + (0.5 * tau) * state.V - (tau * tau / 4.0) * bvec * state.W + diag * state.U
    U_mid, stats = (cfg.solve or solve)(StepMatrix(op, tau, diag), rhs, cfg.cg_tol,
                                        x0=x0, x0_product=x0_product)
    del diag, rhs  # freed before the next level is built
    dU = U_mid - state.U
    V_mid = 2.0 * dU / tau
    W_mid = state.W + 0.5 * bvec * dU
    n = state.n + 1
    return IeqState(
        U=2.0 * U_mid - state.U,
        V=2.0 * V_mid - state.V,
        W=2.0 * W_mid - state.W,
        t=cfg.T * (n / cfg.N),  # from the level index, so level N is at T exactly
        n=n,
    ), stats


def startup_step(state0: IeqState, op: FracOperator,
                 cfg: SchemeConfig) -> tuple[IeqState, SolveStats]:
    """First step, with b frozen at the explicit midpoint predictor
    U^0 + (tau/2) V^0, which also warm-starts the solve.  The predictor's
    product is not at hand, so the initial residual costs one matvec."""
    predictor = state0.U + (0.5 * cfg.tau) * state0.V
    return _step(op, cfg, state0, b_func(predictor), x0=predictor)


def cn_step(state_nm1: IeqState, state_n: IeqState, op: FracOperator,
            cfg: SchemeConfig) -> tuple[IeqState, SolveStats]:
    """One linearly-implicit step using the extrapolated midpoint
    x0 = (3 U^n - U^{n-1})/2 inside the coefficient b, which also warm-starts
    the solve from the two levels' products, with no further operator
    application.  It costs its CG iterations, one true-residual matvec and
    the product of U^n, unless an observer has already read that one.  A
    previous level without V, which run makes, is emptied once read, so
    that the solve does not hold its arrays."""
    x0 = 1.5 * state_n.U - 0.5 * state_nm1.U
    x0_product = 1.5 * level_product(state_n, op) - 0.5 * level_product(state_nm1, op)
    if state_nm1.V is None:
        state_nm1.U = state_nm1.product = None
    return _step(op, cfg, state_n, b_func(x0), x0=x0, x0_product=x0_product)


def run(problem, cfg: SchemeConfig, observers=(), op: FracOperator | None = None) -> RunResult:
    """Integrate from t=0 to t=T; deterministic for a fixed config.

    Observers are callables ``observer(state, stats)`` invoked at every
    level, with stats None at level 0 only.  An already constructed operator
    for the same (alpha, grid) may be passed to share it with observers.  A
    tuple cfg.alpha steps its orders as one stack: op is an OperatorStack,
    states hold one row per order, and stats are the largest over the rows.
    """
    if op is None:
        op = (OperatorStack([FracOperator(alpha, cfg.grid) for alpha in cfg.alpha])
              if isinstance(cfg.alpha, tuple) else FracOperator(cfg.alpha, cfg.grid))
    for row in op.rows:  # refuses an unusable tolerance at any order before any step
        cg_tolerance(cfg.cg_tol, row, cfg.tau)
    state = initial_state(problem, cfg.grid, len(op.rows) if isinstance(op, OperatorStack) else 0)
    for obs in observers:
        obs(state, None)

    prev = None
    iters: list[int] = []
    res_max = 0.0
    for _ in range(cfg.N):
        if prev is None:
            nxt, stats = startup_step(state, op, cfg)
        else:
            nxt, stats = cn_step(prev, state, op, cfg)
            # the next step reads only U and the product, now stored, of this level
            state = IeqState(state.U, None, None, state.t, state.n, state.product)
        prev, state = state, nxt
        iters.append(stats.iterations)
        res_max = max(res_max, stats.residual)
        for obs in observers:
            obs(state, stats)

    return RunResult(
        state=state,
        steps=cfg.N,
        cg_iterations_max=max(iters),
        cg_iterations_mean=float(np.mean(iters)),
        residual_max=res_max,
    )
