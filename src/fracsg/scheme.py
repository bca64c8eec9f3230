"""Linearly-implicit energy-conserving time stepper.

The sine-Gordon nonlinearity is quadratized through the auxiliary variable
w = sqrt(2 - cos u), after which a midpoint (Crank-Nicolson) discretization
with the extrapolated coefficient b((3 U^n - U^{n-1})/2) is linearly implicit
and conserves the discrete energy

    E^n = 1/2 (||V^n||^2 + ||Lambda^alpha U^n||^2 + 2 ||W^n||^2)

exactly in exact arithmetic.  Each step reduces to one SPD solve for the
midpoint displacement; velocity and auxiliary midpoints are recovered
algebraically.  The first step solves the same structure with b evaluated at
the unknown midpoint itself, by fixed-point iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operator import FracOperator, GridSpec, generate_kernel
from .solvers import NumericalFailure, SolveConfig, SolveStats, StepMatrix, solve

STARTUP_TOL = 1e-14  # max-norm move of the midpoint iterate that ends startup
STARTUP_MAX_ITER = 200  # startup solves before StartupFailure


class StartupFailure(NumericalFailure):
    pass


def b_func(x):
    """sin(x)/sqrt(2 - cos x); bounded by 1 (actual max is sqrt(3) - 1)."""
    return np.sin(x) / np.sqrt(2.0 - np.cos(x))


@dataclass
class IeqState:
    """Grid unknowns at one time level: displacement U, velocity V, and the
    quadratization variable W (initialized to sqrt(2 - cos U))."""

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    t: float
    n: int


@dataclass
class SchemeConfig:
    grid: GridSpec
    alpha: float
    T: float
    N: int
    solve: SolveConfig = field(default_factory=SolveConfig)

    def __post_init__(self) -> None:
        # alpha range check is shared with kernel generation
        generate_kernel(self.alpha, 1)
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
    startup_iterations: int
    steps: int
    cg_iterations_max: int
    cg_iterations_mean: float
    residual_max: float


def initial_state(problem, grid: GridSpec) -> IeqState:
    x = grid.interior_nodes()
    U = np.asarray(problem.phi(x), dtype=np.float64)
    V = np.asarray(problem.psi(x), dtype=np.float64)
    W = np.sqrt(2.0 - np.cos(U))
    return IeqState(U=U, V=V, W=W, t=0.0, n=0)


def _solve_midpoint(op: FracOperator, cfg: SchemeConfig, bvec: np.ndarray,
                    state: IeqState, x0: np.ndarray) -> tuple[np.ndarray, SolveStats]:
    """One SPD solve for U^{n+1/2} given the frozen coefficient vector."""
    tau = cfg.tau
    diag = (tau * tau / 8.0) * bvec * bvec
    rhs = state.U + (0.5 * tau) * state.V - (tau * tau / 4.0) * bvec * state.W + diag * state.U
    mat = StepMatrix(op=op, tau=tau, diag=diag)
    return solve(mat, rhs, cfg.solve, x0=x0)


def _advance(state: IeqState, U_mid: np.ndarray, bvec: np.ndarray, tau: float) -> IeqState:
    """Recover the remaining midpoints and reflect to the next level."""
    dU = U_mid - state.U
    V_mid = 2.0 * dU / tau
    W_mid = state.W + 0.5 * bvec * dU
    return IeqState(
        U=2.0 * U_mid - state.U,
        V=2.0 * V_mid - state.V,
        W=2.0 * W_mid - state.W,
        t=state.t + tau,
        n=state.n + 1,
    )


def startup_step(state0: IeqState, op: FracOperator, cfg: SchemeConfig) -> tuple[IeqState, int]:
    """Nonlinear conservative first step: b is evaluated at the midpoint
    itself, resolved by fixed-point iteration on the midpoint displacement.

    Starts from the explicit predictor U^0 + (tau/2) V^0 and stops when the
    iterate moves less than STARTUP_TOL in the max norm.  Returns the state
    at level 1 and the number of iterations used.
    """
    U_mid = state0.U + (0.5 * cfg.tau) * state0.V
    for iteration in range(1, STARTUP_MAX_ITER + 1):
        bvec = b_func(U_mid)
        U_next, _ = _solve_midpoint(op, cfg, bvec, state0, x0=U_mid)
        converged = float(np.max(np.abs(U_next - U_mid))) <= STARTUP_TOL
        U_mid = U_next
        if converged:
            # advance with the coefficient vector the final solve used, so the
            # midpoint triple satisfies the linear system exactly and the
            # discrete energy is conserved to solver tolerance
            return _advance(state0, U_mid, bvec, cfg.tau), iteration
    raise StartupFailure(
        f"startup fixed point did not reach {STARTUP_TOL:g} within "
        f"{STARTUP_MAX_ITER} iterations")


def cn_step(state_nm1: IeqState, state_n: IeqState, op: FracOperator, cfg: SchemeConfig,
            warm: np.ndarray | None = None) -> tuple[IeqState, SolveStats]:
    """One linearly-implicit step using the extrapolated midpoint
    (3 U^n - U^{n-1})/2 inside the coefficient b."""
    bvec = b_func(1.5 * state_n.U - 0.5 * state_nm1.U)
    x0 = warm if warm is not None else state_n.U
    U_mid, stats = _solve_midpoint(op, cfg, bvec, state_n, x0=x0)
    return _advance(state_n, U_mid, bvec, cfg.tau), stats


def run(problem, cfg: SchemeConfig, observers=(), op: FracOperator | None = None) -> RunResult:
    """Integrate from t=0 to t=T; deterministic for a fixed config.

    Observers are callables ``observer(state, stats)`` invoked at every
    level, with stats None at level 0 and at the startup level.  An already
    constructed operator for the same (alpha, grid) may be passed to share
    it with observers.
    """
    if op is None:
        op = FracOperator(cfg.alpha, cfg.grid)
    state = initial_state(problem, cfg.grid)
    for obs in observers:
        obs(state, None)

    nxt, startup_iters = startup_step(state, op, cfg)
    prev, state = state, nxt
    for obs in observers:
        obs(state, None)

    iters: list[int] = []
    res_max = 0.0
    for _ in range(1, cfg.N):
        # warm start: midpoint displacement of the previous step
        warm = 0.5 * (state.U + prev.U)
        nxt, stats = cn_step(prev, state, op, cfg, warm=warm)
        prev, state = state, nxt
        iters.append(stats.iterations)
        res_max = max(res_max, stats.residual)
        for obs in observers:
            obs(state, stats)

    return RunResult(
        state=state,
        startup_iterations=startup_iters,
        steps=cfg.N,
        cg_iterations_max=max(iters) if iters else 0,
        cg_iterations_mean=float(np.mean(iters)) if iters else 0.0,
        residual_max=res_max,
    )
