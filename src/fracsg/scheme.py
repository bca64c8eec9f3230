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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operator import FracOperator, GridSpec, generate_kernel
from .solvers import SolveConfig, SolveStats, StepMatrix, solve


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


def _advance(state: IeqState, U_mid: np.ndarray, bvec: np.ndarray,
             cfg: SchemeConfig) -> IeqState:
    """Recover the remaining midpoints and reflect to the next level."""
    dU = U_mid - state.U
    V_mid = 2.0 * dU / cfg.tau
    W_mid = state.W + 0.5 * bvec * dU
    n = state.n + 1
    return IeqState(
        U=2.0 * U_mid - state.U,
        V=2.0 * V_mid - state.V,
        W=2.0 * W_mid - state.W,
        t=cfg.T * (n / cfg.N),  # from the level index, so level N is at T exactly
        n=n,
    )


def startup_step(state0: IeqState, op: FracOperator,
                 cfg: SchemeConfig) -> tuple[IeqState, SolveStats]:
    """First step, with b frozen at the explicit midpoint predictor
    U^0 + (tau/2) V^0, which also warm-starts the solve."""
    predictor = state0.U + (0.5 * cfg.tau) * state0.V
    bvec = b_func(predictor)
    U_mid, stats = _solve_midpoint(op, cfg, bvec, state0, x0=predictor)
    return _advance(state0, U_mid, bvec, cfg), stats


def cn_step(state_nm1: IeqState, state_n: IeqState, op: FracOperator,
            cfg: SchemeConfig) -> tuple[IeqState, SolveStats]:
    """One linearly-implicit step using the extrapolated midpoint
    (3 U^n - U^{n-1})/2 inside the coefficient b, warm-started from the
    previous step's midpoint (U^n + U^{n-1})/2."""
    bvec = b_func(1.5 * state_n.U - 0.5 * state_nm1.U)
    x0 = 0.5 * (state_n.U + state_nm1.U)
    U_mid, stats = _solve_midpoint(op, cfg, bvec, state_n, x0=x0)
    return _advance(state_n, U_mid, bvec, cfg), stats


def run(problem, cfg: SchemeConfig, observers=(), op: FracOperator | None = None) -> RunResult:
    """Integrate from t=0 to t=T; deterministic for a fixed config.

    Observers are callables ``observer(state, stats)`` invoked at every
    level, with stats None at level 0 only.  An already constructed operator
    for the same (alpha, grid) may be passed to share it with observers.
    """
    if op is None:
        op = FracOperator(cfg.alpha, cfg.grid)
    state = initial_state(problem, cfg.grid)
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
