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
product, or none on a preconditioned step, which projects on HISTORY midpoints.
Every step reads the CG set-up run makes once, before the first (solvers.cg_setup).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .operator import FracOperator, GridSpec, OperatorStack, check_alpha
from .solvers import CGSetup, SolveStats, StepMatrix, cg_setup, solve

# Midpoints a start projects on: at alpha 1.8, M = 16000, N = 10, 3 to 6 took 28 CG iterations, 2 35
HISTORY = 3


def b_func(x):
    """sin(x)/sqrt(2 - cos x); bounded by 1 (actual max is sqrt(3) - 1)."""
    return np.sin(x) / np.sqrt(2.0 - np.cos(x))


@dataclass
class IeqState:
    """Grid unknowns at one time level: displacement U, velocity V, and the
    quadratization variable W (initialized to sqrt(2 - cos U)).  After construction
    level_product stores the product on first use, cn_step empties (U and product to
    None) a previous level without V, the slim copy run makes of a level it leaves, and
    observers receive the live state: what they change, such as midpoints, the next
    step reads."""

    U: np.ndarray
    V: np.ndarray
    W: np.ndarray
    t: float
    n: int
    # (operator, op.apply(U)), stored by level_product on first use
    product: tuple[FracOperator, np.ndarray] | None = field(default=None, repr=False)
    midpoints: tuple = field(default=(), repr=False)  # (op, U^{k-1/2}, product), newest first


@dataclass
class SchemeConfig:
    grid: GridSpec
    alpha: float | tuple[float, ...]  # a tuple: its orders step as one stack
    T: float
    N: int
    cg_tol: float | None = None  # None: the default of solvers.cg_setup
    solve: Callable | None = None  # like solvers.solve; None: the module's solve when called

    def __post_init__(self) -> None:
        alphas = self.alpha if isinstance(self.alpha, tuple) else (self.alpha,)
        if not alphas or not all(isinstance(a, numbers.Real) and check_alpha(a) for a in alphas):
            raise ValueError(f"alpha must be a number or a nonempty tuple, got {self.alpha!r}")
        if self.cg_tol is not None and not 0.0 < self.cg_tol < 1.0:
            raise ValueError(f"cg_tol must lie in (0, 1), got {self.cg_tol}")
        if not self.T > 0:
            raise ValueError(f"final time must be positive, got T={self.T}")
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
        out[...] = sum(ci * pair[k] for ci, pair in zip(c, history))


def _step(op: FracOperator, cfg: SchemeConfig, setup: CGSetup, state: IeqState, bvec: np.ndarray,
          x0: np.ndarray, x0_product: np.ndarray | None = None) -> tuple[IeqState, SolveStats]:
    """One SPD solve for U^{n+1/2} given the frozen coefficient vector, projected starts
    on preconditioned rows, then the other midpoints recovered and reflected onward."""
    tau = cfg.tau
    diag = (tau * tau / 8.0) * bvec * bvec
    rhs = state.U + (0.5 * tau) * state.V - (tau * tau / 4.0) * bvec * state.W + diag * state.U
    mat = StepMatrix(op, tau, diag)
    history = [(u, p) for o, u, p in state.midpoints if o is op]
    for j in (j for j, on in enumerate(setup.preconditioned) if on and history):
        row = lambda a: np.atleast_2d(a)[j]  # row j of a stack, or the array
        _projected_start(StepMatrix(op.rows[j], tau, row(diag)), row(rhs),
                         [(row(u), row(p)) for u, p in history], row(x0), row(x0_product))
    U_mid, stats = (cfg.solve or solve)(mat, rhs, setup, x0=x0, x0_product=x0_product)
    midpoints = ((op, U_mid, mat.product),) + state.midpoints[:HISTORY - 1]  # solve's own arrays
    del diag, rhs, mat  # freed before the next level is built
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
        midpoints=midpoints if any(setup.preconditioned) and midpoints[0][2] is not None else (),
    ), stats


def startup_step(state0: IeqState, op: FracOperator, cfg: SchemeConfig,
                 setup: CGSetup) -> tuple[IeqState, SolveStats]:
    """First step, with b frozen at the explicit midpoint predictor
    U^0 + (tau/2) V^0, which also warm-starts the solve.  The predictor's
    product is not at hand, so the initial residual costs one matvec.  ``setup``
    is the run's CG set-up, solvers.cg_setup(op, cfg.tau, cfg.cg_tol)."""
    predictor = state0.U + (0.5 * cfg.tau) * state0.V
    return _step(op, cfg, setup, state0, b_func(predictor), x0=predictor)


def cn_step(state_nm1: IeqState, state_n: IeqState, op: FracOperator, cfg: SchemeConfig,
            setup: CGSetup) -> tuple[IeqState, SolveStats]:
    """One linearly-implicit step using the extrapolated midpoint
    x0 = (3 U^n - U^{n-1})/2 inside the coefficient b.  On a plain row x0 also warm-starts
    the solve from the two levels' products, and the step costs its CG iterations, one
    true-residual matvec and the product of U^n, unless an observer has read it; a row
    that ``setup`` (as in startup_step) preconditions starts from the projection on the
    stored midpoints, and if all do, no level product is read.  A previous level without
    V, which run makes, is emptied once read, so that the solve does not hold its arrays."""
    x0 = 1.5 * state_n.U - 0.5 * state_nm1.U
    projected = any(m[0] is op for m in state_n.midpoints) and all(setup.preconditioned)
    x0_product = np.empty_like(x0) if projected else (
        1.5 * level_product(state_n, op) - 0.5 * level_product(state_nm1, op))
    if state_nm1.V is None:
        state_nm1.U = state_nm1.product = None
    return _step(op, cfg, setup, state_n, b_func(x0), x0=x0, x0_product=x0_product)


def run(problem, cfg: SchemeConfig, observers=(), op: FracOperator | None = None) -> RunResult:
    """Integrate from t=0 to t=T; deterministic for a fixed config.

    Observers are callables ``observer(state, stats)`` invoked at every
    level, with stats None at level 0 only.  An already constructed operator
    for the same (alpha, grid) may be passed to share it with observers.  A
    tuple cfg.alpha steps its orders as one stack: op is an OperatorStack,
    states hold one row per order, and stats are the largest over the rows.
    The solves' CG set-up, made once before the first step (which refuses an
    unusable tolerance), is the result's cg."""
    if op is None:
        op = (OperatorStack([FracOperator(alpha, cfg.grid) for alpha in cfg.alpha])
              if isinstance(cfg.alpha, tuple) else FracOperator(cfg.alpha, cfg.grid))
    setup = cg_setup(op, cfg.tau, cfg.cg_tol)
    state = initial_state(problem, cfg.grid, len(op.rows) if isinstance(op, OperatorStack) else 0)
    for obs in observers:
        obs(state, None)

    prev, iters, res_max = None, [], 0.0
    for _ in range(cfg.N):
        if prev is None:
            nxt, stats = startup_step(state, op, cfg, setup)
        else:
            nxt, stats = cn_step(prev, state, op, cfg, setup)
            # the next step reads only U and the product, now stored, of this level
            state = IeqState(state.U, None, None, state.t, state.n, state.product)
        prev, state = state, nxt
        iters.append(stats.iterations)
        res_max = max(res_max, stats.residual)
        for obs in observers:
            obs(state, stats)

    return RunResult(state=replace(state, midpoints=()),  # stored midpoints: the steps' alone
                     steps=cfg.N, cg_iterations_max=max(iters),
                     cg_iterations_mean=float(np.mean(iters)), residual_max=res_max, cg=setup)
