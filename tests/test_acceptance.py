"""Acceptance gate: thirteen end-to-end verification criteria.

One test per criterion, so the verbose pytest status line is the per-criterion
pass/fail record; every test also prints a one-line summary with the measured
quantities.  The refinement-ladder simulations are the expensive part and are
shared through module-scoped fixtures; the whole module runs in a few minutes.
"""

import time

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import toeplitz

from fracsg import (
    EnergyRecorder,
    FracOperator,
    GridSpec,
    SchemeConfig,
    cn_step,
    convergence_ladder,
    generate_kernel,
    get_problem,
    run,
)
from fracsg import _dense
from fracsg.diagnostics import max_norm_error_self, orders_from_errors
from fracsg.presets import ENERGY_PRESETS
from fracsg.problems import Problem, exact_breather, sech
from fracsg.scheme import IeqState, b_func
from fracsg.solvers import cg_setup

from oracles import apply_dense, assemble_block_system, energy_seminorm_sq
from test_kernel import reference_kernel, ulp_distance

DOMAIN = (-20.0, 20.0)
BASE_M, BASE_N, FINAL_T = 200, 50, 1.0  # ladder root (h, tau) = (1/5, 1/50)

# frozen reference error magnitudes for the two benchmark ladders; the kick's
# are differences to the grid refined 4x in both h and tau (criterion 02)
KICK_CLASSICAL_ERRORS = [2.7689e-03, 6.8864e-04, 1.7192e-04, 4.2963e-05]
KICK_FRACTIONAL_ERRORS = {
    1.3: [1.5583e-03, 3.8978e-04, 9.7441e-05, 2.4357e-05],
    1.75: [2.4035e-03, 5.9925e-04, 1.4969e-04, 3.7413e-05],
    1.99: [2.7569e-03, 6.8571e-04, 1.7119e-04, 4.2781e-05],
}
KICK_SELF_ERRORS = {**KICK_FRACTIONAL_ERRORS, 2.0: KICK_CLASSICAL_ERRORS}
# errors against the exact breather at alpha = 2 (criterion 01)
KICK_EXACT_ERRORS = [2.9309e-03, 7.2949e-04, 1.8215e-04, 4.5521e-05]
HUMP_ERRORS = {
    1.3: [4.3475e-03, 1.0849e-03, 2.7117e-04, 6.7796e-05],
    1.6: [5.1079e-03, 1.2689e-03, 3.1678e-04, 7.9175e-05],
    1.9: [5.1156e-03, 1.2667e-03, 3.1601e-04, 7.8969e-05],
    2.0: [4.9566e-03, 1.2273e-03, 3.0617e-04, 7.6510e-05],
}

# max-norm errors of the operator on exp(-x^2) at |x| <= 3, on (-12, 12)
# (criterion 12)
GAUSSIAN_M = (240, 480, 960, 1920)
GAUSSIAN_ERRORS = {
    1.1: [2.2636e-03, 5.6642e-04, 1.4164e-04, 3.5411e-05],
    1.3: [3.2244e-03, 8.0709e-04, 2.0183e-04, 5.0462e-05],
    1.5: [4.5107e-03, 1.1294e-03, 2.8247e-04, 7.0623e-05],
    1.75: [6.7471e-03, 1.6902e-03, 4.2275e-04, 1.0570e-04],
    1.99: [9.8142e-03, 2.4596e-03, 6.1529e-04, 1.5385e-04],
    2.0: [9.9667e-03, 2.4979e-03, 6.2487e-04, 1.5624e-04],
}
# relative errors of example 5.2's initial seminorm on DOMAIN (criterion 12)
SEMINORM_M = (200, 400, 800, 1600)
SEMINORM_ERRORS = {
    1.3: [2.0683e-03, 5.1778e-04, 1.2949e-04, 3.2375e-05],
    1.6: [3.0221e-03, 7.5708e-04, 1.8937e-04, 4.7348e-05],
    1.9: [4.2004e-03, 1.0531e-03, 2.6346e-04, 6.5878e-05],
    2.0: [4.6471e-03, 1.1654e-03, 2.9159e-04, 7.2912e-05],
}

# max errors, relative to LINEAR_EPS, against the linear fractional
# Klein-Gordon solution at T = 1, at the level-0 nodes with |x| <= 3 of
# DOMAIN; level l has (h, tau) = (0.2, 0.1) / 2^l (criterion 13)
LINEAR_EPS = 1e-4
LINEAR_ERRORS = {
    1.3: [2.2170e-03, 5.6419e-04, 1.4236e-04, 3.5812e-05],
    1.5: [2.6020e-03, 6.6218e-04, 1.6707e-04, 4.1970e-05],
    2.0: [4.0196e-03, 1.0341e-03, 2.6086e-04, 6.5416e-05],
}

ORDER_WINDOW = (1.9, 2.1)
REL_TOL = 0.10


def _within(errors, references):
    return [abs(e - r) <= REL_TOL * r for e, r in zip(errors, references)]


def _final_displacement(problem, alpha, level):
    grid = GridSpec(a=DOMAIN[0], b=DOMAIN[1], M=BASE_M * 2 ** level)
    cfg = SchemeConfig(grid=grid, alpha=alpha, T=FINAL_T, N=BASE_N * 2 ** level)
    return run(problem, cfg).state.U


@pytest.fixture(scope="module")
def kick_ladder():
    """Velocity-kick benchmark finals on six nested resolutions per order;
    level l has (h, tau) = (1/5, 1/50) / 2^l."""
    problem = get_problem("5.1", omega=1.1)
    return {alpha: [_final_displacement(problem, alpha, lvl) for lvl in range(6)]
            for alpha in KICK_SELF_ERRORS}


@pytest.fixture(scope="module")
def hump_ladder():
    problem = get_problem("5.2")
    return {alpha: [_final_displacement(problem, alpha, lvl) for lvl in range(5)]
            for alpha in HUMP_ERRORS}


def test_criterion_01_classical_errors_and_orders():
    root = SchemeConfig(grid=GridSpec(*DOMAIN, M=BASE_M), alpha=2.0, T=FINAL_T, N=BASE_N)
    report = convergence_ladder(get_problem("5.1", omega=1.1), root, levels=4)
    assert report.mode == "exact"
    errors = [row.error for row in report.rows]
    orders = [row.order for row in report.rows[1:]]
    assert all(_within(errors, KICK_EXACT_ERRORS)), errors
    assert all(ORDER_WINDOW[0] <= p <= ORDER_WINDOW[1] for p in orders), orders
    print("criterion 01: PASS  errors", [f"{e:.4e}" for e in errors],
          "orders", [f"{p:.4f}" for p in orders])


def test_criterion_02_fractional_errors_and_orders(kick_ladder):
    # orders come from the same differences to the 4x refinement; alpha = 2
    # checks the classical table, which criterion 01's exact errors do not
    for alpha, refs in KICK_SELF_ERRORS.items():
        finals = kick_ladder[alpha]
        errors = [max_norm_error_self(finals[lvl], finals[lvl + 2], ratio=4)
                  for lvl in range(4)]
        orders = orders_from_errors(errors)
        assert all(_within(errors, refs)), (alpha, errors)
        assert all(ORDER_WINDOW[0] <= p <= ORDER_WINDOW[1] for p in orders), (alpha, orders)
        print(f"criterion 02: alpha={alpha}: errors",
              [f"{e:.4e}" for e in errors], "orders", [f"{p:.4f}" for p in orders])
    print("criterion 02: PASS")


def test_criterion_03_hump_errors_and_orders(hump_ladder):
    for alpha, refs in HUMP_ERRORS.items():
        finals = hump_ladder[alpha]
        errors = [max_norm_error_self(finals[lvl], finals[lvl + 1])
                  for lvl in range(4)]
        orders = orders_from_errors(errors)
        assert all(_within(errors, refs)), (alpha, errors)
        assert all(ORDER_WINDOW[0] <= p <= ORDER_WINDOW[1] for p in orders), (alpha, orders)
        print(f"criterion 03: alpha={alpha}: errors",
              [f"{e:.4e}" for e in errors], "orders", [f"{p:.4f}" for p in orders])
    print("criterion 03: PASS")


def test_criterion_04_energy_conservation_on_presets():
    worst = 0.0
    for name, preset in ENERGY_PRESETS.items():
        M = round((preset.b - preset.a) / preset.h)
        N = round(preset.T / preset.tau)
        for alpha in preset.alphas:
            grid = GridSpec(a=preset.a, b=preset.b, M=M)
            cfg = SchemeConfig(grid=grid, alpha=alpha, T=preset.T, N=N)
            op = FracOperator(alpha, grid)
            recorder = EnergyRecorder(op)
            run(get_problem(preset.example, omega=preset.omega), cfg,
                observers=(recorder,), op=op)
            drift = recorder.max_relative_drift()
            worst = max(worst, drift)
            assert drift <= 1e-8, (name, alpha, drift)
    print(f"criterion 04: PASS  worst relative energy drift {worst:.3e}")


def test_criterion_05_fft_equals_dense():
    rng = np.random.default_rng(7)
    worst = 0.0
    for M in (7, 64, 97, 145, 201, 321, 481, 1023, 4096):  # 97-481: lengths 192, 288, 400, 640, 960
        for alpha in (1.3, 1.5, 1.75, 2.0):
            op = FracOperator(alpha, GridSpec(a=DOMAIN[0], b=DOMAIN[1], M=M))
            for _ in range(20):
                u = rng.standard_normal(op.size)
                ref = apply_dense(op, u)
                scale = max(1.0, float(np.max(np.abs(ref))))
                rel = float(np.max(np.abs(op.apply_fft(u) - ref))) / scale
                worst = max(worst, rel)
                assert rel <= 1e-12, (M, alpha, rel)
    print(f"criterion 05: PASS  worst relative deviation {worst:.3e}")


def test_criterion_06_schur_step_equals_block_solve():
    grid = GridSpec(a=DOMAIN[0], b=DOMAIN[1], M=8)
    cfg = SchemeConfig(grid=grid, alpha=1.5, T=1.0, N=10, solve=_dense.solve)
    op = FracOperator(cfg.alpha, grid)
    m = op.size
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(3):
        U_prev = rng.standard_normal(m)
        U = rng.standard_normal(m)
        V = rng.standard_normal(m)
        W = np.sqrt(2.0 - np.cos(U)) + 0.01 * rng.standard_normal(m)
        prev = IeqState(U=U_prev, V=np.zeros(m), W=np.ones(m), t=0.0, n=0)
        state = IeqState(U=U, V=V, W=W, t=cfg.tau, n=1)
        stepped, _ = cn_step(prev.U, state, op, cfg, cg_setup(op, cfg.tau))

        bvec = b_func(1.5 * U - 0.5 * U_prev)
        block, rhs = assemble_block_system(op, cfg.tau, bvec, U, V, W)
        mid = np.linalg.solve(block, rhs)
        expected = np.concatenate((
            2.0 * mid[:m] - U, 2.0 * mid[m:2 * m] - V, 2.0 * mid[2 * m:] - W))
        got = np.concatenate((stepped.U, stepped.V, stepped.W))
        diff = float(np.max(np.abs(got - expected)))
        worst = max(worst, diff)
        assert diff <= 1e-10
    print(f"criterion 06: PASS  worst deviation {worst:.3e}")


def test_criterion_07_coefficient_suite():
    classical = generate_kernel(2.0, 16)
    assert classical[0] == 2.0 and classical[1] == -1.0
    assert np.array_equal(classical[2:], np.zeros(14))

    length = 10_001
    for alpha in (1.01, 1.3, 1.5, 1.75, 1.99, 2.0):
        c = generate_kernel(alpha, length)
        ref = reference_kernel(alpha, length, dps=30)
        worst = max(ulp_distance(x, r) for x, r in zip(c, ref))
        assert worst <= 4.0, (alpha, worst)
        assert c[0] > 0.0 and np.all(c[1:] <= 0.0)
        sums = c[0] + 2.0 * np.concatenate(([0.0], np.cumsum(c[1:])))
        slack = 1e-14 * c[0]
        assert np.all(np.diff(sums) <= slack) and np.all(sums >= -slack)
        print(f"criterion 07: alpha={alpha}: worst distance {worst:.2f} ulps")
    print("criterion 07: PASS")


def test_criterion_08_spectral_bound():
    for alpha in (1.1, 1.5, 1.9, 2.0):
        for M in range(2, 65):
            kernel = generate_kernel(alpha, M - 1)
            eigs = np.linalg.eigvalsh(toeplitz(kernel))
            assert eigs.min() > 0.0, (alpha, M)
            assert eigs.max() < 2.0 * kernel[0], (alpha, M)
    print("criterion 08: PASS  eigenvalues inside (0, 2 c_0) for all M <= 64")


def test_criterion_09_energy_identity_and_coefficient_bounds():
    # discrete chain rule: h (Dh^a (u0+u1)/2, (u1-u0)/tau) equals the
    # difference quotient of the squared seminorm
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        M = int(rng.integers(8, 65))
        alpha = float(rng.uniform(1.01, 2.0))
        tau = float(10.0 ** rng.uniform(-3.0, 0.0))
        op = FracOperator(alpha, GridSpec(a=DOMAIN[0], b=DOMAIN[1], M=M))
        u0 = rng.standard_normal(op.size)
        u1 = rng.standard_normal(op.size)
        lhs = op.grid.h * float(np.dot(op.apply(0.5 * (u0 + u1)), (u1 - u0) / tau))
        rhs = (energy_seminorm_sq(op, u1) - energy_seminorm_sq(op, u0)) / (2.0 * tau)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
        worst = max(worst, rel)
        assert rel <= 1e-11, (M, alpha, tau, rel)

    # coefficient-function bounds on dense sampling, finite-difference
    # derivatives cross-checked against the analytic expressions
    x = np.linspace(-10.0 * np.pi, 10.0 * np.pi, 200_001)
    d = x[1] - x[0]
    b = b_func(x)
    db_fd = (b_func(x + d) - b_func(x - d)) / (2.0 * d)
    d2b_fd = (b_func(x + d) - 2.0 * b + b_func(x - d)) / (d * d)
    root = np.sqrt(2.0 - np.cos(x))
    db = np.cos(x) / root - np.sin(x) ** 2 / (2.0 * root ** 3)
    d2b = -b - 3.0 * np.sin(2.0 * x) / (4.0 * root ** 3) + 3.0 * np.sin(x) ** 3 / (4.0 * root ** 5)
    assert np.max(np.abs(db - db_fd)) <= 1e-5
    assert np.max(np.abs(d2b - d2b_fd)) <= 1e-5
    assert np.max(np.abs(b)) <= 1.0
    assert np.max(np.abs(db)) <= 1.5 and np.max(np.abs(db_fd)) <= 1.5 + 1e-5
    assert np.max(np.abs(d2b)) <= 2.5 and np.max(np.abs(d2b_fd)) <= 2.5 + 1e-4
    print(f"criterion 09: PASS  worst identity deviation {worst:.3e}; "
          f"bounds max |b|={np.max(np.abs(b)):.4f} |b'|={np.max(np.abs(db)):.4f} "
          f"|b''|={np.max(np.abs(d2b)):.4f}")


def test_criterion_10_exact_solution_consistency():
    for omega in (0.9, 1.0, 1.1):
        x = np.linspace(-10.0, 10.0, 81)
        d = 1e-5
        fd_velocity = (exact_breather(x, d, omega) - exact_breather(x, -d, omega)) / (2.0 * d)
        assert np.max(np.abs(fd_velocity - (4.0 / omega) * sech(x / omega))) <= 1e-6

        d = 1e-3
        for t in (0.5, 1.5):
            u = exact_breather(x, t, omega)
            u_tt = (exact_breather(x, t + d, omega) - 2.0 * u
                    + exact_breather(x, t - d, omega)) / (d * d)
            u_xx = (exact_breather(x + d, t, omega) - 2.0 * u
                    + exact_breather(x - d, t, omega)) / (d * d)
            assert np.max(np.abs(u_tt - u_xx + np.sin(u))) <= 1e-4
    print("criterion 10: PASS  initial-velocity and residual checks hold")


def test_criterion_11_fft_faster_than_direct():
    problem = get_problem("5.1", omega=1.0)
    tau, T, reps = 0.1, 1.0, 3
    for M in (400, 800):
        half = 0.05 * M  # h = 0.1
        grid = GridSpec(a=-half, b=half, M=M)
        base = dict(grid=grid, alpha=1.5, T=T, N=round(T / tau))
        timings = {}
        finals = {}
        for method, solve in (("direct", _dense.solve), ("cg", None)):
            cfg = SchemeConfig(solve=solve, **base)
            best = []
            for _ in range(reps):
                t0 = time.perf_counter()
                finals[method] = run(problem, cfg).state.U
                best.append(time.perf_counter() - t0)
            timings[method] = min(best)
        diff = float(np.max(np.abs(finals["direct"] - finals["cg"])))
        assert diff <= 1e-8, (M, diff)
        assert timings["cg"] < timings["direct"], (M, timings)
        print(f"criterion 11: M={M}: direct {timings['direct']:.3f}s, "
              f"fft {timings['cg']:.3f}s, solution diff {diff:.2e}")
    print("criterion 11: PASS")


def _fractional_laplacian_of_gaussian(alpha, x):
    """(-Delta)^{alpha/2} exp(-x^2) = 2^alpha Gamma((1+alpha)/2) / Gamma(1/2)
    1F1((1+alpha)/2; 1/2; -x^2), from the Fourier transform of the Gaussian."""
    c = 2.0 ** alpha * mp.gamma((1 + alpha) / 2) / mp.gamma(0.5)
    return np.array([float(c * mp.hyp1f1((1 + alpha) / 2, 0.5, -xi * xi)) for xi in x])


def _hump_seminorm_sq(alpha):
    """(1/2pi) int |xi|^alpha |phi^(xi)|^2 dxi for example 5.2's phi = 3.2 sech x,
    whose Fourier transform is 3.2 pi sech(pi xi / 2); the integrand is even."""
    half_line = mp.quad(lambda xi: xi ** alpha * (3.2 * mp.pi * mp.sech(mp.pi * xi / 2)) ** 2,
                        [0, mp.inf])
    return float(half_line / mp.pi)


def test_criterion_12_operator_and_energy_against_continuous_limits():
    # the continuous fractional Laplacian, not the code's own finer grids,
    # is the reference: a wrongly normalised operator would still converge
    for alpha, refs in GAUSSIAN_ERRORS.items():
        errors = []
        for M in GAUSSIAN_M:
            op = FracOperator(alpha, GridSpec(a=-12.0, b=12.0, M=M))
            x = op.grid.interior_nodes()
            near = np.abs(x) <= 3.0
            exact = _fractional_laplacian_of_gaussian(alpha, x[near])
            errors.append(float(np.max(np.abs(op.apply(np.exp(-x * x))[near] - exact))))
        orders = orders_from_errors(errors)
        assert all(_within(errors, refs)), (alpha, errors)
        assert all(ORDER_WINDOW[0] <= p <= ORDER_WINDOW[1] for p in orders), (alpha, orders)
        print(f"criterion 12: operator, alpha={alpha}: errors",
              [f"{e:.4e}" for e in errors], "orders", [f"{p:.4f}" for p in orders])
    hump = get_problem("5.2")
    for alpha, refs in SEMINORM_ERRORS.items():
        exact = _hump_seminorm_sq(alpha)
        errors = []
        for M in SEMINORM_M:
            op = FracOperator(alpha, GridSpec(*DOMAIN, M=M))
            seminorm = energy_seminorm_sq(op, hump.phi(op.grid.interior_nodes()))
            errors.append(abs(seminorm - exact) / exact)
        orders = orders_from_errors(errors)
        assert all(_within(errors, refs)), (alpha, errors)
        assert all(ORDER_WINDOW[0] <= p <= ORDER_WINDOW[1] for p in orders), (alpha, orders)
        print(f"criterion 12: seminorm, alpha={alpha}: limit {exact:.10g}, errors",
              [f"{e:.4e}" for e in errors], "orders", [f"{p:.4f}" for p in orders])
    print("criterion 12: PASS")


def _linear_klein_gordon(alpha, x, t):
    """u(x, t) of u_tt + (-Delta)^{alpha/2} u + u = 0 on the line with u(x, 0) =
    LINEAR_EPS exp(-x^2) and u_t(x, 0) = 0: (1/pi) int_0^inf LINEAR_EPS sqrt(pi)
    exp(-xi^2/4) cos(t sqrt(xi^alpha + 1)) cos(xi x) dxi, by the trapezoid rule
    on [0, 20], past which the integrand is below exp(-100)."""
    xi = np.linspace(0.0, 20.0, 20001)
    weights = np.full(xi.size, xi[1])
    weights[[0, -1]] /= 2
    spectrum = np.sqrt(np.pi) * np.exp(-xi * xi / 4) * np.cos(t * np.sqrt(xi ** alpha + 1))
    return LINEAR_EPS / np.pi * (np.cos(np.outer(x, xi)) @ (spectrum * weights))


def test_criterion_13_small_amplitude_evolution_against_linear_klein_gordon():
    # sin u = u + O(u^3): at amplitude 1e-4 the sine-Gordon solution is the
    # linear one to about 1e-8 of it, far below the discretization error, so
    # the time stepping and the zero exterior below alpha = 2 meet a limit
    # that is not the code's own finer grids
    problem = Problem("linear", phi=lambda x: LINEAR_EPS * np.exp(-x * x), psi=np.zeros_like)
    x = GridSpec(*DOMAIN, M=200).interior_nodes()
    near = np.abs(x) <= 3.0
    for alpha, refs in LINEAR_ERRORS.items():
        exact = _linear_klein_gordon(alpha, x[near], FINAL_T)
        errors = []
        for level in range(4):
            cfg = SchemeConfig(grid=GridSpec(*DOMAIN, M=200 * 2 ** level), alpha=alpha,
                               T=FINAL_T, N=10 * 2 ** level)
            coarse = run(problem, cfg).state.U[2 ** level - 1::2 ** level]  # level 0's nodes
            errors.append(float(np.max(np.abs(coarse[near] - exact))) / LINEAR_EPS)
        orders = orders_from_errors(errors)
        assert all(_within(errors, refs)), (alpha, errors)
        assert all(ORDER_WINDOW[0] <= p <= ORDER_WINDOW[1] for p in orders), (alpha, orders)
        print(f"criterion 13: alpha={alpha}: errors", [f"{e:.4e}" for e in errors],
              "orders", [f"{p:.4f}" for p in orders])
    print("criterion 13: PASS")
