"""Acceptance gate: eleven end-to-end verification criteria.

One test per criterion, so the verbose pytest status line is the per-criterion
pass/fail record; every test also prints a one-line summary with the measured
quantities.  The refinement-ladder simulations are the expensive part and are
shared through module-scoped fixtures; the whole module runs in a few minutes.
"""

import time

import numpy as np
import pytest
from scipy.linalg import toeplitz

from fracsg import (
    EnergyRecorder,
    FracOperator,
    GridSpec,
    SchemeConfig,
    SolveConfig,
    cn_step,
    convergence_ladder,
    generate_kernel,
    get_problem,
    run,
)
from fracsg.diagnostics import max_norm_error_self, orders_from_errors
from fracsg.presets import ENERGY_PRESETS
from fracsg.problems import exact_breather, sech
from fracsg.scheme import IeqState, b_func

from oracles import apply_dense, assemble_block_system, energy_seminorm_sq
from test_kernel import reference_kernel, ulp_distance

DOMAIN = (-20.0, 20.0)
BASE_M, BASE_N, FINAL_T = 200, 50, 1.0  # ladder root (h, tau) = (1/5, 1/50)

# frozen reference error magnitudes for the two benchmark ladders
KICK_CLASSICAL_ERRORS = [2.7689e-03, 6.8864e-04, 1.7192e-04, 4.2963e-05]
KICK_FRACTIONAL_ERRORS = {
    1.3: [1.5583e-03, 3.8978e-04, 9.7441e-05, 2.4357e-05],
    1.75: [2.4035e-03, 5.9925e-04, 1.4969e-04, 3.7413e-05],
    1.99: [2.7569e-03, 6.8571e-04, 1.7119e-04, 4.2781e-05],
}
HUMP_ERRORS = {
    1.3: [4.3475e-03, 1.0849e-03, 2.7117e-04, 6.7796e-05],
    1.6: [5.1079e-03, 1.2689e-03, 3.1678e-04, 7.9175e-05],
    1.9: [5.1156e-03, 1.2667e-03, 3.1601e-04, 7.8969e-05],
    2.0: [4.9566e-03, 1.2273e-03, 3.0617e-04, 7.6510e-05],
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
            for alpha in KICK_FRACTIONAL_ERRORS}


@pytest.fixture(scope="module")
def hump_ladder():
    problem = get_problem("5.2")
    return {alpha: [_final_displacement(problem, alpha, lvl) for lvl in range(5)]
            for alpha in HUMP_ERRORS}


def test_criterion_01_classical_errors_and_orders():
    report = convergence_ladder(get_problem("5.1", omega=1.1), 2.0, *DOMAIN,
                                base_h=0.2, base_tau=0.02, levels=4, T=FINAL_T)
    assert report.mode == "exact"
    errors = [row.error for row in report.rows]
    orders = [row.order for row in report.rows[1:]]
    assert all(_within(errors, KICK_CLASSICAL_ERRORS)), errors
    assert all(ORDER_WINDOW[0] <= p <= ORDER_WINDOW[1] for p in orders), orders
    print("criterion 01: PASS  errors", [f"{e:.4e}" for e in errors],
          "orders", [f"{p:.4f}" for p in orders])


def test_criterion_02_fractional_errors_and_orders(kick_ladder):
    # reference magnitudes correspond to the difference against the grid
    # refined 4x in both h and tau; orders come from the same sequence
    for alpha, refs in KICK_FRACTIONAL_ERRORS.items():
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
            run(get_problem(preset.problem_key, omega=preset.omega), cfg,
                observers=(recorder,), op=op)
            drift = recorder.max_relative_drift()
            worst = max(worst, drift)
            assert drift <= 1e-8, (name, alpha, drift)
    print(f"criterion 04: PASS  worst relative energy drift {worst:.3e}")


def test_criterion_05_fft_equals_dense():
    rng = np.random.default_rng(7)
    worst = 0.0
    for M in (7, 64, 1023, 4096):
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
    cfg = SchemeConfig(grid=grid, alpha=1.5, T=1.0, N=10,
                       solve=SolveConfig(method="direct"))
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
        stepped, _ = cn_step(prev, state, op, cfg)

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
        for method in ("direct", "cg"):
            cfg = SchemeConfig(solve=SolveConfig(method=method), **base)
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
