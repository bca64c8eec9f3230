"""Time-stepper tests: coefficient function, startup step, conservative
stepping, and the dense block-system cross-check."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracsg import (
    FracOperator,
    GridSpec,
    IeqState,
    SchemeConfig,
    SolveConfig,
    assemble_block_system,
    b_func,
    cn_step,
    discrete_energy,
    exact_breather,
    get_problem,
    initial_state,
    run,
    startup_step,
)
from fracsg.problems import Problem


def zero_problem():
    return Problem(
        key="zero",
        phi=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        psi=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
    )


class TestBFunc:
    def test_special_values(self):
        assert b_func(0.0) == 0.0
        assert abs(b_func(np.pi)) < 1e-15
        assert b_func(np.pi / 2) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-15)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_bounded_by_one(self, x):
        assert abs(b_func(x)) <= 1.0


class TestConfig:
    def test_tau(self):
        cfg = SchemeConfig(grid=GridSpec(a=0.0, b=1.0, M=4), alpha=1.5, T=2.0, N=8)
        assert cfg.tau == 0.25

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 2.5},
            {"T": 0.0},
            {"T": -1.0},
            {"N": 0},
            {"startup_tol": 0.0},
            {"startup_max_iter": 0},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(grid=GridSpec(a=0.0, b=1.0, M=4), alpha=1.5, T=1.0, N=4)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SchemeConfig(**base)


def test_initial_state_quadratization():
    grid = GridSpec(a=-20.0, b=20.0, M=50)
    state = initial_state(get_problem("5.2"), grid)
    np.testing.assert_allclose(state.W, np.sqrt(2.0 - np.cos(state.U)), rtol=1e-15)
    assert state.t == 0.0 and state.n == 0


def test_zero_data_is_a_fixed_point():
    grid = GridSpec(a=-10.0, b=10.0, M=40)
    cfg = SchemeConfig(grid=grid, alpha=1.5, T=0.5, N=5)
    result = run(zero_problem(), cfg)
    assert np.array_equal(result.state.U, np.zeros(grid.M - 1))
    assert np.array_equal(result.state.V, np.zeros(grid.M - 1))
    assert np.array_equal(result.state.W, np.ones(grid.M - 1))


def test_startup_conserves_energy():
    grid = GridSpec(a=-20.0, b=20.0, M=100)
    cfg = SchemeConfig(grid=grid, alpha=1.6, T=0.05, N=1)
    op = FracOperator(cfg.alpha, grid)
    state0 = initial_state(get_problem("5.2"), grid)
    state1, iterations = startup_step(state0, op, cfg)
    assert iterations >= 1
    e0 = discrete_energy(state0, op)
    e1 = discrete_energy(state1, op)
    assert abs(e1 - e0) <= 1e-10 * abs(e0)
    assert state1.n == 1
    assert state1.t == pytest.approx(cfg.tau)


def test_startup_accuracy_against_exact_solution():
    # one step of the classical-case velocity-kick benchmark vs the breather;
    # the observed one-step error at these resolutions is ~4.1e-06
    omega = 1.1
    grid = GridSpec(a=-20.0, b=20.0, M=100)
    cfg = SchemeConfig(grid=grid, alpha=2.0, T=0.02, N=1)
    op = FracOperator(2.0, grid)
    state1, _ = startup_step(initial_state(get_problem("5.1", omega), grid), op, cfg)
    exact = exact_breather(grid.interior_nodes(), cfg.tau, omega)
    assert np.max(np.abs(state1.U - exact)) <= 1e-5


def test_startup_iteration_cap():
    grid = GridSpec(a=-20.0, b=20.0, M=50)
    cfg = SchemeConfig(grid=grid, alpha=1.5, T=0.1, N=1,
                       startup_tol=1e-14, startup_max_iter=1)
    op = FracOperator(cfg.alpha, grid)
    from fracsg import StartupFailure

    with pytest.raises(StartupFailure):
        startup_step(initial_state(get_problem("5.1"), grid), op, cfg)


def test_nan_initial_datum_fails_on_first_startup_solve(monkeypatch):
    import fracsg.scheme
    from fracsg import SolveFailure

    calls = []

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    solve = fracsg.scheme.solve
    monkeypatch.setattr(fracsg.scheme, "solve", counting_solve)
    problem = Problem(key="nan", phi=lambda x: np.where(x == x[7], np.nan, 0.0),
                      psi=lambda x: np.zeros_like(x))
    cfg = SchemeConfig(grid=GridSpec(a=-20.0, b=20.0, M=50), alpha=1.5, T=0.1, N=2)
    with pytest.raises(SolveFailure, match="non-finite right-hand side"):
        run(problem, cfg)
    assert len(calls) == 1


def test_cn_step_matches_dense_block_solve(rng):
    grid = GridSpec(a=-20.0, b=20.0, M=8)
    cfg = SchemeConfig(grid=grid, alpha=1.5, T=1.0, N=10,
                       solve=SolveConfig(method="direct"))
    op = FracOperator(cfg.alpha, grid)
    m = op.size
    U_prev = rng.standard_normal(m)
    U = rng.standard_normal(m)
    V = rng.standard_normal(m)
    W = np.sqrt(2.0 - np.cos(U)) + 0.01 * rng.standard_normal(m)
    state_prev = IeqState(U=U_prev, V=np.zeros(m), W=np.ones(m), t=0.0, n=0)
    state = IeqState(U=U, V=V, W=W, t=cfg.tau, n=1)

    stepped, _ = cn_step(state_prev, state, op, cfg)

    bvec = b_func(1.5 * U - 0.5 * U_prev)
    block, rhs = assemble_block_system(op, cfg.tau, bvec, U, V, W)
    mid = np.linalg.solve(block, rhs)
    U_mid, V_mid, W_mid = mid[:m], mid[m:2 * m], mid[2 * m:]
    np.testing.assert_allclose(stepped.U, 2.0 * U_mid - U, atol=1e-10)
    np.testing.assert_allclose(stepped.V, 2.0 * V_mid - V, atol=1e-10)
    np.testing.assert_allclose(stepped.W, 2.0 * W_mid - W, atol=1e-10)


def test_run_is_deterministic():
    grid = GridSpec(a=-20.0, b=20.0, M=80)
    cfg = SchemeConfig(grid=grid, alpha=1.7, T=0.5, N=10)
    u1 = run(get_problem("5.1"), cfg).state.U
    u2 = run(get_problem("5.1"), cfg).state.U
    assert np.array_equal(u1, u2)


def test_run_reports_solver_statistics():
    grid = GridSpec(a=-20.0, b=20.0, M=80)
    cfg = SchemeConfig(grid=grid, alpha=1.7, T=0.5, N=10)
    result = run(get_problem("5.1"), cfg)
    assert result.steps == 10
    assert result.startup_iterations >= 1
    assert result.cg_iterations_max >= 1
    assert 0.0 < result.cg_iterations_mean <= result.cg_iterations_max
    assert result.residual_max <= 1e-11


def test_observers_see_every_level():
    grid = GridSpec(a=-20.0, b=20.0, M=40)
    cfg = SchemeConfig(grid=grid, alpha=1.5, T=0.5, N=5)
    seen = []
    run(get_problem("5.2"), cfg, observers=(lambda s, st_: seen.append((s.n, st_ is None)),))
    assert [n for n, _ in seen] == list(range(6))
    # no per-step solver stats at the initial level or the startup level
    assert [missing for _, missing in seen] == [True, True, False, False, False, False]
