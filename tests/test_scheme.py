"""Time-stepper tests: coefficient function, startup step, conservative
stepping, and the dense block-system cross-check."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracsg import (
    EnergyRecorder,
    FracOperator,
    GridSpec,
    SchemeConfig,
    cn_step,
    discrete_energy,
    get_problem,
    initial_state,
    run,
    startup_step,
)
from fracsg import _dense, solvers
from fracsg.problems import Problem, exact_breather
from fracsg.scheme import HISTORY, IeqState, b_func

from oracles import assemble_block_system, energy_seminorm_sq


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
            {"T": float("inf")},
            {"N": 0},
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
    state1, stats = startup_step(state0, op, cfg, solvers.cg_setup(op, cfg.tau))
    assert stats.iterations >= 1
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
    state1, _ = startup_step(initial_state(get_problem("5.1", omega), grid), op, cfg,
                            solvers.cg_setup(op, cfg.tau))
    exact = exact_breather(grid.interior_nodes(), cfg.tau, omega)
    assert np.max(np.abs(state1.U - exact)) <= 1e-5


def count_solves(monkeypatch) -> list:
    """Record one entry per call of the scheme's linear solve."""
    import fracsg.scheme

    calls = []
    solve = fracsg.scheme.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fracsg.scheme, "solve", counting_solve)
    return calls


@pytest.mark.parametrize("with_recorder", [True, False])
def test_each_level_applies_the_operator_once(monkeypatch, with_recorder):
    import fracsg.scheme

    grid = GridSpec(a=-20.0, b=20.0, M=100)
    cfg = SchemeConfig(grid=grid, alpha=1.6, T=1.0, N=10)
    op = FracOperator(cfg.alpha, grid)
    iterations, applies, states = [], [], []
    solve, apply = fracsg.scheme.solve, FracOperator.apply

    def recording_solve(*args, **kwargs):
        x, stats = solve(*args, **kwargs)
        iterations.append(stats.iterations)
        return x, stats

    def counting_apply(self, u):
        applies.append(1)
        return apply(self, u)

    monkeypatch.setattr(fracsg.scheme, "solve", recording_solve)
    monkeypatch.setattr(FracOperator, "apply", counting_apply)
    recorder = EnergyRecorder(op)
    observers = (recorder,) if with_recorder else ()
    run(get_problem("5.2"), cfg, observers=observers + (lambda s, _: states.append(s),), op=op)
    # CG iterations, the first step's initial residual, one true residual per
    # step, and one product per level the energy series reads: no step reads one
    products = cfg.N + 1 if with_recorder else 0
    assert len(applies) == sum(iterations) + (cfg.N + 1) + products
    monkeypatch.undo()
    assert len(states) == cfg.N + 1
    assert len(recorder.series[0]) == products
    h = grid.h
    for state, row in zip(states, recorder.series[0]):
        (U,), (V,), (W,) = state.U, state.V, state.W  # a level's one row
        assert row[2] == 0.5 * (h * float(np.dot(V, V)) + energy_seminorm_sq(op, U)
                                + 2.0 * h * float(np.dot(W, W)))


def test_no_step_reads_a_level_product(monkeypatch):
    import fracsg.scheme

    grid = GridSpec(a=-20.0, b=20.0, M=100)
    cfg = SchemeConfig(grid=grid, alpha=1.6, T=1.0, N=10)
    op = FracOperator(cfg.alpha, grid)
    assert solvers.cg_setup(op, cfg.tau).preconditioned == (False,)
    stats = recording_solves(monkeypatch)
    applies, apply = [], FracOperator.apply
    monkeypatch.setattr(FracOperator, "apply", lambda self, u: applies.append(1) or apply(self, u))
    levels, step = [], fracsg.scheme.cn_step
    monkeypatch.setattr(fracsg.scheme, "cn_step",
                        lambda prev, state, *args: levels.append(state) or step(prev, state, *args))
    run(get_problem("5.2"), cfg, op=op)
    # CG iterations, the first step's initial residual and one true residual per step
    assert len(applies) == sum(s.iterations for s in stats) + cfg.N + 1
    assert len(levels) == cfg.N
    applies.clear()
    stats.clear()
    # the energy series reads one product per level
    run(get_problem("5.2"), cfg, observers=(EnergyRecorder(op),), op=op)
    assert len(applies) == sum(s.iterations for s in stats) + cfg.N + 1 + (cfg.N + 1)


def test_a_stack_recorder_applies_the_operator_once_per_level(monkeypatch):
    grid = GridSpec(a=-20.0, b=20.0, M=100)
    cfg = SchemeConfig(grid=grid, alpha=(1.5, 1.9), T=1.0, N=10)
    op = FracOperator(cfg.alpha, grid)
    stats = recording_solves(monkeypatch)
    applies, apply = [], FracOperator.apply
    monkeypatch.setattr(FracOperator, "apply", lambda self, u: applies.append(1) or apply(self, u))
    recorder = EnergyRecorder(op)
    run(get_problem("5.2"), cfg, observers=(recorder,), op=op)
    # the steps' applies, as for one order, and one batched product per level for both rows
    assert len(applies) == sum(s.iterations for s in stats) + cfg.N + 1 + (cfg.N + 1)
    assert [[n for n, *_ in rows] for rows in recorder.series] == [list(range(cfg.N + 1))] * 2


def test_level_product_is_computed_for_the_operator_asked():
    grid = GridSpec(a=-20.0, b=20.0, M=40)
    state = initial_state(get_problem("5.2"), grid)
    ops = [FracOperator(alpha, grid) for alpha in (1.5, 1.9)]
    h = grid.h
    for op in ops + ops[:1]:
        assert discrete_energy(state, op) == 0.5 * (
            h * float(np.dot(state.V, state.V)) + h * float(np.dot(op.apply(state.U), state.U))
            + 2.0 * h * float(np.dot(state.W, state.W)))
    stacked = IeqState(*(np.tile(a, (2, 1)) for a in (state.U, state.V, state.W)), 0.0, 0)
    # of a stack: its rows' energies
    assert discrete_energy(stacked, FracOperator((1.5, 1.9), grid)) == [
        discrete_energy(state, op) for op in ops]


@pytest.mark.parametrize("name", [field.name for field in dataclasses.fields(IeqState)])
def test_a_level_is_frozen(name):
    state = initial_state(get_problem("5.2"), GridSpec(a=-20.0, b=20.0, M=40))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(state, name, getattr(state, name))


@pytest.mark.parametrize("alpha, domain", [(1.9, (-10.0, 10.0)), (1.5, (-5.0, 5.0))],
                         ids=["alpha", "grid"])
def test_run_refuses_an_operator_of_another_order_or_grid(alpha, domain):
    cfg = SchemeConfig(grid=GridSpec(a=-10.0, b=10.0, M=40), alpha=1.5, T=0.2, N=2)
    op = FracOperator(alpha, GridSpec(*domain, M=40))
    with pytest.raises(ValueError) as refused:
        run(get_problem("5.1"), cfg, op=op)
    for named in (f"alpha={op.alpha}, {op.grid}", f"alpha={cfg.alpha}, {cfg.grid}"):
        assert named in str(refused.value)


def test_startup_is_one_solve_and_run_is_n(monkeypatch):
    calls = count_solves(monkeypatch)
    grid = GridSpec(a=-20.0, b=20.0, M=100)
    cfg = SchemeConfig(grid=grid, alpha=1.6, T=0.5, N=10)
    op = FracOperator(cfg.alpha, grid)
    startup_step(initial_state(get_problem("5.1"), grid), op, cfg, solvers.cg_setup(op, cfg.tau))
    assert len(calls) == 1
    calls.clear()
    run(get_problem("5.1"), cfg)
    assert len(calls) == cfg.N


@pytest.mark.parametrize("key", ["5.1", "5.2"])
def test_run_steps_by_cn_step_alone_from_the_virtual_level(monkeypatch, key):
    import fracsg.scheme

    grid = GridSpec(a=-20.0, b=20.0, M=100)
    cfg = SchemeConfig(grid=grid, alpha=1.6, T=0.5, N=10)
    op = FracOperator(cfg.alpha, grid)
    state0 = initial_state(get_problem(key), grid)
    virtual = state0.U - cfg.tau * state0.V
    setup = solvers.cg_setup(op, cfg.tau)
    first, stats = startup_step(initial_state(get_problem(key), grid), op, cfg, setup)
    again, again_stats = cn_step(virtual, state0, op, cfg, setup)
    assert again_stats == stats and (again.t, again.n) == (first.t, first.n)
    for name in ("U", "V", "W"):
        assert np.array_equal(getattr(again, name), getattr(first, name))

    calls = {"cn_step": 0, "startup_step": 0}

    def counted(name):
        original = getattr(fracsg.scheme, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(fracsg.scheme, name, counted(name))
    levels = []
    run(get_problem(key), cfg, observers=(lambda state, _: levels.append(state),), op=op)
    assert calls == {"cn_step": cfg.N, "startup_step": 0}
    assert np.array_equal(levels[1].U, [first.U])  # run's levels: one row per order


@pytest.mark.parametrize("key", ["5.1", "5.2"])
def test_large_time_step_conserves_energy(key):
    # tau = 2: the first step is linear like every other, so no step limits tau
    grid = GridSpec(a=-20.0, b=20.0, M=400)
    cfg = SchemeConfig(grid=grid, alpha=1.8, T=20.0, N=10)
    op = FracOperator(cfg.alpha, grid)
    recorder = EnergyRecorder(op)
    result = run(get_problem(key), cfg, observers=(recorder,), op=op)
    assert result.steps == cfg.N
    assert recorder.max_relative_drift() <= 1e-10


def test_nan_initial_datum_fails_on_first_startup_solve(monkeypatch):
    from fracsg import SolveFailure

    calls = count_solves(monkeypatch)
    problem = Problem(key="nan", phi=lambda x: np.where(x == x[7], np.nan, 0.0),
                      psi=lambda x: np.zeros_like(x))
    cfg = SchemeConfig(grid=GridSpec(a=-20.0, b=20.0, M=50), alpha=1.5, T=0.1, N=2)
    with pytest.raises(SolveFailure, match="non-finite right-hand side"):
        run(problem, cfg)
    assert len(calls) == 1


def test_default_tolerance_above_its_ceiling_is_refused_before_any_step():
    from fracsg import SolveFailure

    # zero data would make every solve trivial; the refusal comes first anyway
    levels = []
    cfg = SchemeConfig(grid=GridSpec(a=-0.0001, b=0.0001, M=1000), alpha=2.0, T=6.0, N=2)
    with pytest.raises(SolveFailure, match="exceeds its ceiling"):
        run(zero_problem(), cfg, observers=(lambda state, _: levels.append(state.n),))
    assert levels == []


def test_cn_step_matches_dense_block_solve(rng):
    grid = GridSpec(a=-20.0, b=20.0, M=8)
    cfg = SchemeConfig(grid=grid, alpha=1.5, T=1.0, N=10, solve=_dense.solve)
    op = FracOperator(cfg.alpha, grid)
    m = op.size
    U_prev = rng.standard_normal(m)
    U = rng.standard_normal(m)
    V = rng.standard_normal(m)
    W = np.sqrt(2.0 - np.cos(U)) + 0.01 * rng.standard_normal(m)
    state_prev = IeqState(U=U_prev, V=np.zeros(m), W=np.ones(m), t=0.0, n=0)
    state = IeqState(U=U, V=V, W=W, t=cfg.tau, n=1)

    stepped, _ = cn_step(state_prev.U, state, op, cfg, solvers.cg_setup(op, cfg.tau))

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
    assert result.cg_iterations_max >= 1
    assert 0.0 < result.cg_iterations_mean <= result.cg_iterations_max
    assert result.residual_max <= 1e-11


def test_observers_see_every_level():
    grid = GridSpec(a=-20.0, b=20.0, M=40)
    cfg = SchemeConfig(grid=grid, alpha=1.5, T=0.5, N=5)
    seen = []
    run(get_problem("5.2"), cfg, observers=(lambda s, st_: seen.append((s.n, st_ is None)),))
    assert [n for n, _ in seen] == list(range(6))
    # solver stats at every level but the initial one
    assert [missing for _, missing in seen] == [True, False, False, False, False, False]


def test_time_column_is_computed_from_the_level_index():
    # summing tau = T/N two hundred times would drift off n T/N and off T
    grid = GridSpec(a=-20.0, b=20.0, M=40)
    cfg = SchemeConfig(grid=grid, alpha=1.5, T=10.0, N=200)
    op = FracOperator(cfg.alpha, grid)
    recorder = EnergyRecorder(op)
    run(get_problem("5.1"), cfg, observers=(recorder,), op=op)
    (rows,) = recorder.series
    assert [t for _, t, _, _ in rows] == [cfg.T * (n / cfg.N) for n in range(cfg.N + 1)]
    assert rows[-1][1] == cfg.T


def stiff_config(M=16000, N=10):
    """alpha 1.8 on (-20, 20) at tau = 0.1: condition bounds 438 at M = 16000
    and 37 at M = 4000, so every solve is preconditioned."""
    cfg = SchemeConfig(grid=GridSpec(a=-20.0, b=20.0, M=M), alpha=1.8, T=0.1 * N, N=N)
    assert solvers.cg_setup(FracOperator(cfg.alpha, cfg.grid), cfg.tau).preconditioned == (True,)
    return cfg


def recording_solves(monkeypatch):
    """A list that receives the stats of every solve the stepper makes."""
    import fracsg.scheme

    stats, solve = [], fracsg.scheme.solve

    def recording_solve(*args, **kwargs):
        x, solve_stats = solve(*args, **kwargs)
        stats.append(solve_stats)
        return x, solve_stats

    monkeypatch.setattr(fracsg.scheme, "solve", recording_solve)
    return stats


@pytest.mark.parametrize("omega", [0.9, 1.2])
def test_projected_start_meets_the_tolerance_on_every_stiff_solve(monkeypatch, omega):
    cfg = stiff_config()
    op = FracOperator(cfg.alpha, cfg.grid)
    stats = recording_solves(monkeypatch)
    run(get_problem("5.1", omega=omega), cfg, op=op)
    assert len(stats) == cfg.N
    assert max(s.residual for s in stats) <= solvers.cg_setup(op, cfg.tau).rel_tols[0]


def test_preconditioned_step_reads_no_level_product(monkeypatch):
    cfg = stiff_config(M=4000)
    stats = recording_solves(monkeypatch)
    applies, apply = [], FracOperator.apply
    monkeypatch.setattr(FracOperator, "apply", lambda self, u: applies.append(1) or apply(self, u))
    states = []
    run(get_problem("5.1"), cfg, observers=(lambda state, _: states.append(state),))
    # CG iterations, the first step's initial residual and one true residual
    # per step: every later initial residual comes from the stored products
    assert len(applies) == sum(s.iterations for s in stats) + 1 + cfg.N
    assert [len(state.midpoints) for state in states] == [0, 1, 2] + [HISTORY] * (cfg.N - 2)


def test_run_builds_its_preconditioner_once(monkeypatch):
    cfg = stiff_config(M=4000)
    builds, build = [], solvers.build_circulant_preconditioner
    monkeypatch.setattr(solvers, "build_circulant_preconditioner",
                        lambda *args: builds.append(1) or build(*args))
    stats = recording_solves(monkeypatch)
    run(get_problem("5.1"), cfg)
    assert len(stats) == cfg.N
    assert len(builds) == 1


def test_projected_start_saves_iterations(monkeypatch):
    import fracsg.scheme

    cfg = stiff_config(M=4000)
    stats = recording_solves(monkeypatch)
    projected = run(get_problem("5.1"), cfg)
    by_projection = sum(s.iterations for s in stats[1:])
    stats.clear()
    # every step made from its level with the stored midpoints dropped, so it
    # starts from the extrapolation; the solver still preconditions
    step = fracsg.scheme.cn_step
    monkeypatch.setattr(fracsg.scheme, "cn_step", lambda prev, state, *args: step(
        prev, dataclasses.replace(state, midpoints=()), *args))
    extrapolated = run(get_problem("5.1"), cfg)
    assert by_projection < sum(s.iterations for s in stats[1:])
    for name in ("U", "V", "W"):
        assert np.max(np.abs(getattr(projected.state, name)
                             - getattr(extrapolated.state, name))) <= 1e-9


def test_true_residual_does_not_trust_a_stored_midpoint_product():
    cfg = stiff_config(M=4000, N=4)
    op = FracOperator(cfg.alpha, cfg.grid)
    level = initial_state(get_problem("5.1"), cfg.grid)
    state0 = IeqState(*(a[None] for a in (level.U, level.V, level.W)), 0.0, 0)  # one row, as run's
    setup = solvers.cg_setup(op, cfg.tau)
    state1, _ = startup_step(state0, op, cfg, setup)
    state2, _ = cn_step(state0.U, state1, op, cfg, setup)
    _, honest = cn_step(state1.U, state2, op, cfg, setup)
    assert honest.residual <= 1e-12
    (_, U_mid, product), *older = state2.midpoints
    state2 = dataclasses.replace(state2, midpoints=((op, U_mid, 1.01 * product), *older))
    _, stats = cn_step(state1.U, state2, op, cfg, setup)
    assert stats.residual > 1e-6


@pytest.mark.parametrize("key, cfg, preconditioned", [
    ("5.1", SchemeConfig(grid=GridSpec(a=-20.0, b=20.0, M=200), alpha=1.5, T=1.0, N=10), False),
    ("5.1", stiff_config(M=4000, N=5), True),
    ("5.2", SchemeConfig(grid=GridSpec(a=-20.0, b=20.0, M=200), alpha=1.6, T=1.0, N=10), False),
], ids=["plain", "preconditioned", "5.2"])
def test_a_float_order_steps_as_its_one_row_stack(monkeypatch, key, cfg, preconditioned):
    assert solvers.cg_setup(FracOperator(cfg.alpha, cfg.grid), cfg.tau).preconditioned == (
        preconditioned,)
    outcomes = []
    for alpha in (cfg.alpha, (cfg.alpha,)):
        op = FracOperator(alpha, cfg.grid)
        recorder, stats = EnergyRecorder(op), recording_solves(monkeypatch)
        result = run(get_problem(key), dataclasses.replace(cfg, alpha=alpha), (recorder,), op=op)
        outcomes.append((result.state, recorder.series, [s.iterations for s in stats]))
        monkeypatch.undo()
    (single, single_series, single_iterations), (stack, stack_series, stack_iterations) = outcomes
    m = cfg.grid.M - 1
    for name in ("U", "V", "W"):
        assert getattr(single, name).shape == (m,) and getattr(stack, name).shape == (1, m)
        assert np.array_equal(getattr(stack, name), [getattr(single, name)])
    assert stack_series == single_series
    assert stack_iterations == single_iterations and len(stack_iterations) == cfg.N
