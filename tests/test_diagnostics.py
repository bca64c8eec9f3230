"""Energy and error-diagnostics tests."""

from dataclasses import replace

import numpy as np
import pytest

from fracsg import (
    EnergyRecorder,
    FracOperator,
    GridSpec,
    SchemeConfig,
    convergence_ladder,
    discrete_energy,
    get_problem,
    initial_state,
    run,
)
from fracsg import solvers
from fracsg.diagnostics import max_norm_error_self, orders_from_errors, w_projection_drift
from fracsg.scheme import IeqState

from oracles import continuous_energy, hump_slope, quadratization_offset


def rest_state(grid):
    m = grid.M - 1
    return IeqState(U=np.zeros(m), V=np.zeros(m), W=np.ones(m), t=0.0, n=0)


def test_rest_state_energy_is_quadratization_offset():
    grid = GridSpec(a=-20.0, b=20.0, M=64)
    op = FracOperator(1.5, grid)
    assert discrete_energy(rest_state(grid), op) == pytest.approx(
        quadratization_offset(grid), rel=1e-14)
    assert quadratization_offset(grid) == pytest.approx(grid.h * 63, rel=1e-15)


def test_discrete_energy_approaches_continuous_energy():
    # velocity-kick data: continuous energy is the kinetic integral, finite
    # for every order since the initial displacement vanishes
    a, b = -20.0, 20.0
    p = get_problem("5.1", omega=1.1)
    target = continuous_energy(p, a, b, alpha=1.5)
    grid = GridSpec(a=a, b=b, M=2000)
    op = FracOperator(1.5, grid)
    e0 = discrete_energy(initial_state(p, grid), op) - quadratization_offset(grid)
    assert e0 == pytest.approx(target, rel=1e-4)


def test_discrete_energy_classical_case_with_displacement():
    a, b = -20.0, 20.0
    p = get_problem("5.2")
    target = continuous_energy(p, a, b, alpha=2.0, phi_prime=hump_slope)
    grid = GridSpec(a=a, b=b, M=2000)
    op = FracOperator(2.0, grid)
    e0 = discrete_energy(initial_state(p, grid), op) - quadratization_offset(grid)
    assert e0 == pytest.approx(target, rel=5e-3)


def test_continuous_energy_needs_closed_seminorm():
    with pytest.raises(ValueError):
        continuous_energy(get_problem("5.2"), -20.0, 20.0, alpha=1.5)


def test_w_projection_drift_zero_initially():
    grid = GridSpec(a=-20.0, b=20.0, M=64)
    assert w_projection_drift(initial_state(get_problem("5.2"), grid)) == 0.0


def test_energy_recorder_rows():
    grid = GridSpec(a=-20.0, b=20.0, M=100)
    cfg = SchemeConfig(grid=grid, alpha=1.5, T=0.5, N=5)
    op = FracOperator(cfg.alpha, grid)
    rec = EnergyRecorder(op)
    run(get_problem("5.1"), cfg, observers=(rec,), op=op)
    (rows,) = rec.series  # one order: one series
    assert len(rows) == 6
    assert rows[0][3] == 0.0
    assert [r[0] for r in rows] == list(range(6))
    assert rec.max_relative_drift() <= 1e-10


def test_exact_error_at_initial_time_is_zero():
    grid = GridSpec(a=-20.0, b=20.0, M=50)
    problem = get_problem("5.1", omega=1.1)
    state = initial_state(problem, grid)
    assert np.max(np.abs(problem.exact(grid.interior_nodes(), 0.0) - state.U)) == 0.0


class TestSelfError:
    def test_coincident_node_alignment(self):
        # smooth profile sampled on nested grids differs by zero at shared nodes
        coarse_grid = GridSpec(a=-1.0, b=1.0, M=10)
        fine_grid = GridSpec(a=-1.0, b=1.0, M=20)
        f = np.sin
        err = max_norm_error_self(f(coarse_grid.interior_nodes()),
                                  f(fine_grid.interior_nodes()))
        assert err == 0.0

    def test_detects_mismatched_grids(self):
        with pytest.raises(ValueError):
            max_norm_error_self(np.zeros(9), np.zeros(20))

    def test_rejects_trivial_ratio(self):
        with pytest.raises(ValueError):
            max_norm_error_self(np.zeros(9), np.zeros(9), ratio=1)


def test_orders_on_synthetic_sequence():
    assert orders_from_errors([1.0, 0.25, 0.0625]) == pytest.approx([2.0, 2.0])


def ladder_root(alpha, M, N, **kwargs):
    return SchemeConfig(grid=GridSpec(a=-20.0, b=20.0, M=M), alpha=alpha, T=1.0, N=N, **kwargs)


class TestLadder:
    def test_mode_selection(self):
        assert convergence_ladder(get_problem("5.1"), ladder_root(2.0, 20, 2), 1).mode == "exact"
        assert convergence_ladder(get_problem("5.1"), ladder_root(1.5, 20, 2), 1).mode == "next"
        assert convergence_ladder(get_problem("5.2"), ladder_root(2.0, 20, 2), 1).mode == "next"

    def test_error_estimate_from_the_next_level_matches_the_exact_error(self):
        # alpha = 2 forced into next-level mode: (4/3) times each difference against the
        # exact errors of the same levels
        problem, root = get_problem("5.1", 1.1), ladder_root(2.0, 200, 50)
        exact = convergence_ladder(problem, root, 3)
        forced = convergence_ladder(replace(problem, exact=None), root, 3)
        assert (exact.mode, forced.mode) == ("exact", "next")
        assert [exact.error_estimate(row) for row in exact.rows] == [r.error for r in exact.rows]
        for row, truth in zip(forced.rows, exact.rows):
            assert forced.error_estimate(row) == pytest.approx(truth.error, rel=0.02)
            assert row.error != pytest.approx(truth.error, rel=0.2)  # the difference alone is not

    def test_rejects_nondivisible_mesh(self):
        # the ladder takes whole M and N; step sizes that do not divide are
        # refused where settings become a config (tests/test_cli.py)
        with pytest.raises(ValueError):
            convergence_ladder(get_problem("5.1"), ladder_root(2.0, 80, 2), 0)

    def test_row_structure_and_second_order(self):
        report = convergence_ladder(get_problem("5.1", 1.1), ladder_root(2.0, 80, 10), 2)
        assert [r.order is None for r in report.rows] == [True, False]
        assert report.rows[0].h == 0.5
        assert report.rows[1].h == 0.25
        assert report.rows[1].tau == pytest.approx(0.05)
        assert report.rows[1].error < report.rows[0].error
        assert 1.7 < report.rows[1].order < 2.3

    @pytest.mark.parametrize("alpha, runs", [(2.0, 2), (1.5, 3)])  # self mode: one extra run
    def test_every_level_steps_with_the_config_solve_and_tolerance(self, alpha, runs):
        tolerances = []

        def counting(mat, rhs, setup, **kwargs):
            tolerances.extend(setup.rel_tols)
            return solvers.solve(mat, rhs, setup, **kwargs)

        cfg = ladder_root(alpha, 20, 2, cg_tol=1e-10, solve=counting)
        convergence_ladder(get_problem("5.1"), cfg, 2)
        assert tolerances == [1e-10] * sum(2 * 2 ** lvl for lvl in range(runs))


@pytest.mark.parametrize("call", [
    lambda cfg: convergence_ladder(get_problem("5.1"), cfg, 2),
], ids=["convergence_ladder"])
def test_a_stack_where_one_order_is_taken_is_refused_naming_alpha(call):
    with pytest.raises(ValueError, match=r"one order, got alpha=\(1\.5, 1\.8\)"):
        call(ladder_root((1.5, 1.8), 20, 2))
