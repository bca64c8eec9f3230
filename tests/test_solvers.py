"""Per-step solver tests: CG vs dense factorization, preconditioning,
failure modes, and the dense block-system oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import circulant

from fracsg import (
    FracOperator,
    GridSpec,
    SchemeConfig,
    SolveFailure,
    get_problem,
    run,
)
from fracsg import _dense, scheme, solvers
from fracsg.scheme import b_func
from fracsg.solvers import (StepMatrix, build_circulant_preconditioner, cg_setup,
                            condition_bound, solve)

from oracles import assemble_block_system


def make_step_matrix(M=64, alpha=1.5, tau=0.05, diag_scale=0.1, seed=3):
    op = FracOperator(alpha, GridSpec(a=-10.0, b=10.0, M=M))
    diag = diag_scale * np.random.default_rng(seed).random(op.size)
    return StepMatrix(op=op, tau=tau, diag=diag)


def length_m_preconditioner(op, tau):
    """Reference preconditioner of one operator, so of all its rows: the inverse
    of I plus the Strang circulant wrap of the Toeplitz part (tau^2/4) h^{-alpha} C,
    applied by length-m real DFTs."""
    (col,) = (0.25 * tau * tau * op.scale) * op.kernel
    m = len(col)
    wrap = col.copy()
    ks = np.arange(m // 2 + 1, m)
    wrap[ks] = col[m - ks]
    eigs = np.fft.rfft(wrap).real + 1.0
    return lambda r, rows=...: np.fft.irfft(np.fft.rfft(r, n=m) / eigs, n=m)


def record_transform_lengths(monkeypatch):
    """A list that receives the length of every numpy rfft/irfft call."""
    lengths = []

    def recording(transform):
        def wrapper(a, n=None, *args, **kwargs):
            lengths.append(len(a) if n is None else n)
            return transform(a, n, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "rfft", recording(np.fft.rfft))
    monkeypatch.setattr(np.fft, "irfft", recording(np.fft.irfft))
    return lengths


def test_step_matrix_action_matches_dense(rng):
    mat = make_step_matrix(M=24)
    v = rng.standard_normal(len(mat.diag))
    (dense,) = _dense.step_matrix(mat)  # its one row's
    np.testing.assert_allclose(mat.matvec(v), dense @ v, rtol=1e-12, atol=1e-12)


def test_cg_agrees_with_direct(rng):
    mat = make_step_matrix(M=96)
    rhs = rng.standard_normal(len(mat.diag))
    x_cg, stats_cg = solve(mat, rhs)
    x_dir, stats_dir = _dense.solve(mat, rhs)
    assert np.max(np.abs(x_cg - x_dir)) <= 1e-10
    assert stats_cg.iterations > 0
    assert stats_cg.residual <= 5e-12
    assert stats_dir.iterations == 0


def test_dense_solve_of_a_stack_solves_each_row_as_its_order(rng):
    grid = GridSpec(a=-10.0, b=10.0, M=24)
    alphas = (1.5, 1.8)
    diag, rhs = 0.1 * rng.random((2, grid.M - 1)), rng.standard_normal((2, grid.M - 1))
    x, stats = _dense.solve(StepMatrix(FracOperator(alphas, grid), 0.05, diag), rhs)
    rows = [_dense.solve(StepMatrix(FracOperator(alpha, grid), 0.05, d), b)
            for alpha, d, b in zip(alphas, diag, rhs)]
    assert np.array_equal(x, [row for row, _ in rows])
    assert stats.residual == max(row_stats.residual for _, row_stats in rows)


def test_dense_matrix_is_formed_once_per_operator():
    # a run builds one operator, so bench's direct run forms h^-alpha C once
    op = make_step_matrix(M=16).op
    assert _dense.operator_matrix(op) is _dense.operator_matrix(op)


def test_zero_rhs_short_circuits():
    mat = make_step_matrix(M=16)
    x, stats = solve(mat, np.zeros(len(mat.diag)))
    assert np.array_equal(x, np.zeros(len(mat.diag)))
    assert stats.iterations == 0
    assert stats.residual == 0.0
    # the tolerance is refused with the set-up, before any right-hand side is seen
    with pytest.raises(SolveFailure, match="1e-30 lies below the attainable floor"):
        solve(mat, np.zeros(len(mat.diag)), cg_setup(mat.op, mat.tau, 1e-30))


def test_warm_start_converges_immediately():
    mat = make_step_matrix(M=32)
    rhs = np.ones(len(mat.diag))
    x, _ = solve(mat, rhs)
    _, stats = solve(mat, rhs, x0=x)
    assert stats.iterations == 0


def count_applies(monkeypatch):
    """A list that receives one entry per FracOperator.apply call."""
    calls = []
    apply = FracOperator.apply

    def counting(self, u):
        calls.append(1)
        return apply(self, u)

    monkeypatch.setattr(FracOperator, "apply", counting)
    return calls


@pytest.mark.parametrize("min_bound", [math.inf, 0.0], ids=["plain", "circulant"])
def test_start_product_replaces_the_initial_matvec(rng, monkeypatch, min_bound):
    monkeypatch.setattr(solvers, "CIRCULANT_MIN_BOUND", min_bound)
    mat = make_step_matrix(M=128, tau=0.3)
    rhs = rng.standard_normal(len(mat.diag))
    x0 = rng.standard_normal(len(mat.diag))
    x0_product = mat.op.apply(x0)
    calls = count_applies(monkeypatch)
    x_matvec, by_matvec = solve(mat, rhs, x0=x0)
    matvec_calls = len(calls)
    calls.clear()
    x_product, by_product = solve(mat, rhs, x0=x0, x0_product=x0_product)
    assert by_product.iterations == by_matvec.iterations > 0
    assert np.max(np.abs(x_product - x_matvec)) <= 1e-13
    assert len(calls) == matvec_calls - 1
    assert by_product.residual <= 1e-12


def test_true_residual_does_not_trust_the_start_product(rng):
    mat = make_step_matrix(M=128, tau=0.3)
    rhs = rng.standard_normal(len(mat.diag))
    x0 = rng.standard_normal(len(mat.diag))
    # CG converges for the residual it was given, so only the true residual
    # shows that the supplied product was wrong
    _, stats = solve(mat, rhs, x0=x0, x0_product=1.01 * mat.op.apply(x0))
    assert stats.residual > 1e-6


def test_unconvergeable_solve_fails_within_derived_cap(rng, monkeypatch):
    mat = make_step_matrix(M=64)
    (bound,) = condition_bound(mat.op, mat.tau)
    cap = solvers.CG_CAP_FACTOR * math.ceil(0.5 * math.sqrt(bound) * math.log(2.0 / 1e-12))
    rhs = rng.standard_normal(len(mat.diag))
    # a skew part, which CG cannot handle, makes the solve diverge
    matvecs = []
    spd = StepMatrix.matvec

    def skewed(self, v):
        matvecs.append(1)
        return spd(self, v) + 0.5 * (np.roll(v, 1) - np.roll(v, -1))

    monkeypatch.setattr(StepMatrix, "matvec", skewed)
    # a tolerance below eps times the bound is refused before any matvec
    with pytest.raises(SolveFailure, match=r"1e-30 lies below the attainable floor 2\.2\de-16"):
        solve(mat, rhs, cg_setup(mat.op, mat.tau, 1e-30))
    assert matvecs == []
    assert cap == 30
    with pytest.raises(SolveFailure,
                       match=rf"cap of {cap} iterations at condition bound 1\.01\d* \(residual"):
        solve(mat, rhs, cg_setup(mat.op, mat.tau, 1e-12))
    assert len(matvecs) == cap + 1  # the initial residual, then one per iteration


@pytest.mark.parametrize("tau", [0.3, 1.0, 3.0, 10.0])
def test_default_tolerance_above_its_ceiling_is_refused(tau):
    # alpha 2, h = 2e-7, M = 10,000: condition bounds 2.3e12 to 2.5e15, where
    # 10 eps kappa would be 5e-3 to 5.5
    op = FracOperator(2.0, GridSpec(a=-0.001, b=0.001, M=10000))
    (bound,) = condition_bound(op, tau)
    named = f"condition bound {bound:.4g} at h=2e-07, tau={tau:g}) exceeds its ceiling 1e-08"
    with pytest.raises(SolveFailure, match=re.escape(named)):
        cg_setup(op, tau)
    # an explicit tolerance is refused only below eps kappa
    assert cg_setup(op, tau, 0.9).rel_tols == (0.9,)


def test_rhs_length_mismatch():
    mat = make_step_matrix(M=16)
    with pytest.raises(ValueError):
        solve(mat, np.zeros(4))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cg_tol": 0.0},
        {"cg_tol": 1.0},
        {"cg_tol": math.nan},
        {"alpha": ()},
        {"alpha": [1.5, 1.6]},
        {"N": 2.5},
    ],
)
def test_config_validation(kwargs):
    (field,) = kwargs  # the message names the malformed field
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        SchemeConfig(grid=GridSpec(a=-1.0, b=1.0, M=8), **{"alpha": 1.5, "T": 1.0, "N": 10,
                                                          **kwargs})


def test_circulant_preconditioner_exists_for_step_matrix():
    mat = make_step_matrix(M=8)
    pre = build_circulant_preconditioner(mat.op, mat.tau)
    assert pre is not None
    r = np.ones((1, 7))  # one row per row of the operator
    assert pre(r).shape == (1, 7)


@given(alpha=st.floats(1.0, 2.0, exclude_min=True), M=st.integers(2, 64),
       h=st.floats(1e-3, 1.0), tau=st.floats(1e-3, 2.0), seed=st.integers(0, 2**32 - 1))
def test_preconditioner_is_leading_block_of_embedding_inverse(alpha, M, h, tau, seed):
    op = FracOperator(alpha, GridSpec(a=0.0, b=M * h, M=M))
    rng = np.random.default_rng(seed)
    mat = StepMatrix(op=op, tau=tau, diag=rng.uniform(0.0, tau * tau / 8.0, op.size))
    m, n = op.size, op.embed_size
    (kernel,), ((scale,),) = op.kernel, op.scale  # its one row's
    # the circulant embedding of C, built from the kernel: c_0..c_{m-1},
    # zeros, then c_{m-1}..c_1, folded modulo half its length
    col = np.zeros(n)
    col[:m] = kernel
    col[n - m + 1:] = kernel[1:][::-1]
    fold = col[:n // 2] + col[n // 2:]
    inverse = np.linalg.inv(np.eye(n // 2) + (0.25 * tau * tau * scale) * circulant(fold))
    r = rng.standard_normal((1, m))
    z = build_circulant_preconditioner(op, tau)(r)
    assert z.shape == (1, m)
    assert np.max(np.abs(z[0] - inverse[:m, :m] @ r[0])) <= 1e-12 * np.linalg.norm(r)


def test_preconditioned_solve_transforms_at_embedding_length(rng, monkeypatch):
    mat = make_step_matrix(M=390, tau=0.7)  # m = 389 is prime
    m, embed = mat.op.size, mat.op.embed_size
    lengths = record_transform_lengths(monkeypatch)
    monkeypatch.setattr(solvers, "CIRCULANT_MIN_BOUND", 0.0)
    _, stats = solve(mat, rng.standard_normal(m))
    assert stats.iterations > 0
    # matvecs (the initial and true residuals, one per iteration) transform
    # at the embedding length, the preconditioner at half of it, none at m
    assert lengths.count(m) == 0
    assert lengths.count(embed) == 2 * (stats.iterations + 2)
    assert lengths.count(embed // 2) == 2 * stats.iterations
    assert set(lengths) == {embed, embed // 2}


@pytest.mark.parametrize("warm", [False, True])
def test_preconditioner_runs_once_per_iteration(rng, monkeypatch, warm):
    mat = make_step_matrix(M=390, tau=0.7)
    rhs = rng.standard_normal(len(mat.diag))
    monkeypatch.setattr(solvers, "CIRCULANT_MIN_BOUND", 0.0)
    x0 = solve(mat, rhs)[0] if warm else None
    applied, build = [], solvers.build_circulant_preconditioner

    def counting_build(op, tau):
        pre = build(op, tau)
        return lambda *args: applied.append(1) or pre(*args)

    monkeypatch.setattr(solvers, "build_circulant_preconditioner", counting_build)
    _, stats = solve(mat, rhs, x0=x0)
    # a converged residual, the last one or a warm start's, is not preconditioned
    assert len(applied) == stats.iterations
    assert (stats.iterations == 0) == warm


@pytest.mark.parametrize("N", [2, 10])
def test_stiff_run_transforms_at_length_m_at_most_twice(N, monkeypatch):
    cfg = SchemeConfig(grid=GridSpec(a=-20.0, b=20.0, M=4000), alpha=1.8, T=0.2 * N, N=N)
    assert cg_setup(FracOperator(cfg.alpha, cfg.grid), 0.2).preconditioned == (True,)
    lengths = record_transform_lengths(monkeypatch)
    result = run(get_problem("5.1"), cfg)
    assert result.steps == N
    # the matvecs transform at the embedding length, the preconditioner at
    # half of it, and none at length m
    assert lengths.count(cfg.grid.M - 1) == 0


def test_stiff_run_matches_length_m_preconditioner(monkeypatch):
    cfg = SchemeConfig(grid=GridSpec(a=-20.0, b=20.0, M=4000), alpha=1.8, T=1.0, N=5)
    op = FracOperator(cfg.alpha, cfg.grid)
    assert cg_setup(op, cfg.T / cfg.N).preconditioned == (True,)
    iterations = []

    def recording_solve(*args, **kwargs):
        x, stats = solve(*args, **kwargs)
        iterations.append(stats.iterations)
        return x, stats

    monkeypatch.setattr(scheme, "solve", recording_solve)
    embedded = run(get_problem("5.1"), cfg)
    embedded_iterations = iterations.copy()
    iterations.clear()
    monkeypatch.setattr(solvers, "build_circulant_preconditioner", length_m_preconditioner)
    strang = run(get_problem("5.1"), cfg)
    assert len(embedded_iterations) == len(iterations) == cfg.N
    assert all(a <= b for a, b in zip(embedded_iterations, iterations))
    for name in ("U", "V", "W"):
        assert np.max(np.abs(getattr(embedded.state, name) - getattr(strang.state, name))) <= 1e-10


def test_preconditioner_never_increases_iterations(rng, monkeypatch):
    mat = make_step_matrix(M=256, tau=0.2)
    rhs = rng.standard_normal(len(mat.diag))
    monkeypatch.setattr(solvers, "CIRCULANT_MIN_BOUND", math.inf)
    _, plain = solve(mat, rhs)
    monkeypatch.setattr(solvers, "CIRCULANT_MIN_BOUND", 0.0)
    _, pre = solve(mat, rhs)
    assert pre.iterations <= plain.iterations


@given(alpha=st.floats(1.0, 2.0, exclude_min=True), M=st.integers(3, 64),
       h=st.floats(1e-3, 1.0), tau=st.floats(1e-3, 2.0), seed=st.integers(0, 2**32 - 1))
def test_condition_bound_and_preconditioner_spectrum(alpha, M, h, tau, seed):
    op = FracOperator(alpha, GridSpec(a=0.0, b=M * h, M=M))
    rng = np.random.default_rng(seed)
    mat = StepMatrix(op=op, tau=tau, diag=rng.uniform(0.0, tau * tau / 8.0, op.size))
    (eigs,) = np.linalg.eigvalsh(_dense.step_matrix(mat))  # of its one row
    assert eigs[-1] / eigs[0] <= condition_bound(op, tau)[0]
    r = rng.standard_normal((1, op.size))
    z = build_circulant_preconditioner(op, tau)(r)
    assert float(np.dot(r[0], z[0])) > 0.0
    assert np.linalg.norm(z) <= np.linalg.norm(r) * (1.0 + 1e-12)


@pytest.mark.parametrize("where, bad, named", [
    ("rhs", np.nan, "right-hand side"),
    ("rhs", np.inf, "right-hand side"),
    ("x0", np.nan, "residual"),
])
def test_non_finite_data_raises(where, bad, named):
    mat = make_step_matrix(M=16)
    data = {"rhs": np.ones(len(mat.diag)), "x0": np.zeros(len(mat.diag))}
    data[where][3] = bad
    with pytest.raises(SolveFailure, match=rf"non-finite {named} \(norm \S+\) for alpha=1\.5$"):
        solve(mat, data["rhs"], x0=data["x0"])


@pytest.mark.parametrize("where, named", [("rhs", "right-hand side"), ("x0", "residual")])
def test_non_finite_data_in_a_stack_names_its_order(where, named):
    grid = GridSpec(a=-10.0, b=10.0, M=16)
    stack = FracOperator((1.3, 1.6, 2.0), grid)
    mat = StepMatrix(stack, 0.05, np.zeros((3, stack.size)))
    data = {"rhs": np.ones((3, stack.size)), "x0": np.zeros((3, stack.size))}
    data[where][1, 3] = np.nan
    with pytest.raises(SolveFailure, match=rf"non-finite {named} \(norm nan\) for alpha=1\.6$"):
        solve(mat, data["rhs"], x0=data["x0"])


class TestBlockSystem:
    def setup_method(self):
        self.op = FracOperator(1.5, GridSpec(a=-20.0, b=20.0, M=8))
        self.m = self.op.size

    def test_zero_state_is_stationary(self):
        tau = 0.1
        U = np.zeros(self.m)
        V = np.zeros(self.m)
        W = np.ones(self.m)  # sqrt(2 - cos 0)
        block, rhs = assemble_block_system(self.op, tau, b_func(U), U, V, W)
        mid = np.linalg.solve(block, rhs)
        np.testing.assert_allclose(mid, np.concatenate((U, V, W)), atol=1e-14)

    def test_symmetric_part_positive_definite(self, rng):
        # unique solvability: the symmetrized block matrix is PD for this
        # coarse-grid setting
        bvec = b_func(rng.standard_normal(self.m))
        block, _ = assemble_block_system(self.op, 0.1, bvec,
                                         np.zeros(self.m), np.zeros(self.m), np.ones(self.m))
        sym = 0.5 * (block + block.T)
        assert np.linalg.eigvalsh(sym).min() > 0.0

    def test_skew_part_structure(self):
        # the velocity coupling terms sit in the skew-symmetric part
        bvec = np.full(self.m, 0.5)
        block, _ = assemble_block_system(self.op, 0.1, bvec,
                                         np.zeros(self.m), np.zeros(self.m), np.ones(self.m))
        skew = 0.5 * (block - block.T)
        np.testing.assert_allclose(skew, -skew.T, atol=1e-15)
        # U/V coupling: -(tau/2) I above, +(tau/2) A below -> skew blocks nonzero
        assert np.any(skew[: self.m, self.m: 2 * self.m] != 0.0)

    def test_size_guard(self):
        big = FracOperator(1.5, GridSpec(a=-20.0, b=20.0, M=200))
        z = np.zeros(big.size)
        with pytest.raises(ValueError, match="128"):
            assemble_block_system(big, 0.1, z, z, z, z)

