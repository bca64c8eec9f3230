"""Discrete fractional Laplacian tests: grid bookkeeping, dense vs FFT
agreement, spectral bounds, the energy seminorm, and the allocator settings
the module makes at import."""

import ctypes
import itertools
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from fracsg import FracOperator, GridSpec, _dense, generate_kernel
from fracsg.presets import PRESETS

from oracles import apply_dense, energy_seminorm_sq


def make_op(alpha=1.7, a=-10.0, b=10.0, M=32):
    return FracOperator(alpha, GridSpec(a=a, b=b, M=M))


class TestGridSpec:
    def test_mesh_and_interior_nodes(self):
        g = GridSpec(a=-2.0, b=2.0, M=8)
        assert g.h == 0.5
        x = g.interior_nodes()
        assert len(x) == 7
        np.testing.assert_allclose(x, np.arange(-1.5, 2.0, 0.5))

    def test_rejects_degenerate_domain(self):
        with pytest.raises(ValueError):
            GridSpec(a=1.0, b=1.0, M=8)
        with pytest.raises(ValueError):
            GridSpec(a=0.0, b=1.0, M=1)

    def test_numpy_integer_subintervals_are_an_int(self):
        g = GridSpec(a=-2.0, b=2.0, M=np.int64(20))
        assert type(g.M) is int and g == GridSpec(a=-2.0, b=2.0, M=20)
        assert np.array_equal(FracOperator(1.5, g).symbol,
                              FracOperator(1.5, GridSpec(a=-2.0, b=2.0, M=20)).symbol)

    @pytest.mark.parametrize("M", [20.5, 20.0, "20", None])
    def test_rejects_subintervals_that_are_not_whole_numbers(self, M):
        with pytest.raises(ValueError, match="M must be a whole number"):
            GridSpec(a=0.0, b=1.0, M=M)


@pytest.mark.parametrize("a, b", [(-np.inf, 20.0), (-20.0, np.inf), (np.nan, 1.0)])
def test_grid_rejects_non_finite_endpoints(a, b):
    with pytest.raises(ValueError, match="need finite domain endpoints"):
        GridSpec(a=a, b=b, M=8)


def test_apply_dense_matches_explicit_summation(rng):
    op = make_op(alpha=1.7, M=32)
    (kernel,), ((scale,),) = op.kernel, op.scale  # its one row's
    u = rng.standard_normal(op.size)
    expected = np.zeros(op.size)
    for i in range(op.size):
        for j in range(op.size):
            expected[i] += kernel[abs(i - j)] * u[j]
    expected *= scale
    np.testing.assert_allclose(apply_dense(op, u), expected, rtol=1e-13, atol=1e-13)


@given(
    M=st.integers(min_value=2, max_value=160),
    alpha=st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_fft_path_equals_dense_path(M, alpha, seed):
    op = make_op(alpha=alpha, M=M)
    u = np.random.default_rng(seed).standard_normal(op.size)
    ref = apply_dense(op, u)
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(op.apply_fft(u) - ref)) <= 1e-12 * scale


def test_operator_is_symmetric(rng):
    op = make_op(alpha=1.4, M=64)
    u = rng.standard_normal(op.size)
    v = rng.standard_normal(op.size)
    h = op.grid.h
    lhs = h * np.dot(op.apply(u), v)
    rhs = h * np.dot(u, op.apply(v))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9, 2.0])
@pytest.mark.parametrize("M", [2, 3, 17, 64])
def test_unscaled_eigenvalues_inside_spectral_bound(alpha, M):
    kernel = generate_kernel(alpha, M - 1)
    eigs = np.linalg.eigvalsh(toeplitz(kernel))
    assert eigs.min() > 0.0
    assert eigs.max() < 2.0 * kernel[0]


def test_classical_operator_is_tridiagonal():
    op = FracOperator(2.0, GridSpec(a=0.0, b=6.0, M=6))
    expected = toeplitz([2.0, -1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(_dense.operator_matrix(op), [expected])  # its one row's


def test_energy_seminorm_matches_quadratic_form(rng):
    op = make_op(alpha=1.6, M=16)
    (alpha,), (kernel,) = op.alpha, op.kernel  # its one row's
    u = rng.standard_normal(op.size)
    C = toeplitz(kernel)
    expected = op.grid.h ** (1.0 - alpha) * float(u @ C @ u)
    assert energy_seminorm_sq(op, u) == pytest.approx(expected, rel=1e-12)
    # SPD quadratic form: equivalently a Cholesky factor norm
    L = np.linalg.cholesky(C)
    expected_chol = op.grid.h ** (1.0 - alpha) * float(np.sum((L.T @ u) ** 2))
    assert energy_seminorm_sq(op, u) == pytest.approx(expected_chol, rel=1e-12)


def test_energy_seminorm_edge_values():
    op = FracOperator(2.0, GridSpec(a=0.0, b=8.0, M=8))
    assert energy_seminorm_sq(op, np.zeros(op.size)) == 0.0
    e1 = np.zeros(op.size)
    e1[0] = 1.0
    assert energy_seminorm_sq(op, e1) == pytest.approx(2.0, rel=1e-14)


def _fast_length(n: int) -> bool:
    """A multiple of 4 whose odd part is 1, 3, 5, 9, 15 or 25."""
    return n % 4 == 0 and n // (n & -n) in (1, 3, 5, 9, 15, 25)


@given(M=st.integers(min_value=2, max_value=20_000))
def test_embedding_size_is_the_shortest_fast_length(M):
    op = FracOperator(1.5, GridSpec(a=0.0, b=1.0, M=M))
    # the circulant holds the Toeplitz column at 2m - 1 points; no shorter length is allowed
    assert op.embed_size == next(n for n in itertools.count(2 * (M - 1) - 1) if _fast_length(n))


def test_rejects_wrong_length_input():
    op = make_op(M=16)
    with pytest.raises(ValueError):
        op.apply(np.zeros(16))


@pytest.mark.parametrize("n", [400, 512, 768, 1024, 1152, 1280, 1600, 1920, 2048, 3200, 4096,
                               6400, 8192, 16384, 32768])
def test_stacked_transforms_equal_the_rows_own_bit_for_bit(rng, n):
    # what stepping orders as one stack rests on; a numpy whose batched
    # pocketfft drifts from its single transforms fails here, not in the CSVs
    for k in range(1, 5):
        u = rng.standard_normal((k, n // 2 - 1))
        spectrum = np.fft.rfft(u, n=n)
        assert np.array_equal(spectrum, np.array([np.fft.rfft(row, n=n) for row in u]))
        back = np.fft.irfft(spectrum, n=n)
        assert np.array_equal(back, np.array([np.fft.irfft(row, n=n) for row in spectrum]))


# interior sizes M - 1 of the presets, their ladders' levels, and perfbench's stiff mesh
PRESET_SIZES = sorted({round((p.b - p.a) / p.h) * 2 ** level - 1
                       for presets in PRESETS.values() for p in presets.values()
                       for level in range(5)} | {15999})


def test_row_dot_equals_np_dot_bit_for_bit(rng):
    # the solver and the energy take each row's dot product in one np.vecdot call, and
    # a row must get np.dot's bits; a numpy whose vecdot drifts from np.dot fails here
    for n in [*range(1, 130), *PRESET_SIZES]:
        for k in range(1, 5):
            a, b = rng.standard_normal((2, k, n))
            assert np.vecdot(a, b).tolist() == [float(np.dot(x, y)) for x, y in zip(a, b)]


def test_operator_stack_applies_each_row_as_its_operator(rng):
    alphas = (1.3, 1.6, 2.0)
    stack = make_op(alphas, M=40)
    u = rng.standard_normal((3, 39))
    rows = [make_op(alpha, M=40) for alpha in alphas]
    assert np.array_equal(stack.apply(u), np.array([op.apply(row) for op, row in zip(rows, u)]))
    # a float order is a stack of one row, which applies to a vector too
    assert rows[0].alpha == (1.3,) and rows[0].kernel.shape == (1, 39)
    assert np.array_equal(rows[0].apply(u[:1]), [rows[0].apply(u[0])])
    part = stack[[0, 2]]  # some rows, from the stack's values
    assert part.alpha == (1.3, 2.0)
    assert np.array_equal(part.apply(u[[0, 2]]), stack.apply(u)[[0, 2]])
    assert np.array_equal(stack[1:2].symbol, rows[1].symbol)
    with pytest.raises(ValueError):
        stack.apply(u[0])


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
def test_repeated_fine_mesh_run_faults_in_no_pages():
    # with glibc's dynamic thresholds the second run faults about 4,800
    # pages in, about 96 for each real FFT of length 32768
    code = """
import resource
import fracsg
cfg = fracsg.SchemeConfig(grid=fracsg.GridSpec(a=-20.0, b=20.0, M=16000), alpha=1.8, T=0.3, N=3)
problem = fracsg.get_problem("5.1", omega=1.1)
fracsg.run(problem, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fracsg.run(problem, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 100
