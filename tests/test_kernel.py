"""Fractional centered-difference coefficient tests."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracsg import generate_kernel


def reference_kernel(alpha: float, length: int, dps: int = 50) -> np.ndarray:
    """High-precision closed form c_k = (-1)^k Gamma(a+1) / (Gamma(a/2-k+1)
    Gamma(a/2+k+1)), evaluated at the binary-exact float64 order (a decimal
    string would describe a slightly different alpha and shift high-k terms
    by several ulps).  rgamma keeps the poles at alpha = 2 finite."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        g = mp.gamma(a + 1)
        vals = [
            (-1) ** k * g * mp.rgamma(a / 2 - k + 1) * mp.rgamma(a / 2 + k + 1)
            for k in range(length)
        ]
        return np.array([float(v) for v in vals])


def reference_recurrence(alpha: float, length: int, dps: int = 50) -> np.ndarray:
    """The kernel's own route, c_0 from the Gamma closed form and then the
    ratio recurrence c_{k+1} = c_k (k - a/2) / (k + a/2 + 1), carried at
    ``dps`` digits."""
    with mp.workdps(dps):
        half = mp.mpf(alpha) / 2
        c = mp.gamma(2 * half + 1) / mp.gamma(half + 1) ** 2
        vals = [c]
        for k in range(length - 1):
            c = c * (k - half) / (k + half + 1)
            vals.append(c)
        return np.array([float(v) for v in vals])


def ulp_distance(x: float, ref: float) -> float:
    if ref == 0.0:
        return 0.0 if x == 0.0 else math.inf
    return abs(x - ref) / np.spacing(abs(ref))


def test_classical_order_is_laplacian_stencil():
    assert np.array_equal(generate_kernel(2.0, 6), [2.0, -1.0, 0.0, 0.0, 0.0, 0.0])


def test_frozen_values_alpha_three_halves():
    c = generate_kernel(1.5, 4)
    expected = [
        1.57378746535479496806,
        -0.6744803422949121291688,
        -0.06131639475408292083352,
        -0.02043879825136097361117,
    ]
    np.testing.assert_allclose(c, expected, rtol=5e-15)


@pytest.mark.parametrize("alpha", [1.05, 1.3, 1.5, 1.75, 1.99])
def test_matches_closed_form_to_a_few_ulps(alpha):
    length = 400
    c = generate_kernel(alpha, length)
    ref = reference_kernel(alpha, length)
    worst = max(ulp_distance(x, r) for x, r in zip(c, ref))
    assert worst <= 4.0, f"alpha={alpha}: worst distance {worst} ulps"


@pytest.mark.parametrize("alpha", [1.05, 1.5, 1.8, 1.99])
def test_long_kernel_stays_within_a_few_ulps(alpha):
    length = 4000
    c = generate_kernel(alpha, length)
    ref = reference_recurrence(alpha, length)
    worst = max(ulp_distance(x, r) for x, r in zip(c, ref))
    assert worst <= 4.0, f"alpha={alpha}: worst distance {worst} ulps"


@given(alpha=st.floats(min_value=1.0, max_value=2.0, exclude_min=True))
def test_leading_coefficient_within_one_ulp(alpha):
    with mp.workdps(50):
        a = mp.mpf(alpha)
        ref = float(mp.gamma(a + 1) / mp.gamma(a / 2 + 1) ** 2)
    assert ulp_distance(generate_kernel(alpha, 1)[0], ref) <= 1.0


def test_leading_coefficient_is_exact_at_classical_order():
    assert generate_kernel(2.0, 1)[0] == 2.0


@given(
    alpha=st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
    length=st.integers(min_value=1, max_value=300),
)
def test_sign_pattern_and_partial_sum_decay(alpha, length):
    c = generate_kernel(alpha, length)
    assert c[0] > 0.0
    assert np.all(c[1:] <= 0.0)
    if alpha < 2.0:
        assert np.all(c[1:] < 0.0)
    # bilateral partial sums c_0 + 2 sum_{k<=K} c_k shrink toward 0 from above
    sums = c[0] + 2.0 * np.concatenate(([0.0], np.cumsum(c[1:])))
    slack = 1e-14 * c[0]
    assert np.all(np.diff(sums) <= slack)
    assert np.all(sums >= -slack)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0000001, 3.0])
def test_rejects_order_outside_range(alpha):
    with pytest.raises(ValueError, match=r"\(1, 2\]"):
        generate_kernel(alpha, 4)


def test_rejects_empty_kernel():
    with pytest.raises(ValueError):
        generate_kernel(1.5, 0)
