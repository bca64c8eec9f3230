"""Fractional centered-difference operator on a uniform grid.

The discrete fractional Laplacian of order ``alpha`` in (1, 2] acts on the
interior values of a homogeneous-Dirichlet grid function as a scaled symmetric
positive-definite Toeplitz matrix.  The matrix action is evaluated through a
power-of-two circulant embedding and real FFTs in O(M log M); the dense matrix
is formed only for the direct solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


def generate_kernel(alpha: float, length: int) -> np.ndarray:
    """One-sided coefficient sequence c_0 .. c_{length-1} of the fractional
    centered difference of order ``alpha`` (the full stencil is symmetric,
    c_{-k} = c_k).

    c_0 comes from the log-Gamma closed form exp(lnGamma(alpha+1) -
    2 lnGamma(alpha/2+1)); the remaining terms follow the ratio recurrence
    c_{k+1} = c_k (k - alpha/2) / (k + alpha/2 + 1).  The recurrence is
    carried in extended precision so the emitted float64 values stay within
    a few ulps of the exact closed form even for k ~ 1e4; a plain float64
    recurrence drifts by thousands of ulps over that range.
    """
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    if length < 1:
        raise ValueError(f"kernel length must be >= 1, got {length}")
    half = np.longdouble(alpha) / 2.0
    c = np.empty(length, dtype=np.longdouble)
    c[0] = np.exp(gammaln(alpha + 1.0) - 2.0 * gammaln(alpha / 2.0 + 1.0))
    for k in range(length - 1):
        c[k + 1] = c[k] * (k - half) / (k + half + 1.0)
    return c.astype(np.float64)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on (a, b) with M subintervals; unknowns live at the M-1
    interior nodes, boundary values are identically zero."""

    a: float
    b: float
    M: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.b > self.a):
            raise ValueError(f"need finite domain endpoints a < b, got ({self.a}, {self.b})")
        if self.M < 2:
            raise ValueError(f"need M >= 2 subintervals, got {self.M}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.M

    def interior_nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.M)


def subdivisions(span: float, step: float, what: str) -> int:
    """The whole number of steps of size ``step`` in ``span``; ValueError
    naming the setting ``what`` when there is none (up to rounding)."""
    count = span / step
    if not np.isfinite(count) or abs(count - round(count)) > 1e-9 * max(1.0, abs(count)):
        raise ValueError(f"{what}={step} does not divide {span} into whole steps")
    return round(count)


class FracOperator:
    """Discrete fractional Laplacian h^{-alpha} * C on the interior of a grid.

    C is the symmetric Toeplitz matrix built from the centered-difference
    kernel; its eigenvalues lie in (0, 2 c_0), so the operator is SPD.  The
    FFT path multiplies by a circulant extension of C whose size is the
    smallest power of two >= 2(M-1); the embedding size is exposed as
    ``embed_size`` for run metadata.  The extension's rfft ``symbol`` has
    real part c_0 + 2 sum_{0<k<M-1} c_k cos(k theta) >= 0, as c_k < 0 for k > 0.
    """

    def __init__(self, alpha: float, grid: GridSpec):
        self.alpha = float(alpha)
        self.grid = grid
        self.kernel = generate_kernel(alpha, grid.M - 1)
        self.scale = grid.h ** (-self.alpha)
        m = grid.M - 1
        self.embed_size = 1 << (2 * m - 1).bit_length()
        circ = np.zeros(self.embed_size)
        circ[:m] = self.kernel
        circ[self.embed_size - m + 1:] = self.kernel[1:][::-1]
        self.symbol = np.fft.rfft(circ)
        self._dense: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.grid.M - 1

    def dense_matrix(self) -> np.ndarray:
        """Materialized h^{-alpha} C; cached, only for factorization and
        small-size eigenvalue checks."""
        if self._dense is None:
            from scipy.linalg import toeplitz  # here, so importing fracsg does not load it
            self._dense = self.scale * toeplitz(self.kernel)
        return self._dense

    def _check(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if u.shape != (self.size,):
            raise ValueError(f"expected interior vector of length {self.size}, got shape {u.shape}")
        return u

    def circulant_product(self, spectrum: np.ndarray, u: np.ndarray) -> np.ndarray:
        """First M-1 entries of the embed_size circulant with rfft spectrum
        ``spectrum`` applied to u padded with zeros."""
        conv = np.fft.irfft(np.fft.rfft(u, n=self.embed_size) * spectrum, n=self.embed_size)
        return conv[:self.size]

    def apply_fft(self, u: np.ndarray) -> np.ndarray:
        return self.scale * self.circulant_product(self.symbol, self._check(u))

    # the scheme always goes through the fast path
    apply = apply_fft

    def energy_seminorm_sq(self, u: np.ndarray) -> float:
        """h^{1-alpha} u^T C u, the squared discrete fractional seminorm.

        Computed as h * (applied operator, u) without any Cholesky factor;
        nonnegative, zero only at u = 0.
        """
        u = self._check(u)
        return self.grid.h * float(np.dot(self.apply_fft(u), u))
