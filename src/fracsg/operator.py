"""Fractional centered-difference operator on a uniform grid.

The discrete fractional Laplacian of order ``alpha`` in (1, 2] acts on the
interior values of a homogeneous-Dirichlet grid function as a scaled symmetric
positive-definite Toeplitz matrix.  The matrix action is evaluated through a
circulant embedding and real FFTs in O(M log M); the matrix is never formed.
The embedding length is the shortest of a family of fast FFT lengths
(FAST_ODD_FACTORS) that holds the Toeplitz column.

The kernel's c_0 comes from an extended-precision ln Gamma, so the module
needs no SciPy.  Importing it pins glibc's malloc thresholds
(_pin_malloc_thresholds), so large FFTs reuse their scratch memory.
"""

from __future__ import annotations

import copy
import ctypes
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# 1/2 ln(2 pi) and the Stirling coefficients B_2k / (2k (2k-1)), k = 1..7
# (Abramowitz & Stegun 6.1.40), in extended precision
_HALF_LN_2PI = np.longdouble("0.91893853320467274178032973640561764")
_STIRLING = tuple(np.longdouble(num) / den for num, den in (
    (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360), (1, 156)))


def _ln_gamma(x: np.longdouble) -> np.longdouble:
    """ln Gamma(x) for x > 0 in extended precision: Gamma(x + n) = x (x+1) ..
    (x+n-1) Gamma(x) lifts the argument to 20 or more, where Stirling's series
    through the x^-13 term has a truncation error below 1e-21."""
    product = np.longdouble(1)
    while x < 20:
        product *= x
        x += 1
    inv_sq = 1 / (x * x)
    series = _STIRLING[-1]
    for coeff in reversed(_STIRLING[:-1]):
        series = series * inv_sq + coeff
    return (x - 0.5) * np.log(x) - x + _HALF_LN_2PI + series / x - np.log(product)


def _pin_malloc_thresholds() -> None:
    """Pin glibc's malloc trim and mmap thresholds at 32 MiB, the ceiling of
    its own dynamic mmap threshold; a no-op where the C library has no mallopt.

    Under the dynamic thresholds each real FFT of length 32768 (M = 16000)
    frees scratch above the trim threshold back to the kernel, and the next
    transform faults about 96 fresh pages in: a repeated 10-step run at
    M = 16000 made 12,805 minor page faults with SciPy loaded and 23,413
    without it (glibc 2.36, x86-64).  Pinned, it makes none.  Setting either
    threshold turns the dynamic adjustment off, so both are set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param in (-1, -3):  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD
        mallopt(param, 32 << 20)


_pin_malloc_thresholds()

# Embedding lengths are 2^a q, a >= 2, q one of these.  Over rfft/irfft pairs
# of 320 to 51,200 points, on 1 and 4 rows, each such length took 0.50-0.97x
# the time of the power of two above it; lengths with more odd factors were
# erratic (32,000 = 2^8 5^3 1.15-1.2x and 32,400 1.27x slower than 32,768).
# A multiple of 4 keeps the preconditioner's half-length fold even.
FAST_ODD_FACTORS = (1, 3, 5, 9, 15, 25)


def check_alpha(alpha) -> float:
    """``alpha``, a number or its text, as a float; ValueError unless it lies
    in (1, 2]."""
    alpha = float(alpha)
    if not 1.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (1, 2], got {alpha}")
    return alpha


def _orders(alpha) -> tuple[float, ...]:
    """``alpha``, a number or a nonempty tuple of numbers, as the tuple of its orders."""
    alphas = alpha if isinstance(alpha, tuple) else (alpha,)
    if not alphas or not all(isinstance(a, numbers.Real) for a in alphas):
        raise ValueError(f"alpha must be a number or a nonempty tuple, got {alpha!r}")
    return tuple(map(check_alpha, alphas))


def generate_kernel(alpha: float, length: int) -> np.ndarray:
    """One-sided coefficient sequence c_0 .. c_{length-1} of the fractional
    centered difference of order ``alpha`` (the full stencil is symmetric,
    c_{-k} = c_k).

    c_0 = Gamma(alpha+1) / Gamma(alpha/2+1)^2 comes from _ln_gamma, within
    1 ulp of the exact value; the rest follow the ratio recurrence
    c_{k+1} = c_k (k - alpha/2) / (k + alpha/2 + 1), one cumulative product.
    Both are carried in extended precision so the emitted float64 values stay
    within a few ulps of the exact closed form even for k ~ 1e4; a plain
    float64 recurrence drifts by thousands of ulps over that range.
    """
    check_alpha(alpha)
    if length < 1:
        raise ValueError(f"kernel length must be >= 1, got {length}")
    half = np.longdouble(alpha) / 2
    k = np.arange(length - 1, dtype=np.longdouble)
    factors = np.empty(length, dtype=np.longdouble)
    factors[0] = np.exp(_ln_gamma(2 * half + 1) - 2 * _ln_gamma(half + 1))
    factors[1:] = (k - half) / (k + half + 1)
    return np.cumprod(factors).astype(np.float64)


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
        try:  # a numpy integer as the int it holds
            object.__setattr__(self, "M", operator.index(self.M))
        except TypeError:
            raise ValueError(f"M must be a whole number of subintervals, got {self.M!r}") from None
        if self.M < 2:
            raise ValueError(f"need M >= 2 subintervals, got {self.M}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.M

    def interior_nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(1, self.M)


class FracOperator:
    """Discrete fractional Laplacians h^{-alpha} * C on the interior of a grid, one row
    per order of ``alpha``, a number or a tuple of numbers: a single order is one row.

    C is the symmetric Toeplitz matrix built from the centered-difference
    kernel; its eigenvalues lie in (0, 2 c_0), so the operator is SPD.  The
    FFT path multiplies by a circulant extension of C whose size ``embed_size``
    (also run metadata) is the shortest multiple of 4 of the form 2^a q, q in
    FAST_ODD_FACTORS, that holds it: at least 2(M-1) - 1.  The extension's rfft
    ``symbol`` has real part c_0 + 2 sum_{0<k<M-1} c_k cos(k theta) >= 0, as c_k < 0
    for k > 0.  ``alpha`` is the tuple of the orders, and ``kernel``, ``scale``
    h^{-alpha} and ``symbol`` have a row each; ``op[rows]`` is some rows, not rebuilt.
    """

    def __init__(self, alpha: float | tuple[float, ...], grid: GridSpec):
        self.alpha = _orders(alpha)
        self.grid = grid
        m = self.size = grid.M - 1  # interior nodes
        self.kernel = np.array([generate_kernel(a, m) for a in self.alpha])
        self.scale = np.array([[grid.h ** -a] for a in self.alpha])
        need = 2 * m - 1  # q 2^a >= need, a >= 2, with 2^a the power of two >= ceil(need / q)
        self.embed_size = min(q << max(2, (-(-need // q) - 1).bit_length())
                              for q in FAST_ODD_FACTORS)
        circ = np.zeros((len(self.alpha), self.embed_size))
        circ[:, :m] = self.kernel
        circ[:, self.embed_size - m + 1:] = self.kernel[:, :0:-1]
        self.symbol = np.fft.rfft(circ)  # row by row, each row's own bits

    def __getitem__(self, rows) -> FracOperator:
        part = copy.copy(self)
        part.alpha, part.kernel = tuple(np.array(self.alpha)[rows].tolist()), self.kernel[rows]
        part.scale, part.symbol = self.scale[rows], self.symbol[rows]
        return part

    @staticmethod
    def circulant_product(spectrum: np.ndarray, u: np.ndarray) -> np.ndarray:
        """First u.shape[-1] entries of the circulant of length 2 (spectrum.shape[-1] - 1), or 1,
        with rfft spectrum ``spectrum``, applied to u padded with zeros, row by row."""
        n = 2 * (spectrum.shape[-1] - 1) or 1
        transform = np.fft.rfft(u, n=n)
        transform *= spectrum
        return np.fft.irfft(transform, n=n)[..., :u.shape[-1]]

    def apply_fft(self, u: np.ndarray) -> np.ndarray:
        """Each row's operator on its row of u, (k, M-1), or one row's on a vector u."""
        u = np.asarray(u, dtype=np.float64)
        rows = u if u.ndim > 1 else u[None]  # a one-row operator also takes a vector
        if rows.shape != self.kernel.shape:
            raise ValueError(f"expected shape {self.kernel.shape}, or a vector for one row, "
                             f"got {u.shape}")
        out = self.scale * self.circulant_product(self.symbol, rows)
        return out if rows is u else out[0]

    # one action under both names
    apply = apply_fft
