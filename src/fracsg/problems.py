"""Benchmark initial-value problems and the classical-case exact solution.

Two standard localized initial conditions are built by get_problem, the only
constructor of a benchmark problem, under the CLI identifiers "5.1" and "5.2":

  5.1  zero displacement with a sech-shaped velocity kick, psi = (4/omega)
       sech(x/omega), omega = 1.1 unless set.  At alpha = 2 the solution is
       the known breather 4 atan(phi(t; omega) sech(x/omega)), which
       Problem.exact returns as the exact-error oracle.
  5.2  a sech-shaped displacement hump at rest, phi = 3.2 sech(x).  It has
       no omega and no exact solution.

Both are solved with a zero exterior, near exact at alpha = 2 only: below,
the kernel's k^{-1-alpha} decay gives algebraic tails.  On fig2's (-40, 40)
to T = 10, the largest |U| at the outermost interior nodes is 6.0e-4 at
alpha 1.3, 3.1e-5 at 1.75, 4.8e-7 at 1.99 and 3.4e-15 at 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def sech(x):
    """Overflow-safe sech: 2 e^{-|x|} / (1 + e^{-2|x|})."""
    e = np.exp(-np.abs(x))
    return 2.0 * e / (1.0 + e * e)


@dataclass(frozen=True)
class Problem:
    key: str
    phi: Callable[[np.ndarray], np.ndarray]
    psi: Callable[[np.ndarray], np.ndarray]
    omega: float | None = None
    exact: Callable[[np.ndarray, float], np.ndarray] | None = None  # (x, t) -> u at alpha = 2


def _zeros(x):
    return np.zeros_like(np.asarray(x, dtype=np.float64))


def get_problem(key: str, omega: float | None = None) -> Problem:
    """Benchmark ``key``'s initial data.  ``omega`` is 5.1's width, 1.1 unless
    set; 5.2 takes none, and refuses one."""
    if key == "5.1":
        omega = 1.1 if omega is None else omega
        if not 0 < omega < np.inf:  # also rejects NaN
            raise ValueError(f"omega must be positive and finite, got {omega}")
        return Problem(key, phi=_zeros, psi=lambda x: (4.0 / omega) * sech(x / omega),
                       omega=omega, exact=lambda x, t: exact_breather(x, t, omega))
    if key == "5.2":
        if omega is not None:
            raise ValueError(f"example 5.2 takes no omega, got omega = {omega}")
        return Problem(key, phi=lambda x: 3.2 * sech(x), psi=_zeros)
    raise ValueError(f"unknown benchmark problem {key!r} (expected 5.1 or 5.2)")


def breather_amplitude(t: float, omega: float) -> float:
    """Time factor phi(t; omega) of the breather, continuous across the three
    omega branches."""
    if not 0 < omega < np.inf:  # also rejects NaN
        raise ValueError(f"omega must be positive and finite, got {omega}")
    if omega > 1.0:
        s = np.sqrt(omega * omega - 1.0)
        return float(np.sin(s * t / omega) / s)
    if omega < 1.0:
        s = np.sqrt(1.0 - omega * omega)
        return float(np.sinh(s * t / omega) / s)
    return float(t)


def exact_breather(x, t: float, omega: float):
    """Classical (alpha = 2) breather 4 atan(phi(t; omega) sech(x/omega));
    exact solution for benchmark 5.1."""
    amp = breather_amplitude(t, omega)
    return 4.0 * np.arctan(amp * sech(np.asarray(x, dtype=np.float64) / omega))
