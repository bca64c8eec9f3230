"""Benchmark initial-value problems and the classical-case exact solution.

Two standard localized initial conditions are provided, addressed by the CLI
identifiers "5.1" and "5.2":

  5.1  zero displacement with a sech-shaped velocity kick, psi = (4/omega)
       sech(x/omega).  At alpha = 2 the solution is the known breather
       4 atan(phi(t; omega) sech(x/omega)), which serves as the exact-error
       oracle.
  5.2  a sech-shaped displacement hump at rest, phi = 3.2 sech(x).

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
    has_exact: bool = False


def sech_velocity_kick(omega: float = 1.1) -> Problem:
    """Benchmark 5.1: u(x,0) = 0, u_t(x,0) = (4/omega) sech(x/omega)."""
    if not 0 < omega < np.inf:  # also rejects NaN
        raise ValueError(f"omega must be positive and finite, got {omega}")
    return Problem(
        key="5.1",
        phi=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
        psi=lambda x: (4.0 / omega) * sech(x / omega),
        omega=omega,
        has_exact=True,
    )


def sech_hump_at_rest() -> Problem:
    """Benchmark 5.2: u(x,0) = 3.2 sech(x), u_t(x,0) = 0."""
    return Problem(
        key="5.2",
        phi=lambda x: 3.2 * sech(x),
        psi=lambda x: np.zeros_like(np.asarray(x, dtype=np.float64)),
    )


def get_problem(key: str, omega: float = 1.1) -> Problem:
    if key == "5.1":
        return sech_velocity_kick(omega)
    if key == "5.2":
        return sech_hump_at_rest()
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
