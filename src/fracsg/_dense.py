"""Dense direct solve of the step system: the reference that ``fracsg bench``
and the tests check and time the FFT-CG solve against.
``SchemeConfig(solve=_dense.solve)`` steps with it."""

from __future__ import annotations

import weakref

import numpy as np

from .operator import FracOperator
from .solvers import SolveStats, StepMatrix, _finite

# Largest system solved: it forms several dense copies, 128 MiB each at this size.
DIRECT_MAX_SIZE = 4096
_MATRICES = weakref.WeakKeyDictionary()  # h^{-alpha} C per operator, so once per run


def check_size(m: int) -> None:
    if m > DIRECT_MAX_SIZE:
        raise ValueError(f"dense direct solve limited to {DIRECT_MAX_SIZE} unknowns, got {m}")


def operator_matrix(op: FracOperator) -> np.ndarray:
    """h^{-alpha} C, the Toeplitz matrix kernel[|i - j|]; kept while op lives."""
    if op not in _MATRICES:
        i = np.arange(op.size)
        _MATRICES[op] = op.scale * op.kernel[np.abs(i[:, None] - i)]
    return _MATRICES[op]


def step_matrix(mat: StepMatrix) -> np.ndarray:
    """M_sys = I + (tau^2/4) h^{-alpha} C + diag(d)."""
    m = (0.25 * mat.tau * mat.tau) * operator_matrix(mat.op) + np.eye(len(mat.diag))
    m[np.diag_indices_from(m)] += mat.diag
    return m


def solve(mat: StepMatrix, rhs: np.ndarray, *_, **__) -> tuple[np.ndarray, SolveStats]:
    """LU solve (numpy.linalg.solve), refactorized every step as d changes with the
    midpoint; takes solvers.solve's arguments, all but the first two unused."""
    check_size(len(mat.diag))
    # a zero rhs: x and the residual 0
    bnorm = _finite(float(np.linalg.norm(rhs)), "right-hand side", mat.op.alpha) or 1.0
    x = np.linalg.solve(step_matrix(mat), rhs)
    return x, SolveStats(iterations=0, residual=float(np.linalg.norm(rhs - mat.matvec(x))) / bnorm)
