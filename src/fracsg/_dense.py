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
    """h^{-alpha} C of each row, Toeplitz matrices kernel[|i - j|]; kept while op lives."""
    if op not in _MATRICES:
        i = np.arange(op.size)
        _MATRICES[op] = op.scale[:, :, None] * op.kernel[:, np.abs(i[:, None] - i)]
    return _MATRICES[op]


def step_matrix(mat: StepMatrix) -> np.ndarray:
    """M_sys = I + (tau^2/4) h^{-alpha} C + diag(d) of each row, (k, M-1, M-1)."""
    m = (0.25 * mat.tau * mat.tau) * operator_matrix(mat.op) + np.eye(mat.op.size)
    i = np.arange(mat.op.size)
    m[:, i, i] += mat.diag
    return m


def solve(mat: StepMatrix, rhs: np.ndarray, *_, **__) -> tuple[np.ndarray, SolveStats]:
    """LU solve (numpy.linalg.solve) of each row's system, refactorized every step as d changes
    with the midpoint; takes solvers.solve's arguments, all but the first two unused."""
    check_size(mat.op.size)
    b = np.reshape(rhs, (len(mat.op.alpha), mat.op.size))  # one row may come as a vector
    bnorms = [_finite(v, "right-hand side", a) or 1.0  # a zero rhs: x and the residual 0
              for v, a in zip(np.sqrt(np.vecdot(b, b)).tolist(), mat.op.alpha)]
    x = np.linalg.solve(step_matrix(mat), b[..., None])[..., 0]
    res = b - mat.matvec(x)
    return x.reshape(np.shape(rhs)), SolveStats(iterations=0, residual=max(
        v / bnorm for v, bnorm in zip(np.sqrt(np.vecdot(res, res)).tolist(), bnorms)))
