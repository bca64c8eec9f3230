"""Reference implementations the tests check the package against.

Each one computes a quantity the package computes by a faster or reduced
route, from the definitions directly: the operator by direct summation, a
time step as the unreduced block system, and the continuous energy by
quadrature.  Small sizes only.
"""

import numpy as np
from scipy.integrate import quad

from fracsg.problems import sech


def apply_dense(op, u):
    """O(M^2) direct-summation action of ``op`` on u; FFT-free oracle for
    ``op.apply_fft``."""
    m = op.size
    sym = np.concatenate((op.kernel[:0:-1], op.kernel))
    return op.scale * np.convolve(np.asarray(u, dtype=np.float64), sym)[m - 1:2 * m - 1]


def energy_seminorm_sq(op, u):
    """h^{1-alpha} u^T C u, the squared discrete fractional seminorm, as
    h (op.apply(u), u); the form of the energy's seminorm term."""
    return op.grid.h * float(np.dot(op.apply(u), u))


def assemble_block_system(op, tau, bvec, U_n, V_n, W_n, size_guard=128):
    """Dense 3(M-1) block system for the midpoint unknowns (U, V, W)^{n+1/2}.

    Built directly from the three stepping equations, so solving it is an
    independent oracle for the Schur-reduced step:

        U_mid - (tau/2) V_mid                          = U^n
        (tau/2) A U_mid + V_mid + (tau/2) diag(b) W_mid = V^n
        -(tau/2) diag(b) V_mid + 2 W_mid                = 2 W^n

    with A the dense fractional operator.  Small sizes only (dense O(M^2)).
    """
    m = op.size
    if m > size_guard:
        raise ValueError(f"block assembly limited to {size_guard} interior nodes, got {m}")
    I = np.eye(m)
    A = op.dense_matrix()
    B = np.diag(bvec)
    half = 0.5 * tau
    top = np.hstack((I, -half * I, np.zeros((m, m))))
    mid = np.hstack((half * A, I, half * B))
    bot = np.hstack((np.zeros((m, m)), -half * B, 2.0 * I))
    block = np.vstack((top, mid, bot))
    rhs = np.concatenate((U_n, V_n, 2.0 * W_n))
    return block, rhs


def hump_slope(x):
    """d/dx of benchmark 5.2's displacement 3.2 sech(x)."""
    return -3.2 * sech(x) * np.tanh(x)


def quadratization_offset(grid):
    """Constant shift between the discrete quadratized energy and the
    continuous physical energy: w^2 = 1 + (1 - cos u) contributes h per
    interior node."""
    return grid.h * (grid.M - 1)


def continuous_energy(problem, a, b, alpha, phi_prime=None):
    """Quadrature of the continuous energy 1/2 int (psi^2 + seminorm term +
    2(1 - cos phi)) for the cases with a closed seminorm term: identically
    zero initial displacement (any alpha), or alpha = 2 with ``phi_prime``
    the analytic derivative of the displacement."""
    probe = np.linspace(a, b, 1001)
    kinetic = 0.5 * quad(lambda x: float(problem.psi(x)) ** 2, a, b, limit=200)[0]
    if not np.any(problem.phi(probe)):
        return kinetic
    if alpha == 2.0 and phi_prime is not None:
        grad = 0.5 * quad(lambda x: float(phi_prime(x)) ** 2, a, b, limit=200)[0]
        pot = quad(lambda x: 1.0 - np.cos(float(problem.phi(x))), a, b, limit=200)[0]
        return kinetic + grad + pot
    raise ValueError(
        "continuous energy quadrature needs either zero initial displacement "
        "or alpha = 2 with an analytic displacement derivative")
