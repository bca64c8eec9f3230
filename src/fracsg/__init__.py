"""Structure-preserving solver for the space-fractional sine-Gordon equation.

A linearly implicit Crank-Nicolson scheme built on invariant energy
quadratization: each time step solves one symmetric positive definite
Toeplitz-plus-diagonal system by conjugate gradients with FFT matrix-vector
products, and conserves a discrete quadratic energy to solver precision.
"""

from .diagnostics import EnergyRecorder, convergence_ladder, discrete_energy
from .operator import FracOperator, GridSpec, generate_kernel
from .problems import get_problem
from .scheme import SchemeConfig, cn_step, initial_state, run, startup_step
from .solvers import NumericalFailure, SolveFailure

__version__ = "0.1.0"
