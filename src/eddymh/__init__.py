"""Multiharmonic edge-element solver for time-periodic eddy current problems.

The package discretizes the periodic eddy current equation (and the optimality
system of a distributed optimal control problem constrained by it) with a
truncated Fourier series in time and lowest-order Nedelec elements in space,
solves the decoupled mode systems with a preconditioned MINRES iteration, and
computes guaranteed, fully computable upper bounds for the discretization
error in the half-derivative space-time seminorm.  The names imported here
are its public API.
"""

from .edge_fem import Coefficients, DofMap, assemble, assemble_load
from .estimator import (
    FluxWorkspace,
    MajorantReport,
    StabilityConstants,
    beta_optimal,
    beta_optimal_ocp,
    efficiency_index,
    majorant_forward,
    majorant_ocp,
    minimize_majorant,
    residuals_forward,
    residuals_ocp,
    stability_constants,
)
from .harmonics import (
    FourierField,
    PeriodSpec,
    fourier_coeff,
    friedrichs_constant,
    remainder,
)
from .mesh import TetMesh, build_box_mesh
from .presets import (
    Benchmark,
    benchmark_errors,
    build_benchmark,
    solve_benchmark,
)
from .systems import (
    SystemMatrices,
    build_forward,
    build_forward0,
    build_ocp,
    build_ocp0,
    minres,
    reconstruct,
    solve_mode,
)

__version__ = "0.1.0"
