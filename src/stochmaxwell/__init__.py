"""Numerical laboratory for recovering the strength of a white-noise current
source in the time-harmonic Maxwell system from tangential boundary traces.

The pipeline: free-space dyadic Green convolution and a Lippmann-Schwinger
volume solver (forward problem), a spherical capacity operator turning
boundary traces into volume pairings, complex-geometric-optics test solutions
that isolate Fourier modes of the source strength through the Ito isometry,
and a regularized Fourier synthesis whose accuracy is logarithmic in the
measured data size.
"""

from .geometry import (
    Bump,
    ConfigurationError,
    Grid3,
    MediumSpec,
    SourceStrength,
    SphereMesh,
)
from .greens import FreeConvolver, dyadic_green, helmholtz_g
from .forward import MaxwellSolver, SolverError
from .sphharm import VshBasis
from .capacity import CapacityOperator
from .ensemble import generate_ensemble, read_ensemble, write_ensemble
from .cgo import CgoSolution, build_zeta_eta, solve_cgo_remainder
from .reconstruct import (
    ReconstructionResult,
    measure_epsilon,
    reconstruct_sigma,
    select_parameters,
    stability_sweep,
)
from .config import ExperimentConfig

__version__ = "0.1.0"

__all__ = [
    "Bump",
    "ConfigurationError",
    "Grid3",
    "MediumSpec",
    "SourceStrength",
    "SphereMesh",
    "FreeConvolver",
    "dyadic_green",
    "helmholtz_g",
    "MaxwellSolver",
    "SolverError",
    "VshBasis",
    "CapacityOperator",
    "generate_ensemble",
    "read_ensemble",
    "write_ensemble",
    "CgoSolution",
    "build_zeta_eta",
    "solve_cgo_remainder",
    "ReconstructionResult",
    "measure_epsilon",
    "reconstruct_sigma",
    "select_parameters",
    "stability_sweep",
    "ExperimentConfig",
    "__version__",
]
