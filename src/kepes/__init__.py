"""Finite-volume laboratory for 1-D compressible Euler/Navier-Stokes flow.

Kinetic-energy-preserving and entropy-conservative two-point fluxes with
scalar (JST) and entropy-variable matrix dissipation, MUSCL reconstruction,
SSP-RK3 time stepping, and diagnostics that verify the discrete
kinetic-energy and entropy budgets.
"""

from .config import InitialCondition, ProblemConfig, parse_config, serialize_config
from .dissipation import DissipationSpec
from .presets import list_presets, preset
from .reconstruction import ReconSpec
from .spatial import BoundaryCondition, BoundarySpec, Grid1D
from .thermo import GasModel, PrimState, ViscosityLaw
from .timeint import TimeSpec

__version__ = "0.1.0"

__all__ = [
    "BoundaryCondition",
    "BoundarySpec",
    "DissipationSpec",
    "GasModel",
    "Grid1D",
    "InitialCondition",
    "PrimState",
    "ProblemConfig",
    "ReconSpec",
    "TimeSpec",
    "ViscosityLaw",
    "list_presets",
    "parse_config",
    "preset",
    "serialize_config",
    "__version__",
]
