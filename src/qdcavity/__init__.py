"""Truncated-hierarchy dynamics of a pumped emitter-cavity system.

Integrates the coupled equations of motion for carrier occupations, photon
number, photon-assisted polarization and the two-particle correlation
corrections; derives single-photon figures of merit (photon number, two-
photon expectation, g2(0), output rate); cross-validates against an exact
Lindblad reference on a truncated Fock space; and sweeps cavity decay,
coupling and pump grids deterministically.
"""

from .dynamics import (
    TOGGLE_VARIANTS,
    CorrelationToggles,
    DynamicState,
    make_rhs,
    two_photon_expectation,
)
from .errors import (
    ConfigError,
    MalformedSteadyState,
    NonFiniteState,
    NotConverged,
    OracleError,
    SingularSteadyState,
    SolverError,
    StiffnessFailure,
    TruncationTooSmall,
    ValidationError,
)
from .model import (
    REFERENCE_COUPLING_RAD_PER_PS,
    ModelParams,
    ReferenceRabi,
    coupling_strength,
    default_params,
)
from .observables import (
    PHOTON_FLOOR,
    Observables,
    observables_of,
)
from .oracle import (
    DensityMatrix,
    HilbertSpace,
    build_liouvillian,
    oracle_steady_observables,
    steady_observables_auto,
)
from .solver import (
    IntegrationConfig,
    PhysicalRangeWarning,
    Trajectory,
    integrate,
    settling_trajectory,
    steady_state,
)
from .sweep import (
    SweepGrid,
    SweepRecord,
    SweepTable,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CorrelationToggles",
    "DensityMatrix",
    "DynamicState",
    "HilbertSpace",
    "IntegrationConfig",
    "MalformedSteadyState",
    "ModelParams",
    "NonFiniteState",
    "NotConverged",
    "Observables",
    "OracleError",
    "PHOTON_FLOOR",
    "PhysicalRangeWarning",
    "REFERENCE_COUPLING_RAD_PER_PS",
    "ReferenceRabi",
    "SingularSteadyState",
    "SolverError",
    "StiffnessFailure",
    "SweepGrid",
    "SweepRecord",
    "SweepTable",
    "TOGGLE_VARIANTS",
    "Trajectory",
    "TruncationTooSmall",
    "ValidationError",
    "build_liouvillian",
    "coupling_strength",
    "default_params",
    "integrate",
    "make_rhs",
    "observables_of",
    "oracle_steady_observables",
    "run_sweep",
    "settling_trajectory",
    "steady_observables_auto",
    "steady_state",
    "two_photon_expectation",
]
