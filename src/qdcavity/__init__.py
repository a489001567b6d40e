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
    rhs,
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
    VacuumUndefined,
    ValidationError,
)
from .model import (
    CONSTANTS,
    REFERENCE_COUPLING_RAD_PER_PS,
    REFERENCE_GEOMETRY,
    CavityGeometry,
    ModelParams,
    PhysicalConstants,
    ReferenceRabi,
    coupling_strength,
    default_params,
    mode_volume_cubic,
    validate,
)
from .observables import (
    PHOTON_FLOOR,
    Observables,
    g2_zero,
    observables_of,
    output_rate,
)
from .oracle import (
    DensityMatrix,
    HilbertSpace,
    build_hamiltonian,
    build_liouvillian,
    oracle_steady_observables,
    steady_observables_auto,
)
from .solver import (
    IntegrationConfig,
    PhysicalRangeWarning,
    Trajectory,
    integrate,
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
    "CONSTANTS",
    "CavityGeometry",
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
    "PhysicalConstants",
    "PhysicalRangeWarning",
    "REFERENCE_COUPLING_RAD_PER_PS",
    "REFERENCE_GEOMETRY",
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
    "VacuumUndefined",
    "ValidationError",
    "build_hamiltonian",
    "build_liouvillian",
    "coupling_strength",
    "default_params",
    "g2_zero",
    "integrate",
    "make_rhs",
    "mode_volume_cubic",
    "observables_of",
    "oracle_steady_observables",
    "output_rate",
    "rhs",
    "run_sweep",
    "steady_observables_auto",
    "steady_state",
    "two_photon_expectation",
    "validate",
]
