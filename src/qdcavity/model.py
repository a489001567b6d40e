"""Physical parameters, unit conventions and the light-matter coupling.

Unit system: rates in 1/ps, times in ps, coupling and detuning in rad/ps.
SI units appear only inside the coupling-strength computation, which is the
single place where absolute scales (dipole moment, mode volume) enter. Its
SI constants are the module constants ELECTRON_CHARGE, HBAR,
VACUUM_PERMITTIVITY and SPEED_OF_LIGHT (CODATA 2018), and the reference
scale REFERENCE_COUPLING_RAD_PER_PS is one coupling_strength call on the
reference geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError


# CODATA 2018 values, fixed at build time and never configurable.
ELECTRON_CHARGE = 1.602176634e-19        # C
HBAR = 1.054571817e-34                   # J s
VACUUM_PERMITTIVITY = 8.8541878128e-12   # F/m
SPEED_OF_LIGHT = 299792458.0             # m/s


def coupling_strength(
    dipole_moment: float,
    photon_frequency: float,
    background_index: float,
    mode_volume: float,
) -> float:
    """Vacuum Rabi coupling of a dipole to a single cavity mode, in rad/ps.

    Computed as the dipole interaction energy with the zero-point field of
    the mode divided by hbar:

        g = dipole_moment * sqrt(photon_frequency / (2 hbar eps_b V))

    with eps_b = background_index**2 * eps_0 and V the mode volume. The
    factor 2 in the denominator is the half-photon normalization of the
    vacuum field amplitude, E_vac = sqrt(hbar nu / (2 eps_b V)).

    Args:
        dipole_moment: transition dipole in C m (may be zero).
        photon_frequency: mode frequency in rad/s.
        background_index: refractive index of the host material.
        mode_volume: in m^3.

    Returns:
        coupling in rad/ps.
    """
    if photon_frequency <= 0:
        raise ValueError(f"photon_frequency must be positive, got {photon_frequency}")
    if background_index <= 0:
        raise ValueError(f"background_index must be positive, got {background_index}")
    if mode_volume <= 0:
        raise ValueError(f"mode_volume must be positive, got {mode_volume}")
    if dipole_moment < 0:
        raise ValueError(f"dipole_moment must be non-negative, got {dipole_moment}")
    eps_b = background_index**2 * VACUUM_PERMITTIVITY
    rad_per_s = dipole_moment * math.sqrt(
        photon_frequency / (2.0 * HBAR * eps_b * mode_volume)
    )
    return rad_per_s * 1e-12


# Reference geometry: a 920 nm mode at angular frequency 2*pi*c/lambda in an
# index-3.5 host, cubic mode volume (lambda/n)^3 and a 0.5 nm dipole length.
# Divided by 2*pi the result lies within 15% of the conventional quoted scale
# of 0.025 1/ps. scripts/reference_coupling.py recomputes it independently of
# the package, and the test suite pins its frozen value.
REFERENCE_COUPLING_RAD_PER_PS = coupling_strength(
    ELECTRON_CHARGE * 0.5e-9,
    2.0 * math.pi * (SPEED_OF_LIGHT / 920e-9),
    3.5,
    (920e-9 / 3.5) ** 3,
)


# Background rates used when a configuration does not override them. These
# are calibration choices, not measured device values: they are set so that
# the correlation-induced dip in g2(0) is resolvable at couplings of order
# 0.2 reference units under strong pumping.
DEFAULT_GAMMA_DEPH = 0.01
DEFAULT_GAMMA_NR = 0.03
DEFAULT_GAMMA_NL = 0.01


@dataclass(frozen=True, kw_only=True)
class ModelParams:
    """All rates of one simulation; the single source of truth.

    Fields:
        g: light-matter coupling, rad/ps.
        gamma_c: half the photon decay rate, 1/ps (the photon number
            decays at 2*gamma_c; cavity lifetime is 1/(2*gamma_c)).
        gamma_deph: dephasing rate of the interband polarization, 1/ps.
        gamma_nr: nonradiative carrier loss, 1/ps.
        gamma_nl: spontaneous emission into free space and other modes,
            entering as a bilinear n_e*n_h loss, 1/ps.
        pump: carrier injection rate P, 1/ps, Pauli-blocked per species.
        detuning: transition minus cavity frequency, rad/ps.

    The three background rates default to the DEFAULT_* calibration. Every
    instance checks itself, replace() included: each field must be finite,
    gamma_c > 0 and every other field but detuning >= 0. A ValidationError
    names each offending field at once.
    """

    g: float
    gamma_c: float
    gamma_deph: float = DEFAULT_GAMMA_DEPH
    gamma_nr: float = DEFAULT_GAMMA_NR
    gamma_nl: float = DEFAULT_GAMMA_NL
    pump: float
    detuning: float = 0.0

    def __post_init__(self):
        problems = []
        for name in ("g", "gamma_c", "gamma_deph", "gamma_nr", "gamma_nl",
                     "pump", "detuning"):
            value = getattr(self, name)
            if not math.isfinite(value):
                problems.append(f"{name}: must be finite, got {value}")
        for name in ("g", "gamma_deph", "gamma_nr", "gamma_nl", "pump"):
            value = getattr(self, name)
            if math.isfinite(value) and value < 0:
                problems.append(f"{name}: must be >= 0, got {value}")
        if math.isfinite(self.gamma_c) and self.gamma_c <= 0:
            problems.append(f"gamma_c: must be > 0, got {self.gamma_c}")
        if problems:
            raise ValidationError(problems)


# Kept for keyword callers such as perfbench/make_refs.py (ROADMAP item 5).
default_params = ModelParams


@dataclass(frozen=True, kw_only=True)
class ReferenceRabi:
    """Reference scale for quoting couplings as dimensionless multiples.

    coupling_scale is the rad/ps unit applied when a multiple is converted
    into ModelParams.g; it defaults to the computed reference-geometry
    coupling, which divided by 2*pi sits within 15% of the conventional
    quoted constant of 0.025 1/ps. Keyword-only, so that a bare number is
    never read as the scale.
    """

    coupling_scale: float = REFERENCE_COUPLING_RAD_PER_PS

    def __post_init__(self):
        if not (math.isfinite(self.coupling_scale) and self.coupling_scale > 0):
            raise ValueError(
                "coupling_scale must be finite and positive, got "
                f"{self.coupling_scale}"
            )

    def coupling_for(self, multiple: float) -> float:
        """Absolute coupling in rad/ps for a dimensionless multiple."""
        return multiple * self.coupling_scale
