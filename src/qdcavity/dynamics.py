"""Equations of motion for the coupled emitter-cavity expectation values.

The operator hierarchy is truncated at two-particle correlations. The
factorized level carries the electron and hole occupations n_e, n_h, the
intracavity photon number n_p and the photon-assisted polarization p (the
channel converting inverted carriers into photons through the source term
2 g Re p). Four explicit correlation corrections on top of the factorized
products close the system:

    d_photon2   correlated two-photon amplitude, delta<a+ a+ a a>
    d_bc_aaa    correlated polarization-photon-pair amplitude,
                delta<b+ c+ a+ a a>
    d_ce_phot   electron-photon correlation, delta<c+ c a+ a>
    d_h_phot    hole-photon correlation, delta<b+ b a+ a>

The physically measurable two-photon expectation is assembled as
<a+ a+ a a> = 2 n_p^2 + d_photon2.

Sign conventions kept as-is (they matter only at nonzero detuning):
dp/dt contains -i*detuning*p while d(d_bc_aaa)/dt contains
+i*detuning*d_bc_aaa, and the -2 g p^2 source of d_bc_aaa uses the complex
square of p, not |p|^2. With real states at zero detuning, the default
regime, both points are inert.

Array layout used by the solver (10 reals):

    index  0    1    2    3     4     5          6            7            8          9
    field  n_e  n_h  n_p  Re p  Im p  d_photon2  Re d_bc_aaa  Im d_bc_aaa  d_ce_phot  d_h_phot
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams

STATE_DIM = 10
# The factorized variant evolves only the leading singlet components
# n_e, n_h, n_p, Re p, Im p; the rest of the layout is inert.
SINGLET_DIM = 5

ARRAY_FIELDS = (
    "n_e", "n_h", "n_p", "re_p", "im_p",
    "d_photon2", "re_d_bc_aaa", "im_d_bc_aaa", "d_ce_phot", "d_h_phot",
)


@dataclass(frozen=True)
class DynamicState:
    """One point of the truncated hierarchy.

    Stores unconstrained reals; physically meaningful states satisfy
    0 <= n_e, n_h <= 1 and n_p >= 0, monitored (not enforced) by the solver
    because truncated dynamics can transiently leave the physical simplex.
    """

    n_e: float = 0.0
    n_h: float = 0.0
    n_p: float = 0.0
    p: complex = 0j
    d_photon2: float = 0.0
    d_bc_aaa: complex = 0j
    d_ce_phot: float = 0.0
    d_h_phot: float = 0.0

    @classmethod
    def vacuum(cls) -> "DynamicState":
        return cls()

    def to_array(self) -> np.ndarray:
        p = complex(self.p)
        t = complex(self.d_bc_aaa)
        return np.array(
            [
                self.n_e, self.n_h, self.n_p, p.real, p.imag,
                self.d_photon2, t.real, t.imag, self.d_ce_phot, self.d_h_phot,
            ],
            dtype=float,
        )

    @classmethod
    def from_array(cls, y) -> "DynamicState":
        y = np.asarray(y, dtype=float)
        if y.shape != (STATE_DIM,):
            raise ValueError(f"expected shape ({STATE_DIM},), got {y.shape}")
        return cls(
            n_e=float(y[0]),
            n_h=float(y[1]),
            n_p=float(y[2]),
            p=complex(y[3], y[4]),
            d_photon2=float(y[5]),
            d_bc_aaa=complex(y[6], y[7]),
            d_ce_phot=float(y[8]),
            d_h_phot=float(y[9]),
        )


@dataclass(frozen=True)
class CorrelationToggles:
    """Selects which correlation terms enter the equations of motion.

    include_doublets: evolve the four correlation corrections at all. When
        off they are clamped to zero, including their feed into dp/dt.
    include_inversion_term: keep the inversion-weighted feedback
        g (n_e + n_h - 1) d_photon2 in the d_bc_aaa equation, the term
        responsible for the non-monotonic g2(0) behaviour.
    """

    include_doublets: bool = True
    include_inversion_term: bool = True

    def __post_init__(self):
        if self.include_inversion_term and not self.include_doublets:
            raise ValueError("include_inversion_term requires include_doublets")

    @property
    def variant_name(self) -> str:
        if not self.include_doublets:
            return "factorized"
        return "full" if self.include_inversion_term else "no_inversion"

    @classmethod
    def from_name(cls, name: str) -> "CorrelationToggles":
        try:
            return TOGGLE_VARIANTS[name]
        except KeyError:
            known = ", ".join(sorted(TOGGLE_VARIANTS))
            raise ValueError(f"unknown toggle variant {name!r} (known: {known})")


TOGGLE_VARIANTS = {
    "full": CorrelationToggles(True, True),
    "no_inversion": CorrelationToggles(True, False),
    "factorized": CorrelationToggles(False, False),
}


def make_rhs(params: ModelParams, toggles: CorrelationToggles):
    """Build (rhs, jacobian) callables over the flat 10-component layout.

    Both have signature f(t, y) as expected by ODE integrators; the dynamics
    are autonomous, so t is ignored. rhs allocates its output, never mutating
    y; the Jacobian is the exact analytic derivative of rhs.
    """
    g = params.g
    gc = params.gamma_c
    gam = params.gamma_deph
    gnr = params.gamma_nr
    gnl = params.gamma_nl
    P = params.pump
    det = params.detuning
    doublets = toggles.include_doublets
    inversion = toggles.include_inversion_term

    def rhs(t, y):
        ne, nh, nph, pr, pi, d2, dTr, dTi, de, dh = y.tolist()
        if not doublets:
            d2 = dTr = dTi = de = dh = 0.0
        f = np.empty(STATE_DIM)
        # The -+2 g Re p exchange terms cancel between the carrier and photon
        # equations, so d(n_e + n_p)/dt is pump and loss only.
        f[0] = -2.0 * g * pr + P * (1.0 - ne) - gnr * ne - gnl * ne * nh
        f[1] = -2.0 * g * pr + P * (1.0 - nh) - gnr * nh - gnl * ne * nh
        f[2] = 2.0 * g * pr - 2.0 * gc * nph
        f[3] = (
            -(gam + gc) * pr + det * pi
            + g * ne * nh + g * (ne + nh - 1.0) * nph
        )
        if doublets:
            f[3] += g * (de + dh)
        f[4] = -(gam + gc) * pi - det * pr
        if doublets:
            f[5] = -4.0 * gc * d2 + 4.0 * g * dTr
            f[6] = (
                -(gam + 3.0 * gc) * dTr - det * dTi
                + 2.0 * g * (nh + nph) * de + 2.0 * g * (ne + nph) * dh
                - 2.0 * g * (pr * pr - pi * pi)
            )
            if inversion:
                f[6] += g * (ne + nh - 1.0) * d2
            f[7] = -(gam + 3.0 * gc) * dTi + det * dTr - 4.0 * g * pr * pi
            f[8] = -(gnr + 2.0 * gc) * de - 2.0 * g * (pr * (ne + nph) + dTr)
            f[9] = -(gnr + 2.0 * gc) * dh - 2.0 * g * (pr * (nh + nph) + dTr)
        else:
            f[5:] = 0.0
        return f

    def jacobian(t, y):
        ne, nh, nph, pr, pi, d2, dTr, dTi, de, dh = y.tolist()
        if not doublets:
            d2 = dTr = dTi = de = dh = 0.0
        J = np.zeros((STATE_DIM, STATE_DIM))
        J[0, 0] = -P - gnr - gnl * nh
        J[0, 1] = -gnl * ne
        J[0, 3] = -2.0 * g
        J[1, 0] = -gnl * nh
        J[1, 1] = -P - gnr - gnl * ne
        J[1, 3] = -2.0 * g
        J[2, 2] = -2.0 * gc
        J[2, 3] = 2.0 * g
        J[3, 0] = g * nh + g * nph
        J[3, 1] = g * ne + g * nph
        J[3, 2] = g * (ne + nh - 1.0)
        J[3, 3] = -(gam + gc)
        J[3, 4] = det
        J[4, 3] = -det
        J[4, 4] = -(gam + gc)
        if doublets:
            J[3, 8] = g
            J[3, 9] = g
            J[5, 5] = -4.0 * gc
            J[5, 6] = 4.0 * g
            J[6, 0] = 2.0 * g * dh
            J[6, 1] = 2.0 * g * de
            J[6, 2] = 2.0 * g * (de + dh)
            J[6, 3] = -4.0 * g * pr
            J[6, 4] = 4.0 * g * pi
            J[6, 6] = -(gam + 3.0 * gc)
            J[6, 7] = -det
            J[6, 8] = 2.0 * g * (nh + nph)
            J[6, 9] = 2.0 * g * (ne + nph)
            if inversion:
                J[6, 0] += g * d2
                J[6, 1] += g * d2
                J[6, 5] = g * (ne + nh - 1.0)
            J[7, 3] = -4.0 * g * pi
            J[7, 4] = -4.0 * g * pr
            J[7, 6] = det
            J[7, 7] = -(gam + 3.0 * gc)
            J[8, 0] = -2.0 * g * pr
            J[8, 2] = -2.0 * g * pr
            J[8, 3] = -2.0 * g * (ne + nph)
            J[8, 6] = -2.0 * g
            J[8, 8] = -(gnr + 2.0 * gc)
            J[9, 1] = -2.0 * g * pr
            J[9, 2] = -2.0 * g * pr
            J[9, 3] = -2.0 * g * (nh + nph)
            J[9, 6] = -2.0 * g
            J[9, 9] = -(gnr + 2.0 * gc)
        return J

    return rhs, jacobian


def rhs(
    state: DynamicState, params: ModelParams, toggles: CorrelationToggles
) -> DynamicState:
    """Time derivative of every field, returned as a state-shaped record."""
    f, _ = make_rhs(params, toggles)
    return DynamicState.from_array(f(0.0, state.to_array()))


def two_photon_expectation(state: DynamicState) -> float:
    """<a+ a+ a a> = 2 n_p^2 + d_photon2.

    n_p^2 is formed as n_p * n_p, the same product g2_zero divides by, so
    the thermal quotient is exactly 2 (the libm pow behind n_p**2 can
    differ from that product in the last bit).
    """
    n_p = state.n_p
    return 2.0 * (n_p * n_p) + state.d_photon2
