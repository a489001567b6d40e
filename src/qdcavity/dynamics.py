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
        n_e, n_h, n_p, re_p, im_p, d2, re_t, im_t, d_e, d_h = y.tolist()
        return cls(n_e, n_h, n_p, complex(re_p, im_p), d2,
                   complex(re_t, im_t), d_e, d_h)


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

# Flat indices, 10 i + j, of the Jacobian's state-dependent entries [i, j],
# in the order jacobian lists their values.
_SINGLET_ENTRIES = np.array([0, 1, 10, 11, 30, 31, 32])
_DOUBLET_ENTRIES = np.array([
    0, 1, 10, 11, 30, 31, 32,
    60, 61, 62, 63, 64, 65, 68, 69, 73, 74, 80, 82, 83, 91, 92, 93,
])


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
    # The rate products, formed once per closure. Python groups a * b * x
    # as (a * b) * x, so each product below, and each one that two entries
    # share, is bitwise the written-out a * b * x.
    two_g = 2.0 * g
    minus_two_g = -2.0 * g
    four_g = 4.0 * g
    minus_four_g = -4.0 * g
    two_gc = 2.0 * gc
    minus_four_gc = -4.0 * gc
    pol_decay = -(gam + gc)
    pair_decay = -(gam + 3.0 * gc)
    assist_decay = -(gnr + 2.0 * gc)
    carrier_decay = -P - gnr
    minus_gnl = -gnl

    def rhs(t, y):
        ne, nh, nph, pr, pi, d2, dTr, dTi, de, dh = y.tolist()
        # The -+2 g Re p exchange terms cancel between the carrier and photon
        # equations, so d(n_e + n_p)/dt is pump and loss only.
        exchange = minus_two_g * pr
        loss = gnl * ne * nh
        inv = ne + nh - 1.0
        f0 = exchange + P * (1.0 - ne) - gnr * ne - loss
        f1 = exchange + P * (1.0 - nh) - gnr * nh - loss
        f2 = two_g * pr - two_gc * nph
        f3 = pol_decay * pr + det * pi + g * ne * nh + g * inv * nph
        f4 = pol_decay * pi - det * pr
        if not doublets:
            return np.array((f0, f1, f2, f3, f4, 0.0, 0.0, 0.0, 0.0, 0.0))
        f3 += g * (de + dh)
        ne_p = ne + nph
        nh_p = nh + nph
        f5 = minus_four_gc * d2 + four_g * dTr
        f6 = (
            pair_decay * dTr - det * dTi
            + two_g * nh_p * de + two_g * ne_p * dh
            - two_g * (pr * pr - pi * pi)
        )
        if inversion:
            f6 += g * inv * d2
        f7 = pair_decay * dTi + det * dTr + minus_four_g * pr * pi
        f8 = assist_decay * de - two_g * (pr * ne_p + dTr)
        f9 = assist_decay * dh - two_g * (pr * nh_p + dTr)
        return np.array((f0, f1, f2, f3, f4, f5, f6, f7, f8, f9))

    # The state-independent entries of the Jacobian; each call copies this
    # template and stores the state-dependent ones.
    template = np.zeros((STATE_DIM, STATE_DIM))
    template[0, 3] = minus_two_g
    template[1, 3] = minus_two_g
    template[2, 2] = -two_gc
    template[2, 3] = two_g
    template[3, 3] = pol_decay
    template[3, 4] = det
    template[4, 3] = -det
    template[4, 4] = pol_decay
    if doublets:
        template[3, 8] = g
        template[3, 9] = g
        template[5, 5] = minus_four_gc
        template[5, 6] = four_g
        template[6, 6] = pair_decay
        template[6, 7] = -det
        template[7, 6] = det
        template[7, 7] = pair_decay
        template[8, 6] = minus_two_g
        template[8, 8] = assist_decay
        template[9, 6] = minus_two_g
        template[9, 9] = assist_decay

    def jacobian(t, y):
        ne, nh, nph, pr, pi, d2, dTr, dTi, de, dh = y.tolist()
        J = template.copy()
        singlet = (
            carrier_decay - gnl * nh,   # [0, 0]
            minus_gnl * ne,             # [0, 1]
            minus_gnl * nh,             # [1, 0]
            carrier_decay - gnl * ne,   # [1, 1]
            g * nh + g * nph,           # [3, 0]
            g * ne + g * nph,           # [3, 1]
            g * (ne + nh - 1.0),        # [3, 2]
        )
        if not doublets:
            J.put(_SINGLET_ENTRIES, singlet)
            return J
        j60 = two_g * dh
        j61 = two_g * de
        j65 = 0.0
        if inversion:
            j60 += g * d2
            j61 += g * d2
            j65 = g * (ne + nh - 1.0)
        J.put(_DOUBLET_ENTRIES, singlet + (
            j60,                        # [6, 0]
            j61,                        # [6, 1]
            two_g * (de + dh),          # [6, 2]
            minus_four_g * pr,          # [6, 3]
            four_g * pi,                # [6, 4]
            j65,                        # [6, 5]
            two_g * (nh + nph),         # [6, 8]
            two_g * (ne + nph),         # [6, 9]
            minus_four_g * pi,          # [7, 3]
            minus_four_g * pr,          # [7, 4]
            minus_two_g * pr,           # [8, 0]
            minus_two_g * pr,           # [8, 2]
            minus_two_g * (ne + nph),   # [8, 3]
            minus_two_g * pr,           # [9, 1]
            minus_two_g * pr,           # [9, 2]
            minus_two_g * (nh + nph),   # [9, 3]
        ))
        return J

    return rhs, jacobian


# Python float arithmetic overflows to inf and yields NaN without a word;
# numpy's warns. Each entry must be what the closure gives, silently.
@np.errstate(over="ignore", invalid="ignore")
def stacked_rhs(points, ys):
    """Each point's rhs at a window of its states, in one evaluation.

    points holds m (params, toggles) pairs that agree on include_doublets,
    and ys has shape (m, STATE_DIM, k), column ys[i, :, j] a state of point
    i. Returns an array of that shape whose column [i, :, j] is bitwise what
    make_rhs(*points[i]) gives at ys[i, :, j]: the rates enter as (m, 1)
    columns, each product formed in the closure's order, and the inversion
    term through a per-point flag.
    """
    g, gc, gam, gnr, gnl, P, det = np.array([
        (params.g, params.gamma_c, params.gamma_deph, params.gamma_nr,
         params.gamma_nl, params.pump, params.detuning)
        for params, _ in points]).T[..., None]
    two_g = 2.0 * g
    minus_two_g = -2.0 * g
    pol_decay = -(gam + gc)
    ne, nh, nph, pr, pi, d2, dTr, dTi, de, dh = ys.transpose(1, 0, 2)
    f = np.empty(ys.shape)
    exchange = minus_two_g * pr
    loss = gnl * ne * nh
    inv = ne + nh - 1.0
    f[:, 0] = exchange + P * (1.0 - ne) - gnr * ne - loss
    f[:, 1] = exchange + P * (1.0 - nh) - gnr * nh - loss
    f[:, 2] = two_g * pr - 2.0 * gc * nph
    f3 = pol_decay * pr + det * pi + g * ne * nh + g * inv * nph
    f[:, 4] = pol_decay * pi - det * pr
    if not points[0][1].include_doublets:
        f[:, 3] = f3
        f[:, 5:] = 0.0
        return f
    f[:, 3] = f3 + g * (de + dh)
    ne_p = ne + nph
    nh_p = nh + nph
    pair_decay = -(gam + 3.0 * gc)
    assist_decay = -(gnr + 2.0 * gc)
    f[:, 5] = -4.0 * gc * d2 + 4.0 * g * dTr
    f6 = (
        pair_decay * dTr - det * dTi
        + two_g * nh_p * de + two_g * ne_p * dh
        - two_g * (pr * pr - pi * pi)
    )
    inversion = np.array([toggles.include_inversion_term
                          for _, toggles in points])[:, None]
    f[:, 6] = np.where(inversion, f6 + g * inv * d2, f6)
    f[:, 7] = pair_decay * dTi + det * dTr + -4.0 * g * pr * pi
    f[:, 8] = assist_decay * de - two_g * (pr * ne_p + dTr)
    f[:, 9] = assist_decay * dh - two_g * (pr * nh_p + dTr)
    return f


def two_photon_expectation(state: DynamicState) -> float:
    """<a+ a+ a a> = 2 n_p^2 + d_photon2.

    n_p^2 is formed as n_p * n_p, the same product g2_zero divides by, so
    the thermal quotient is exactly 2 (the libm pow behind n_p**2 can
    differ from that product in the last bit).
    """
    n_p = state.n_p
    return 2.0 * (n_p * n_p) + state.d_photon2
