"""Shared test utilities.

The centerpiece is an independent restatement of the truncated equations of
motion, written deliberately unlike the package implementation: complex
arithmetic throughout, dict-of-fields states, no flat array layout, no code
shared with the package. Together with the fixed-step integrator below it
gives a second route to every dynamical prediction, so agreement between the
two routes is a meaningful cross-check rather than a tautology.

The flat-array references further down are the opposite: the package's own
arithmetic, written as plain item stores into fresh arrays, against which
the package's closures and RODAS4 step are compared byte for byte.
"""

import numpy as np
from hypothesis import strategies as st

from qdcavity import DynamicState, ModelParams
from qdcavity.dynamics import TOGGLE_VARIANTS

FIELDS = (
    "n_e", "n_h", "n_p", "p", "d_photon2", "d_bc_aaa", "d_ce_phot", "d_h_phot",
)


def state_to_dict(state):
    return {name: getattr(state, name) for name in FIELDS}


def dict_to_state(values):
    return DynamicState(**values)


def reference_rhs(state, params, include_doublets=True,
                  include_inversion_term=True):
    """Time derivative over dict states; same model, different code path."""
    g = params.g
    gc = params.gamma_c
    pol_decay = params.gamma_deph + params.gamma_c
    gnr = params.gamma_nr
    gnl = params.gamma_nl
    pump = params.pump
    det = params.detuning

    ne = state["n_e"]
    nh = state["n_h"]
    nph = state["n_p"]
    p = complex(state["p"])
    if include_doublets:
        d2 = state["d_photon2"]
        pair_amp = complex(state["d_bc_aaa"])
        de = state["d_ce_phot"]
        dh = state["d_h_phot"]
    else:
        d2 = de = dh = 0.0
        pair_amp = 0j

    exchange = 2.0 * g * p.real
    joint_loss = gnl * (ne * nh)
    inversion = ne + nh - 1.0

    dp = -(pol_decay + 1j * det) * p + g * (ne * nh) + g * inversion * nph
    if include_doublets:
        dp += g * (de + dh)

    out = {
        "n_e": pump * (1.0 - ne) - gnr * ne - joint_loss - exchange,
        "n_h": pump * (1.0 - nh) - gnr * nh - joint_loss - exchange,
        "n_p": exchange - 2.0 * gc * nph,
        "p": dp,
    }
    if include_doublets:
        pair_decay = params.gamma_deph + 3.0 * gc
        assist_decay = gnr + 2.0 * gc
        d_pair = (
            (-pair_decay + 1j * det) * pair_amp
            + 2.0 * g * ((nh + nph) * de + (ne + nph) * dh)
            - 2.0 * g * p * p
        )
        if include_inversion_term:
            d_pair += g * inversion * d2
        out["d_photon2"] = 4.0 * g * pair_amp.real - 4.0 * gc * d2
        out["d_bc_aaa"] = d_pair
        out["d_ce_phot"] = (
            -assist_decay * de - 2.0 * g * (p.real * (ne + nph) + pair_amp.real)
        )
        out["d_h_phot"] = (
            -assist_decay * dh - 2.0 * g * (p.real * (nh + nph) + pair_amp.real)
        )
    else:
        out["d_photon2"] = 0.0
        out["d_bc_aaa"] = 0j
        out["d_ce_phot"] = 0.0
        out["d_h_phot"] = 0.0
    return out


def store_rhs_and_jacobian(params, toggles):
    """(rhs, jacobian) over the flat layout, one item store per entry.

    The same floating-point operations, in the same order, as
    qdcavity.dynamics.make_rhs; its closures must agree to the byte.
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
        f = np.empty(10)
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
        J = np.zeros((10, 10))
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


def reference_rodas_step(rhs, y, f, J, h, gamma, stages):
    """One RODAS4 step as qdcavity.solver._rodas_step takes it, written with
    np.eye(n), @ and tuple unpacking of the stage sums."""
    w_inv = np.linalg.inv(np.eye(y.size) / (h * gamma) - J)
    ks = np.empty((6, y.size))
    ks[0] = w_inv @ f
    for i, coefficients in enumerate(stages, start=1):
        a_sum, c_sum = coefficients @ ks[:i]
        stage = y + a_sum
        ks[i] = w_inv @ (rhs(0.0, stage) + c_sum / h)
    return stage + ks[5], ks[5]


def _axpy(state, deriv, h):
    return {k: state[k] + h * deriv[k] for k in FIELDS}


def rk4_step(state, params, dt, include_doublets=True,
             include_inversion_term=True):
    def f(s):
        return reference_rhs(s, params, include_doublets,
                             include_inversion_term)

    k1 = f(state)
    k2 = f(_axpy(state, k1, 0.5 * dt))
    k3 = f(_axpy(state, k2, 0.5 * dt))
    k4 = f(_axpy(state, k3, dt))
    sixth = dt / 6.0
    return {
        k: state[k] + sixth * (k1[k] + 2.0 * (k2[k] + k3[k]) + k4[k])
        for k in FIELDS
    }


def rk4_integrate(state, params, t_end, steps, include_doublets=True,
                  include_inversion_term=True):
    dt = t_end / steps
    current = dict(state)
    for _ in range(steps):
        current = rk4_step(current, params, dt, include_doublets,
                           include_inversion_term)
    return current


def derivative_scale(state, params):
    """Upper bound on any single term in the equations, for roundoff bands."""
    rate_sum = (
        params.g + params.gamma_c + params.gamma_deph + params.gamma_nr
        + params.gamma_nl + params.pump + abs(params.detuning) + 1.0
    )
    magnitude = max(1.0, *(abs(state[k]) for k in FIELDS))
    return 8.0 * rate_sum * magnitude * magnitude


_finite = dict(allow_nan=False, allow_infinity=False)

rate_values = st.floats(min_value=0.0, max_value=10.0, **_finite)

params_strategy = st.builds(
    ModelParams,
    g=st.floats(min_value=0.0, max_value=2.0, **_finite),
    gamma_c=st.floats(min_value=0.01, max_value=10.0, **_finite),
    gamma_deph=rate_values,
    gamma_nr=rate_values,
    gamma_nl=rate_values,
    pump=st.floats(min_value=0.0, max_value=100.0, **_finite),
    detuning=st.floats(min_value=-5.0, max_value=5.0, **_finite),
)

component_values = st.floats(min_value=-1.0, max_value=3.0, **_finite)

complex_values = st.builds(complex, component_values, component_values)

states_strategy = st.builds(
    DynamicState,
    n_e=component_values,
    n_h=component_values,
    n_p=component_values,
    p=complex_values,
    d_photon2=component_values,
    d_bc_aaa=complex_values,
    d_ce_phot=component_values,
    d_h_phot=component_values,
)

toggles_strategy = st.sampled_from(tuple(TOGGLE_VARIANTS.values()))


def assert_close(actual, expected, rel, context=""):
    scale = max(abs(actual), abs(expected), 1e-300)
    err = abs(actual - expected) / scale
    assert err < rel, (
        f"{context}: {actual!r} vs {expected!r} (rel err {err:.3e} >= {rel:g})"
    )
