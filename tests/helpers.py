"""Shared test utilities.

The centerpiece is an independent restatement of the truncated equations of
motion, written deliberately unlike the package implementation: complex
arithmetic throughout, dict-of-fields states, no flat array layout, no code
shared with the package. Together with the fixed-step integrator below it
gives a second route to every dynamical prediction, so agreement between the
two routes is a meaningful cross-check rather than a tautology.

The flat-array references further down are the opposite: the package's own
arithmetic, written as plain item stores into fresh arrays, against which
the package's closures, RODAS4 step and whole march are compared byte for
byte. Beside them, the per-sample verdict loop that the stacked
certification's verdicts must equal, and the pump ladder as plain loops,
whose root a cold solve must return where only the ladder certifies. The
dense steady state after them solves the index-map generator below by
sparse LU and carries the state through a full density matrix; the
oracle's level-by-level solve and its block-kept state are compared
against it.

The dense reference model at the end restates the oracle's Lindblad
generator on the whole density matrix: dense mode operators, the
Hamiltonian, and the generator assembled term by term from basis-index maps
on any closed set of entries, with propagation by expm_multiply. The
package keeps only the charge-sector generator, built as a cached linear
map of its rates, and is checked against this one.

The point-by-point sweep solves each grid line one point at a time, each
point a chain of one or a cold steady_state call; the sweep's chained line
solve is compared against it bit for bit.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
from hypothesis import strategies as st

from qdcavity import (
    DynamicState,
    ModelParams,
    NotConverged,
    SweepRecord,
    observables_of,
    steady_state,
)
from qdcavity.dynamics import SINGLET_DIM, STATE_DIM, TOGGLE_VARIANTS, make_rhs
from qdcavity.errors import NonFiniteState
from qdcavity.oracle import state_index
from qdcavity.solver import (
    PUMP_RUNGS,
    PUMP_START,
    RUNG_STEP,
    _continue_to_root,
    continue_line,
    scaled_residual,
)

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


def rhs(state, params, toggles):
    """The package's time derivative of every field, as a DynamicState."""
    f, _ = make_rhs(params, toggles)
    return DynamicState.from_array(f(0.0, state.to_array()))


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


def reference_march(initial, params, toggles, cfg, t_end, gamma, stages):
    """qdcavity.solver.integrate's march, written plainly: every step
    through reference_rodas_step, an np.isfinite check on each new state,
    and the error scale abs_tol + rel_tol * max(|y|, |y_new|) formed in one
    expression. Returns (times, states) arrays that integrate must match to
    the byte.
    """
    f, jac = make_rhs(params, toggles)
    y = initial.to_array()
    t, h, rejected = 0.0, cfg.initial_step, False
    times, ys = [t], [y]
    fy, J = f(t, y), jac(t, y)
    for _ in range(30000):
        last = t + h >= t_end
        if last:
            h = t_end - t
        y_new, error = reference_rodas_step(f, y, fy, J, h, gamma, stages)
        if not np.isfinite(y_new).all():
            raise NonFiniteState(f"non-finite state at t = {t + h:.6g} ps")
        ratio = error / (cfg.abs_tol + cfg.rel_tol
                         * np.maximum(np.abs(y), np.abs(y_new)))
        err = math.sqrt(float(ratio @ ratio) / y.size)
        factor = min(6.0, max(0.2, 0.9 * max(err, 1e-16) ** -0.25))
        if err <= 1.0:
            t = t_end if last else t + h
            y = y_new
            times.append(t)
            ys.append(y)
            if last:
                return np.array(times), np.array(ys)
            fy, J = f(t, y), jac(t, y)
            if rejected:
                factor = min(factor, 1.0)
            rejected = False
        else:
            rejected = True
        h *= factor
    raise AssertionError(f"reference march unfinished at t = {t:g} ps")


def reference_verdicts(links, y0, cfg):
    """qdcavity.solver._certify's verdicts on its (rhs, jac, n, root)
    links, one root at a time as a stack of one: the flow residual and
    every window sample judged by its own scaled_residual call, a window
    stopping at its first failed sample. Returns a list of booleans that
    _certify's must equal.
    """
    threshold = cfg.steady_state_residual
    times = np.linspace(0.0, cfg.steady_window, 9)
    verdicts = []
    for rhs, jac, n, root in links:
        rates, modes = np.linalg.eig(jac(0.0, root)[None, :n, :n])
        try:
            amplitudes = np.linalg.solve(modes, (y0 - root)[None, :n, None])
        except np.linalg.LinAlgError:
            verdicts.append(False)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            flow = (modes @ ((rates * np.exp(rates * cfg.max_time))[..., None]
                             * amplitudes)).real
        if not ((rates.real < 0.0).all()
                and scaled_residual(flow[0, :, 0], root) < threshold):
            verdicts.append(False)
            continue
        window_amplitudes = np.linalg.solve(modes, rhs(0.0, root)[None, :n,
                                                                  None])
        growth = np.expm1(rates[..., None] * times) / rates[..., None]
        window = np.repeat(root[:, None], times.size, axis=1)
        window[:n] += (modes @ (growth * window_amplitudes)).real[0]
        verdicts.append(all(scaled_residual(rhs(t, y), y) < threshold
                            for t, y in zip(times, window.T)))
    return verdicts


def reference_ladder_root(params, toggles, cfg):
    """The roots that steady_state's two ladders reach at the target pump,
    written out as plain loops: continuation from vacuum at the target pump
    alone, then up PUMP_RUNGS geometric rungs from PUMP_START, each rung
    from the root before on its own make_rhs closures, with a first
    pseudo-time step of cfg.initial_step and RUNG_STEP on later rungs.
    Returns (direct, climbed), each None where its ladder reaches no root.
    """
    n = STATE_DIM if toggles.include_doublets else SINGLET_DIM
    vacuum = DynamicState.vacuum().to_array()
    roots = []
    for pumps in ((params.pump,),
                  np.geomspace(PUMP_START, params.pump, PUMP_RUNGS).tolist()):
        y, h = vacuum, cfg.initial_step
        for pump in pumps:
            rhs, jac = make_rhs(replace(params, pump=pump), toggles)
            y = _continue_to_root(rhs, jac, y, n, cfg, h)
            if y is None:
                break
            h = RUNG_STEP
        roots.append(y)
    return tuple(roots)


def dense_steady_state(params, space):
    """The oracle's stationary state as a dense dim x dim rho, by an
    independent route.

    The charge-sector generator comes from index_map_liouvillian below; the
    trace row replaces the row of rho[0, 0] and scipy's sparse LU solves the
    system. The solution is scattered into the full matrix, symmetrised and
    normalised there, and positivity is checked by one dense eigvalsh.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    from qdcavity.oracle import charge_sector

    entries = charge_sector(space)
    gen = index_map_liouvillian(params, space, entries)
    dim = space.dim
    rows, cols = np.divmod(entries, dim)
    trace_row = sparse.csr_matrix((rows == cols).astype(complex))
    system = sparse.vstack([trace_row, gen[1:]], format="csc")
    rhs = np.zeros(entries.size, dtype=complex)
    rhs[0] = 1.0
    rho = np.zeros((dim, dim), dtype=complex)
    rho[rows, cols] = splu(system).solve(rhs)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert np.linalg.eigvalsh(rho).min() >= -1e-10
    return rho


def sector_generator(params, space):
    """The oracle's level blocks reassembled into one dense matrix on
    charge_sector, in its order.

    Asserts that the blocks' padding, the slots past each level's entries,
    holds only zeros.
    """
    from qdcavity.oracle import LEVEL_WIDTH, _table, build_liouvillian

    blocks = build_liouvillian(params, space)
    width = blocks.shape[1] * LEVEL_WIDTH
    padded = np.zeros((width + 2 * LEVEL_WIDTH, width + 2 * LEVEL_WIDTH),
                      dtype=complex)
    for side, stack in enumerate(blocks):
        for m, block in enumerate(stack):
            row = (m + 1) * LEVEL_WIDTH
            col = (m + side) * LEVEL_WIDTH
            padded[row:row + LEVEL_WIDTH, col:col + LEVEL_WIDTH] = block
    padded = padded[LEVEL_WIDTH:-LEVEL_WIDTH, LEVEL_WIDTH:-LEVEL_WIDTH]
    order = _table(space).order
    outside = np.setdiff1d(np.arange(width), order)
    assert not np.any(padded[outside]) and not np.any(padded[:, outside])
    return padded[np.ix_(order, order)]


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


def gate_scaled_difference(a, b):
    """Largest observable difference, each on its natural scale.

    n_p and the output rate relative to themselves, the two-photon
    expectation relative to n_p^2 and g2(0) absolutely, because the last
    two pass through zero inside the dip.
    """
    n_p = abs(b.photon_number)
    diffs = [
        abs(a.photon_number - b.photon_number) / n_p,
        abs(a.output_rate - b.output_rate) / abs(b.output_rate),
        abs(a.two_photon - b.two_photon) / max(abs(b.two_photon), n_p * n_p),
    ]
    if a.g2_zero is None or b.g2_zero is None:
        assert a.g2_zero is b.g2_zero
    else:
        diffs.append(abs(a.g2_zero - b.g2_zero) / max(abs(b.g2_zero), 1.0))
    return max(diffs)


class Operators:
    """Dense matrices of the elementary mode operators on the product space."""

    def __init__(self, space):
        n_ph = space.n_max + 1
        lower = np.zeros((2, 2), dtype=complex)
        lower[0, 1] = 1.0
        ident2 = np.eye(2, dtype=complex)
        a_ph = np.zeros((n_ph, n_ph), dtype=complex)
        for n in range(1, n_ph):
            a_ph[n - 1, n] = math.sqrt(n)
        ident_ph = np.eye(n_ph, dtype=complex)
        self.space = space
        self.c = np.kron(lower, np.kron(ident2, ident_ph))
        self.b = np.kron(ident2, np.kron(lower, ident_ph))
        self.a = np.kron(ident2, np.kron(ident2, a_ph))
        self.n_e = self.c.conj().T @ self.c
        self.n_h = self.b.conj().T @ self.b
        self.n_photon = self.a.conj().T @ self.a


def build_operators(space):
    return Operators(space)


def build_hamiltonian(params, space):
    """Rotating-frame Hamiltonian in rad/ps units; Hermitian by construction."""
    ops = build_operators(space)
    det = params.detuning
    g = params.g
    h_carriers = 0.5 * det * (ops.n_e + ops.n_h)
    pair_creation = ops.b.conj().T @ ops.c.conj().T @ ops.a
    interaction = -1j * g * (pair_creation - pair_creation.conj().T)
    return h_carriers + interaction


def ladder_maps(params, space):
    """Hamiltonian terms and rated collapse operators as basis-index maps.

    Every operator of the model sends a basis state to at most one basis
    state: op |k> = weight[k] |target[k]>, with target[k] = -1 where
    op |k> = 0. Returns (hamiltonian, collapses): the terms of H as
    (target, weight) pairs, and the collapse operators as
    ((target, weight), rate) pairs.
    """
    k = np.arange(space.dim)
    n_ph = space.n_max + 1
    carriers, n = np.divmod(k, n_ph)
    e, h = carriers >> 1, carriers & 1
    sqrt_n = np.sqrt(n)

    def shift(mask, offset, weight=1.0):
        return np.where(mask, k + offset, -1), np.where(mask, weight, 0.0)

    # b+ c+ a: |0, 0, n> -> sqrt(n) |1, 1, n - 1>, and its adjoint a+ c b.
    pair, pair_weight = shift((e + h == 0) & (n >= 1), 3 * n_ph - 1, sqrt_n)
    adj, adj_weight = shift((e + h == 2) & (n < space.n_max), 1 - 3 * n_ph,
                            np.sqrt(n + 1))
    hamiltonian = (
        (k, 0.5 * params.detuning * (e + h)),
        (pair, -1j * params.g * pair_weight),
        (adj, 1j * params.g * adj_weight),
    )
    collapses = (
        (shift(n >= 1, -1, sqrt_n), 2.0 * params.gamma_c),
        (shift(e == 0, 2 * n_ph), params.pump),
        (shift(h == 0, n_ph), params.pump),
        (shift(e == 1, -2 * n_ph), params.gamma_nr),
        (shift(h == 1, -n_ph), params.gamma_nr),
        (shift(e + h == 2, -3 * n_ph), params.gamma_nl),
        ((k, (e + h).astype(float)), 0.5 * params.gamma_deph),
    )
    return hamiltonian, collapses


def index_map_liouvillian(params, space, entries=None):
    """Sparse generator of d rho / dt on the given density-matrix entries.

    entries are row-major vec indices i * dim + j of rho[i, j] and must be
    closed under the generator; the matrix is indexed by their order. The
    default, every entry in vec order, gives the full (dim^2 x dim^2)
    generator of d vec(rho) / dt, which acts on vec(rho) as
    vec(A rho B) = (A kron B^T) vec(rho). Rates are in 1/ps.
    """
    from scipy import sparse

    dim = space.dim
    entries = np.arange(dim * dim) if entries is None else np.asarray(entries)
    rows, cols = np.divmod(entries, dim)
    hamiltonian, collapses = ladder_maps(params, space)
    # Each term sends entry (rows, cols) to (to_row, to_col) with weight coef.
    terms = []
    for target, weight in hamiltonian:
        # -i H rho + i rho H; H is Hermitian, so rho H acts on the column
        # index through the conjugate of H's own map.
        terms.append((target[rows], cols, -1j * weight[rows]))
        terms.append((rows, target[cols], 1j * np.conj(weight[cols])))
    for (target, weight), rate in collapses:
        if rate == 0.0:
            continue
        # rate (L rho L+ - {L+ L, rho} / 2); the weights are real and
        # L+ L is diagonal, weight^2.
        terms.append((target[rows], target[cols],
                      rate * weight[rows] * weight[cols]))
        terms.append((rows, cols,
                      -0.5 * rate * (weight[rows] ** 2 + weight[cols] ** 2)))
    to_row, to_col, coef = (np.concatenate(part) for part in zip(*terms))
    source = np.tile(np.arange(entries.size), len(terms))
    keep = (to_row >= 0) & (to_col >= 0) & (coef != 0.0)
    position = np.full(dim * dim, -1)
    position[entries] = np.arange(entries.size)
    to = position[to_row[keep] * dim + to_col[keep]]
    if np.any(to < 0):
        raise ValueError("entries are not closed under the generator")
    return sparse.csr_matrix(
        (coef[keep], (to, source[keep])),
        shape=(entries.size, entries.size), dtype=complex,
    )


def apply_liouvillian(generator, rho):
    """d rho / dt for a density matrix under a full vectorized generator."""
    dim = rho.shape[0]
    return np.asarray(generator @ rho.reshape(-1)).reshape(dim, dim)


def basis_density(space, n_e, n_h, n_photon):
    """Pure product state |n_e, n_h, n_photon><...| as a density matrix."""
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    k = state_index(space, n_e, n_h, n_photon)
    rho[k, k] = 1.0
    return rho


def expectation(state, op):
    """<op> in a qdcavity.oracle.DensityMatrix, for Hermitian op (real part
    of the trace)."""
    return float(np.trace(op @ state.elements).real)


def propagate(rho0, params, space, times):
    """Density matrices at the requested times, starting from rho0 at t = 0.

    times must be non-negative and strictly increasing. Returns an array of
    shape (len(times), dim, dim).
    """
    from scipy.sparse.linalg import expm_multiply

    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    if times[0] < 0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be non-negative and strictly increasing")
    gen = index_map_liouvillian(params, space)
    dim = space.dim
    vec = rho0.reshape(-1).astype(complex)
    out = np.empty((times.size, dim, dim), dtype=complex)
    t_prev = 0.0
    for k, t in enumerate(times):
        dt = float(t) - t_prev
        if dt > 0.0:
            vec = expm_multiply(gen * dt, vec)
        out[k] = vec.reshape(dim, dim)
        t_prev = float(t)
    return out


def point_by_point_sweep(grid, base, cfg, rabi):
    """run_sweep's records, each line solved one point at a time.

    A line, the points that share coupling multiple and pump, is solved in
    ascending gamma_cav and each point's variants in grid order. After a
    certified solve the next point is continue_line's chain of that point
    alone, guessed from the certified root; a point with no certified
    predecessor, or whose chain of one returns no root, is solved by a cold
    steady_state call. Returns (records in grid order, solved states in
    line order), the states of refused points their NotConverged states.
    """
    gamma_cavs = sorted(set(grid.gamma_cav_values))
    lines, states = [], []
    for g_multiple, pump in itertools.product(grid.g_values, grid.pump_values):
        line, guess = {}, None
        for gamma_cav in gamma_cavs:
            params = replace(base, g=rabi.coupling_for(g_multiple),
                             gamma_c=0.5 * gamma_cav, pump=pump)
            records = line[gamma_cav] = []
            for toggles in grid.toggle_variants:
                roots = ([] if guess is None
                         else continue_line([(params, toggles)], cfg, guess))
                try:
                    state = (DynamicState.from_array(roots[0]) if roots
                             else steady_state(params, toggles, cfg))
                    converged = True
                except NotConverged as err:
                    state = err.last_state
                    converged = False
                guess = state.to_array() if converged else None
                states.append(state)
                records.append(SweepRecord(
                    gamma_cav=gamma_cav,
                    g_over_omega_r0=g_multiple,
                    pump=pump,
                    toggles=toggles,
                    observables=observables_of(state, params),
                    converged=converged,
                ))
        lines.append(line)
    records = [r for gamma_cav in grid.gamma_cav_values
               for line in lines for r in line[gamma_cav]]
    return records, states
