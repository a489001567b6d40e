"""Equations of motion, checked against an independently coded reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdcavity import CorrelationToggles, DynamicState, ModelParams
from qdcavity.dynamics import (
    ARRAY_FIELDS,
    STATE_DIM,
    TOGGLE_VARIANTS,
    make_rhs,
    stacked_rhs,
    two_photon_expectation,
)

from helpers import (
    FIELDS,
    derivative_scale,
    dict_to_state,
    params_strategy,
    reference_rhs,
    rhs,
    rk4_step,
    state_to_dict,
    states_strategy,
    store_rhs_and_jacobian,
    toggles_strategy,
)

FULL = TOGGLE_VARIANTS["full"]
NO_INVERSION = TOGGLE_VARIANTS["no_inversion"]
FACTORIZED = TOGGLE_VARIANTS["factorized"]


def package_rhs_dict(state_dict, params, toggles):
    """Package derivative of a dict state, returned as a dict."""
    derivative = rhs(dict_to_state(state_dict), params, toggles)
    return state_to_dict(derivative)


def assert_rhs_agree(ours, reference, scale, rel, context):
    for name in FIELDS:
        a = complex(ours[name])
        b = complex(reference[name])
        assert abs(a - b) <= rel * scale, (
            f"{context}: field {name}: {a} vs {b} "
            f"(|diff| {abs(a - b):.3e}, allowed {rel * scale:.3e})"
        )


def test_array_layout_and_round_trip():
    assert STATE_DIM == 10
    assert len(ARRAY_FIELDS) == 10
    state = DynamicState(
        n_e=0.1, n_h=0.2, n_p=0.3, p=0.4 - 0.5j,
        d_photon2=0.6, d_bc_aaa=-0.7 + 0.8j, d_ce_phot=0.9, d_h_phot=-1.0,
    )
    arr = state.to_array()
    assert arr.shape == (10,)
    assert DynamicState.from_array(arr) == state
    with pytest.raises(ValueError):
        DynamicState.from_array(np.zeros(9))


def test_vacuum_is_fixed_point_without_pump():
    params = ModelParams(
        g=0.3, gamma_c=0.5, gamma_deph=0.1, gamma_nr=0.2,
        gamma_nl=0.1, pump=0.0, detuning=0.7,
    )
    for toggles in TOGGLE_VARIANTS.values():
        derivative = rhs(DynamicState.vacuum(), params, toggles)
        assert derivative.to_array().tolist() == [0.0] * 10


def test_decoupled_rate_equations_by_hand():
    # With g = 0 the occupations obey plain rate equations; the numbers
    # below are worked by hand.
    params = ModelParams(
        g=0.0, gamma_c=0.5, gamma_deph=0.0, gamma_nr=0.1,
        gamma_nl=0.2, pump=0.25,
    )
    state = DynamicState(n_e=0.4, n_h=0.7, n_p=0.3)
    derivative = rhs(state, params, FULL)
    assert derivative.n_e == pytest.approx(
        0.25 * 0.6 - 0.1 * 0.4 - 0.2 * 0.4 * 0.7, rel=1e-14
    )
    assert derivative.n_h == pytest.approx(
        0.25 * 0.3 - 0.1 * 0.7 - 0.2 * 0.4 * 0.7, rel=1e-14
    )
    assert derivative.n_p == pytest.approx(-2.0 * 0.5 * 0.3, rel=1e-14)
    assert derivative.p == 0j


@given(state=states_strategy, params=params_strategy, toggles=toggles_strategy)
def test_rhs_matches_independent_reference(state, params, toggles):
    state_dict = state_to_dict(state)
    ours = package_rhs_dict(state_dict, params, toggles)
    reference = reference_rhs(
        state_dict, params,
        include_doublets=toggles.include_doublets,
        include_inversion_term=toggles.include_inversion_term,
    )
    scale = derivative_scale(state_dict, params)
    assert_rhs_agree(ours, reference, scale, 1e-13, toggles)


def test_rhs_matches_finite_difference_of_reference_trajectory():
    # Second route: drive the independent reference through one fixed RK4
    # step in each time direction and difference the results. The equations
    # are quadratic in the state, so the central difference is exact up to
    # integrator and roundoff error.
    rng = np.random.default_rng(42)
    params = ModelParams(
        g=0.4, gamma_c=0.8, gamma_deph=0.15, gamma_nr=0.05,
        gamma_nl=0.08, pump=1.2, detuning=0.9,
    )
    dt = 1e-6
    for _ in range(5):
        values = rng.uniform(-0.5, 1.5, size=10)
        state_dict = {
            "n_e": values[0], "n_h": values[1], "n_p": values[2],
            "p": complex(values[3], values[4]),
            "d_photon2": values[5],
            "d_bc_aaa": complex(values[6], values[7]),
            "d_ce_phot": values[8], "d_h_phot": values[9],
        }
        forward = rk4_step(state_dict, params, dt)
        backward = rk4_step(state_dict, params, -dt)
        ours = package_rhs_dict(state_dict, params, FULL)
        scale = derivative_scale(state_dict, params)
        for name in FIELDS:
            fd = (complex(forward[name]) - complex(backward[name])) / (2.0 * dt)
            assert abs(complex(ours[name]) - fd) <= 1e-6 * scale, name


@given(state=states_strategy, params=params_strategy)
def test_electron_hole_exchange_symmetry(state, params):
    # Swapping the two carrier species everywhere must swap the derivative
    # the same way. Tolerance, not bitwise: summation order differs.
    original = state_to_dict(state)
    swapped = dict(original)
    swapped["n_e"], swapped["n_h"] = original["n_h"], original["n_e"]
    swapped["d_ce_phot"], swapped["d_h_phot"] = (
        original["d_h_phot"], original["d_ce_phot"],
    )
    ours = package_rhs_dict(original, params, FULL)
    mirrored = package_rhs_dict(swapped, params, FULL)
    scale = derivative_scale(original, params)
    pairs = (
        ("n_e", "n_h"), ("n_h", "n_e"), ("n_p", "n_p"), ("p", "p"),
        ("d_photon2", "d_photon2"), ("d_bc_aaa", "d_bc_aaa"),
        ("d_ce_phot", "d_h_phot"), ("d_h_phot", "d_ce_phot"),
    )
    for name, image in pairs:
        a = complex(ours[name])
        b = complex(mirrored[image])
        assert abs(a - b) <= 1e-13 * scale, (name, image)


@given(state=states_strategy, params=params_strategy)
def test_factorized_variant_freezes_correlations(state, params):
    derivative = rhs(state, params, FACTORIZED)
    assert derivative.d_photon2 == 0.0
    assert derivative.d_bc_aaa == 0j
    assert derivative.d_ce_phot == 0.0
    assert derivative.d_h_phot == 0.0
    # The polarization feed from the assist correlations is gone too: the
    # factorized derivative equals the full derivative of the state with
    # correlations zeroed.
    stripped = dict(state_to_dict(state))
    stripped.update(d_photon2=0.0, d_bc_aaa=0j, d_ce_phot=0.0, d_h_phot=0.0)
    full_on_stripped = package_rhs_dict(stripped, params, FULL)
    assert complex(full_on_stripped["p"]) == complex(derivative.p)


@given(state=states_strategy, params=params_strategy)
def test_inversion_term_is_linear_feedback(state, params):
    y = state.to_array()
    f_full, _ = make_rhs(params, FULL)
    f_reduced, _ = make_rhs(params, NO_INVERSION)
    a = f_full(0.0, y)
    b = f_reduced(0.0, y)
    # Only the real pair-amplitude equation carries the term.
    keep = [0, 1, 2, 3, 4, 5, 7, 8, 9]
    assert np.array_equal(a[keep], b[keep])
    expected = params.g * (state.n_e + state.n_h - 1.0) * state.d_photon2
    scale = derivative_scale(state_to_dict(state), params)
    assert abs((a[6] - b[6]) - expected) <= 1e-12 * scale


@given(params=params_strategy)
def test_zero_detuning_keeps_real_states_real(params):
    if params.detuning != 0.0:
        params = ModelParams(
            g=params.g, gamma_c=params.gamma_c, gamma_deph=params.gamma_deph,
            gamma_nr=params.gamma_nr, gamma_nl=params.gamma_nl,
            pump=params.pump, detuning=0.0,
        )
    state = DynamicState(
        n_e=0.6, n_h=0.4, n_p=0.2, p=0.3 + 0j,
        d_photon2=-0.05, d_bc_aaa=0.07 + 0j, d_ce_phot=0.01, d_h_phot=-0.02,
    )
    f, _ = make_rhs(params, FULL)
    derivative = f(0.0, state.to_array())
    assert derivative[4] == 0.0
    assert derivative[7] == 0.0


@settings(max_examples=25)
@given(state=states_strategy, params=params_strategy, toggles=toggles_strategy)
def test_jacobian_matches_finite_difference(state, params, toggles):
    # The equations are quadratic, so the central difference is exact up to
    # roundoff amplified by 1/h.
    f, jac = make_rhs(params, toggles)
    y = state.to_array()
    J = jac(0.0, y)
    assert J.shape == (STATE_DIM, STATE_DIM)
    h = 1e-7
    scale = derivative_scale(state_to_dict(state), params)
    for j in range(STATE_DIM):
        step = np.zeros(STATE_DIM)
        step[j] = h
        column = (f(0.0, y + step) - f(0.0, y - step)) / (2.0 * h)
        assert np.max(np.abs(J[:, j] - column)) <= 1e-6 * scale, f"column {j}"


@given(state=states_strategy, params=params_strategy)
def test_rhs_and_jacobian_bytes_match_item_store_reference(state, params):
    # Bytes, not values: a sign flipped on a zero entry shows only there.
    y = state.to_array()
    for toggles in TOGGLE_VARIANTS.values():
        f, jac = make_rhs(params, toggles)
        ref_f, ref_jac = store_rhs_and_jacobian(params, toggles)
        assert f(0.0, y).tobytes() == ref_f(0.0, y).tobytes()
        assert jac(0.0, y).tobytes() == ref_jac(0.0, y).tobytes()


@given(
    points=st.one_of(
        st.lists(st.tuples(params_strategy,
                           st.sampled_from((FULL, NO_INVERSION))),
                 min_size=1, max_size=5),
        st.lists(st.tuples(params_strategy, st.just(FACTORIZED)),
                 min_size=1, max_size=5),
    ),
    samples=st.integers(min_value=1, max_value=9),
    data=st.data(),
)
def test_stacked_rhs_bytes_match_each_closure(points, samples, data):
    # A stack of doublet points, full and no_inversion mixed or alone, or of
    # factorized ones: each column of the stacked evaluation is its own
    # point's closure at that state, byte for byte.
    size = len(points) * samples
    states = data.draw(st.lists(states_strategy, min_size=size,
                                max_size=size))
    ys = np.array([state.to_array() for state in states]).reshape(
        len(points), samples, STATE_DIM).transpose(0, 2, 1)
    f = stacked_rhs(points, ys)
    assert f.shape == ys.shape
    for point, window, columns in zip(points, ys, f):
        rhs, _ = make_rhs(*point)
        for y, column in zip(window.T, columns.T):
            assert column.tobytes() == rhs(0.0, y).tobytes()


def test_jacobian_calls_return_fresh_arrays():
    params = ModelParams(
        g=0.5, gamma_c=0.7, gamma_deph=0.1, gamma_nr=0.2,
        gamma_nl=0.3, pump=0.9, detuning=-0.4,
    )
    y = np.linspace(-0.4, 1.1, STATE_DIM)
    for toggles in TOGGLE_VARIANTS.values():
        _, jac = make_rhs(params, toggles)
        first, second = jac(0.0, y), jac(0.0, y)
        assert first is not second
        expected = second.copy()
        first[:] = 7.0
        second[:] = 7.0
        assert np.array_equal(jac(0.0, y), expected)


def test_jacobian_of_pinned_inputs_matches_variant():
    # With doublets off the Jacobian must not couple into the frozen block.
    params = ModelParams(
        g=0.5, gamma_c=0.7, gamma_deph=0.1, gamma_nr=0.2,
        gamma_nl=0.3, pump=0.9, detuning=-0.4,
    )
    _, jac = make_rhs(params, FACTORIZED)
    y = np.linspace(-0.4, 1.1, STATE_DIM)
    J = jac(0.0, y)
    assert np.array_equal(J[5:, :], np.zeros((5, STATE_DIM)))
    assert np.array_equal(J[:4, 5:], np.zeros((4, 5)))


def test_toggle_constructor_and_names():
    assert FULL == CorrelationToggles(True, True)
    assert NO_INVERSION == CorrelationToggles(True, False)
    assert FACTORIZED == CorrelationToggles(False, False)
    for name, toggles in TOGGLE_VARIANTS.items():
        assert CorrelationToggles.from_name(name) == toggles
    with pytest.raises(ValueError, match="full"):
        CorrelationToggles.from_name("bogus")
    with pytest.raises(ValueError):
        CorrelationToggles(include_doublets=False, include_inversion_term=True)


def test_two_photon_expectation_assembly():
    state = DynamicState(n_p=0.05, d_photon2=-0.00498)
    assert two_photon_expectation(state) == 2.0 * 0.05**2 + (-0.00498)
    assert two_photon_expectation(state) == pytest.approx(2.0e-5, rel=1e-9)
    assert two_photon_expectation(DynamicState.vacuum()) == 0.0
