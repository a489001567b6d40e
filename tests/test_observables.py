"""Figures of merit: g2(0), output rate, and the observables bundle."""

import pytest
from hypothesis import given, strategies as st

from qdcavity import (
    DynamicState,
    ModelParams,
    Observables,
    observables_of,
)
from qdcavity.observables import PHOTON_FLOOR

PARAMS = ModelParams(
    g=0.1, gamma_c=0.75, gamma_deph=0.01, gamma_nr=0.03,
    gamma_nl=0.01, pump=0.5,
)


def g2_zero(state):
    return observables_of(state, PARAMS).g2_zero


def output_rate(state):
    return observables_of(state, PARAMS).output_rate


@given(n_p=st.floats(min_value=1e-10, max_value=10.0))
def test_g2_is_exactly_thermal_without_correlation(n_p):
    # With the correlated two-photon amplitude at zero the quotient
    # 2 n_p^2 / n_p^2 is exactly 2 in floating point, not approximately.
    state = DynamicState(n_p=n_p, d_photon2=0.0)
    assert g2_zero(state) == 2.0


def test_g2_antibunched_instance():
    state = DynamicState(n_p=0.05, d_photon2=-0.00498)
    expected = (2.0 * 0.05**2 - 0.00498) / 0.05**2
    assert g2_zero(state) == expected
    assert g2_zero(state) == pytest.approx(0.008, rel=1e-9)


def test_g2_undefined_at_or_below_floor():
    assert PHOTON_FLOOR == 1e-15
    for n_p in (0.0, PHOTON_FLOOR, -0.1):
        assert g2_zero(DynamicState(n_p=n_p, d_photon2=0.0)) is None
    # Just above the floor the quotient is defined again.
    assert g2_zero(DynamicState(n_p=2e-15, d_photon2=0.0)) == 2.0


@given(
    n_p=st.floats(min_value=1e-6, max_value=10.0),
    d2=st.floats(min_value=-1.0, max_value=1.0),
    power=st.integers(min_value=-2, max_value=2),
)
def test_g2_invariant_under_power_of_two_rescaling(n_p, d2, power):
    # Scaling n_p by s and the correlation by s^2 leaves g2 unchanged;
    # with s a power of two the identity is exact.
    s = 2.0**power
    base = DynamicState(n_p=n_p, d_photon2=d2)
    scaled = DynamicState(n_p=s * n_p, d_photon2=s * s * d2)
    assert g2_zero(scaled) == g2_zero(base)


def test_output_rate_formula():
    state = DynamicState(n_p=0.25)
    assert output_rate(state) == 2.0 * 0.75 * 0.25


@given(n_p=st.floats(min_value=1e-300, max_value=100.0))
def test_output_rate_linear_in_photon_number(n_p):
    # Exact only for normal floats; subnormals round differently.
    state = DynamicState(n_p=n_p)
    doubled = DynamicState(n_p=2.0 * n_p)
    assert output_rate(doubled) == 2.0 * output_rate(state)


def test_observables_bundle_normal_case():
    state = DynamicState(n_p=0.05, d_photon2=-0.00498)
    obs = observables_of(state, PARAMS)
    assert obs.photon_number == 0.05
    assert obs.two_photon == 2.0 * 0.05**2 - 0.00498
    assert obs.g2_zero == pytest.approx(0.008, rel=1e-9)
    assert obs.output_rate == 2.0 * PARAMS.gamma_c * 0.05
    assert obs.physical


def test_observables_bundle_vacuum_marks_g2_undefined():
    obs = observables_of(DynamicState.vacuum(), PARAMS)
    assert obs.g2_zero is None
    assert obs.photon_number == 0.0
    assert obs.output_rate == 0.0
    assert obs.physical


def test_physical_flag_detects_truncation_artifacts():
    assert not Observables(
        photon_number=0.1, two_photon=-1e-5, g2_zero=None, output_rate=0.1
    ).physical
    assert not Observables(
        photon_number=-0.1, two_photon=1e-5, g2_zero=None, output_rate=-0.1
    ).physical
    assert Observables(
        photon_number=0.0, two_photon=0.0, g2_zero=None, output_rate=0.0
    ).physical
