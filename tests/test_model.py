"""Parameter containers, validation, and the coupling-strength computation."""

import math
import os
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qdcavity import (
    ModelParams,
    ReferenceRabi,
    ValidationError,
    coupling_strength,
    default_params,
)
from qdcavity.model import (
    DEFAULT_GAMMA_DEPH,
    DEFAULT_GAMMA_NL,
    DEFAULT_GAMMA_NR,
    ELECTRON_CHARGE,
    HBAR,
    REFERENCE_COUPLING_RAD_PER_PS,
    SPEED_OF_LIGHT,
    VACUUM_PERMITTIVITY,
)

# Frozen regression values for the reference geometry (920 nm, index 3.5,
# cubic mode volume, 0.5 nm dipole length). Computed once, asserted bitwise.
FROZEN_MODE_VOLUME = 1.8161819241982504e-20
FROZEN_COUPLING = 0.17783269413294994


def test_constants_are_codata_2018():
    assert ELECTRON_CHARGE == 1.602176634e-19
    assert HBAR == 1.054571817e-34
    assert VACUUM_PERMITTIVITY == 8.8541878128e-12
    assert SPEED_OF_LIGHT == 299792458.0


def test_coupling_zero_dipole_is_zero():
    g = coupling_strength(0.0, 2.0e15, 3.5, FROZEN_MODE_VOLUME)
    assert g == 0.0


def test_coupling_input_validation():
    with pytest.raises(ValueError):
        coupling_strength(1e-28, 0.0, 3.5, 1e-20)
    with pytest.raises(ValueError):
        coupling_strength(1e-28, 2.0e15, 0.0, 1e-20)
    with pytest.raises(ValueError):
        coupling_strength(1e-28, 2.0e15, 3.5, 0.0)
    with pytest.raises(ValueError):
        coupling_strength(-1e-28, 2.0e15, 3.5, 1e-20)


def test_coupling_power_of_two_scalings_are_exact():
    # Scalings by exact powers of two commute with IEEE rounding, so these
    # hold bitwise, not merely to tolerance.
    dipole = ELECTRON_CHARGE * 0.5e-9
    nu = 2.0e15
    volume = FROZEN_MODE_VOLUME
    base = coupling_strength(dipole, nu, 3.5, volume)
    assert coupling_strength(2.0 * dipole, nu, 3.5, volume) == 2.0 * base
    assert coupling_strength(dipole, 4.0 * nu, 3.5, volume) == 2.0 * base
    assert coupling_strength(dipole, nu, 3.5, 4.0 * volume) == base / 2.0


@given(
    dipole=st.floats(min_value=1e-30, max_value=1e-27),
    nu=st.floats(min_value=1e14, max_value=1e16),
    index=st.floats(min_value=1.0, max_value=4.0),
    volume=st.floats(min_value=1e-21, max_value=1e-18),
    factor=st.floats(min_value=1.1, max_value=10.0),
)
def test_coupling_scaling_laws(dipole, nu, index, volume, factor):
    base = coupling_strength(dipole, nu, index, volume)
    linear = coupling_strength(factor * dipole, nu, index, volume)
    assert linear == pytest.approx(factor * base, rel=1e-12)
    root_nu = coupling_strength(dipole, factor * nu, index, volume)
    assert root_nu == pytest.approx(math.sqrt(factor) * base, rel=1e-12)
    inv_root_v = coupling_strength(dipole, nu, index, factor * volume)
    assert inv_root_v == pytest.approx(base / math.sqrt(factor), rel=1e-12)


def test_reference_coupling_frozen_value():
    assert REFERENCE_COUPLING_RAD_PER_PS == FROZEN_COUPLING


def test_reference_coupling_recomputed_from_first_principles():
    # Same physics, rebuilt here from the raw constants with a different
    # arithmetic arrangement: E_vac = sqrt(hbar w / (2 eps V)) first, then
    # g = d E_vac / hbar.
    wavelength = 920e-9
    index = 3.5
    volume = (wavelength / index) ** 3
    omega = 2.0 * math.pi * 299792458.0 / wavelength
    eps_b = 8.8541878128e-12 * index * index
    e_vac = math.sqrt(1.054571817e-34 * omega / (2.0 * eps_b * volume))
    dipole = 1.602176634e-19 * 0.5e-9
    g_rad_per_ps = dipole * e_vac / 1.054571817e-34 * 1e-12
    assert g_rad_per_ps == pytest.approx(FROZEN_COUPLING, rel=1e-12)


def test_reference_coupling_script_finds_the_package_itself(tmp_path):
    # An empty PYTHONPATH and a foreign working directory: the script must
    # still import the frozen constant and compare against it.
    script = Path(__file__).resolve().parents[1] / "scripts" / "reference_coupling.py"
    run = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=""),
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert f"package frozen value         {FROZEN_COUPLING!r}" in run.stdout


def test_reference_coupling_near_quoted_scale():
    quoted = 0.025
    ratio = REFERENCE_COUPLING_RAD_PER_PS / (2.0 * math.pi) / quoted
    assert abs(ratio - 1.0) < 0.15


def test_validate_returns_params_unchanged():
    params = ModelParams(
        g=0.1, gamma_c=1.0, gamma_deph=0.01, gamma_nr=0.03,
        gamma_nl=0.01, pump=0.5,
    )
    assert astuple(params) == (0.1, 1.0, 0.01, 0.03, 0.01, 0.5, 0.0)
    assert replace(params) == params


def test_validate_rejects_zero_gamma_c():
    with pytest.raises(ValidationError) as info:
        ModelParams(
            g=0.1, gamma_c=0.0, gamma_deph=0.01, gamma_nr=0.03,
            gamma_nl=0.01, pump=0.5,
        )
    assert len(info.value.problems) == 1
    assert "gamma_c" in info.value.problems[0]


def test_validate_aggregates_every_problem():
    with pytest.raises(ValidationError) as info:
        ModelParams(
            g=-1.0, gamma_c=0.0, gamma_deph=0.01, gamma_nr=0.03,
            gamma_nl=0.01, pump=-2.0,
        )
    text = "\n".join(info.value.problems)
    assert len(info.value.problems) == 3
    assert "g:" in text
    assert "gamma_c" in text
    assert "pump" in text


def test_validate_rejects_non_finite_values():
    with pytest.raises(ValidationError) as info:
        ModelParams(
            g=math.inf, gamma_c=1.0, gamma_deph=0.01, gamma_nr=0.03,
            gamma_nl=0.01, pump=0.5, detuning=math.nan,
        )
    text = "\n".join(info.value.problems)
    assert "g:" in text
    assert "detuning" in text


def test_reference_rabi_defaults():
    rabi = ReferenceRabi()
    assert rabi.coupling_scale == FROZEN_COUPLING
    assert rabi.coupling_for(0.2) == 0.2 * FROZEN_COUPLING
    assert rabi.coupling_for(0.0) == 0.0


def test_reference_rabi_validation():
    with pytest.raises(ValueError):
        ReferenceRabi(coupling_scale=-1.0)
    with pytest.raises(ValueError):
        ReferenceRabi(coupling_scale=math.inf)


def test_default_params_fills_documented_backgrounds():
    params = default_params(g=0.1, gamma_c=1.0, pump=0.5)
    assert params.gamma_deph == DEFAULT_GAMMA_DEPH == 0.01
    assert params.gamma_nr == DEFAULT_GAMMA_NR == 0.03
    assert params.gamma_nl == DEFAULT_GAMMA_NL == 0.01
    assert params.detuning == 0.0


def test_default_params_validates():
    with pytest.raises(ValidationError):
        default_params(g=0.1, gamma_c=0.0, pump=0.5)
