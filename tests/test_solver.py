"""Integration, steady-state detection, and failure reporting."""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import qdcavity
from qdcavity import (
    DynamicState,
    IntegrationConfig,
    ModelParams,
    NotConverged,
    SolverError,
    Trajectory,
    ValidationError,
    default_params,
    integrate,
    rhs,
    steady_state,
)
from qdcavity import solver
from qdcavity.dynamics import SINGLET_DIM, STATE_DIM, TOGGLE_VARIANTS, make_rhs
from qdcavity.errors import NonFiniteState
from qdcavity.model import ReferenceRabi
from qdcavity.observables import observables_of
from qdcavity.solver import (
    PhysicalRangeWarning,
    _certified_root,
    _continue_to_root,
    _rodas_step,
    _window_holds,
    scaled_residual,
)

from helpers import rk4_integrate, state_to_dict

FULL = TOGGLE_VARIANTS["full"]
FACTORIZED = TOGGLE_VARIANTS["factorized"]

CFG = IntegrationConfig()

# Coupling 0.20 reference units, the dip-sweep coupling.
G_DIP = ReferenceRabi().coupling_for(0.20)


def saturated_params(lifetime_ps, pump=1e5):
    """Default rates at coupling 0.20, photon lifetime as the sweeps set it."""
    return default_params(g=G_DIP, gamma_c=0.5 * (1.0 / lifetime_ps), pump=pump)


def decay_only_params(gamma_c):
    return ModelParams(
        g=0.0, gamma_c=gamma_c, gamma_deph=0.0, gamma_nr=0.0,
        gamma_nl=0.0, pump=0.0,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        IntegrationConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(rel_tol=2.0)
    with pytest.raises(ValueError):
        IntegrationConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        IntegrationConfig(max_time=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(initial_step=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(steady_state_residual=0.0)
    with pytest.raises(ValueError):
        IntegrationConfig(steady_window=0.0)


@pytest.mark.parametrize("field", [
    "rel_tol", "abs_tol", "max_time", "initial_step",
    "steady_state_residual", "steady_window",
])
def test_config_rejects_infinite_settings(field):
    with pytest.raises(ValueError, match=field):
        IntegrationConfig(**{field: math.inf})


def test_trajectory_invariants():
    s = DynamicState.vacuum()
    with pytest.raises(ValueError):
        Trajectory(times=(0.0,), states=(), final_residual=0.0)
    with pytest.raises(ValueError):
        Trajectory(times=(), states=(), final_residual=0.0)
    with pytest.raises(ValueError):
        Trajectory(times=(1.0,), states=(s,), final_residual=0.0)
    with pytest.raises(ValueError):
        Trajectory(
            times=(0.0, 2.0, 2.0), states=(s, s, s), final_residual=0.0,
        )
    traj = Trajectory(times=(0.0, 1.0), states=(s, s), final_residual=0.0)
    assert traj.final is s


def test_photon_decay_matches_exponential():
    params = decay_only_params(gamma_c=0.6)
    initial = DynamicState(n_p=1.0)
    traj = integrate(initial, params, FULL, CFG, t_end=5.0)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 5.0
    for t, state in zip(traj.times, traj.states):
        expected = math.exp(-2.0 * 0.6 * t)
        assert state.n_p == pytest.approx(expected, rel=1e-6)


def test_integrate_rejects_invalid_params_and_horizon():
    with pytest.raises(ValidationError):
        integrate(
            DynamicState.vacuum(),
            ModelParams(g=0.1, gamma_c=0.0, gamma_deph=0.0, gamma_nr=0.0,
                        gamma_nl=0.0, pump=0.0),
            FULL, CFG,
        )
    with pytest.raises(ValueError):
        integrate(
            DynamicState.vacuum(), decay_only_params(1.0), FULL, CFG,
            t_end=0.0,
        )


def test_integrate_rejects_non_finite_initial_state():
    with pytest.raises(NonFiniteState):
        integrate(
            DynamicState(n_p=math.inf), decay_only_params(1.0), FULL, CFG,
            t_end=1.0,
        )


def test_trajectory_matches_independent_rk4():
    # Full coupled system against the independently coded reference pushed
    # through fixed-step RK4: two routes, one curve.
    params = default_params(g=0.15, gamma_c=0.4, pump=0.8)
    initial = DynamicState.vacuum()
    t_end = 4.0
    traj = integrate(initial, params, FULL, CFG, t_end=t_end)
    reference = rk4_integrate(
        state_to_dict(initial), params, t_end, steps=4000
    )
    final = state_to_dict(traj.final)
    for name, value in reference.items():
        assert complex(final[name]) == pytest.approx(
            complex(value), rel=1e-6, abs=1e-10
        ), name


def test_rodas_step_is_fourth_order():
    # Fixed steps on the full system from vacuum: for a fourth-order step
    # the gap between the marches at h and h/2 shrinks 16-fold per halving
    # of h. Each of the six coefficients tried off by 0.1% gave ratios of
    # 1-6 instead.
    params = default_params(g=0.15, gamma_c=0.4, pump=0.8)
    f, jac = make_rhs(params, FULL)

    def march(h, t_end=1.6):
        y = DynamicState.vacuum().to_array()
        for _ in range(round(t_end / h)):
            y, _ = _rodas_step(f, y, f(0.0, y), jac(0.0, y), h)
        return y

    ends = [march(0.2 / 2**k) for k in range(5)]
    gaps = [np.max(np.abs(a - b)) for a, b in zip(ends, ends[1:])]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert coarse / fine == pytest.approx(16.0, rel=0.1)


def test_march_stops_at_the_step_budget(monkeypatch):
    monkeypatch.setattr(solver, "MAX_MARCH_STEPS", 5)
    params = default_params(g=0.2, gamma_c=0.5, pump=2.0)
    with pytest.raises(SolverError, match="after 5 steps"):
        integrate(DynamicState.vacuum(), params, FULL, CFG, t_end=3.0)


def test_self_convergence_under_tolerance_tightening():
    params = default_params(g=0.2, gamma_c=0.5, pump=2.0)
    loose = integrate(
        DynamicState.vacuum(), params, FULL,
        IntegrationConfig(rel_tol=1e-7, abs_tol=1e-10), t_end=3.0,
    )
    tight = integrate(
        DynamicState.vacuum(), params, FULL,
        IntegrationConfig(rel_tol=1e-11, abs_tol=1e-14), t_end=3.0,
    )
    assert loose.final.n_p == pytest.approx(tight.final.n_p, rel=1e-6)
    assert loose.final.n_e == pytest.approx(tight.final.n_e, rel=1e-6)


def test_integration_is_deterministic():
    params = default_params(g=0.2, gamma_c=0.5, pump=2.0)
    a = integrate(DynamicState.vacuum(), params, FULL, CFG, t_end=2.0)
    b = integrate(DynamicState.vacuum(), params, FULL, CFG, t_end=2.0)
    assert a.times == b.times
    assert a.states == b.states


def test_scaled_residual_definition():
    f = np.array([3.0, 4.0])
    assert scaled_residual(f, np.array([0.0, 0.0])) == 5.0
    assert scaled_residual(f, np.array([0.0, 2.0])) == 5.0 / 2.0


def test_steady_state_carrier_balance():
    # g = 0: the carrier steady state is the quadratic root and the cavity
    # empties.
    params = ModelParams(
        g=0.0, gamma_c=1.0, gamma_deph=0.01, gamma_nr=0.0,
        gamma_nl=2.0, pump=1.0,
    )
    state = steady_state(params, FULL, CFG)
    assert state.n_e == pytest.approx(0.5, rel=1e-8)
    assert state.n_h == pytest.approx(0.5, rel=1e-8)
    assert abs(state.n_p) < 1e-12


def test_steady_state_residual_holds_over_window():
    params = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    state = steady_state(params, FULL, CFG)
    # Post-hoc replay: from the returned state, the scaled residual must
    # stay below threshold across the whole verification window.
    f, _ = make_rhs(params, FULL)
    traj = integrate(state, params, FULL, CFG, t_end=CFG.steady_window)
    for point in traj.states:
        y = point.to_array()
        assert scaled_residual(f(0.0, y), y) < CFG.steady_state_residual


def test_window_catches_transient_growth():
    # A stable but non-normal linear flow f(y) = J y: its residual evolves
    # as f(t) = e^{J t} f(0), and started along the second axis it first
    # grows about 350-fold (peak near t = 1 ps) before it decays. A state
    # whose residual starts below threshold must still be rejected.
    J = np.array([[-1.0, 1e3, 0.0], [0.0, -1.1, 0.0], [0.0, 0.0, -2.0]])

    def f(t, y):
        return J @ y

    def jac(t, y):
        return J

    rates, modes = np.linalg.eig(J)
    growing = np.linalg.solve(J, [0.0, 5e-12, 0.0])
    assert scaled_residual(f(0.0, growing), growing) < CFG.steady_state_residual
    assert not _window_holds(f, growing, rates, modes, CFG)
    assert _certified_root(f, jac, growing, 3, CFG) is None
    # Started along the first axis the residual only decays, so a state
    # just under the threshold holds; stepping the flow backwards would
    # double its residual instead.
    decaying = np.linalg.solve(J, [0.8 * CFG.steady_state_residual, 0.0, 0.0])
    assert _window_holds(f, decaying, rates, modes, CFG)
    assert _certified_root(f, jac, decaying, 3, CFG) is decaying


def test_lasing_roots_past_threshold():
    # Past the lasing threshold the full hierarchy settles at a lasing state
    # with a slow relaxation mode. Integrating a window from that root
    # stalls rather than fails, so the solves run in a child process under
    # a time limit.
    script = textwrap.dedent("""
        from qdcavity import IntegrationConfig, default_params, steady_state
        from qdcavity.dynamics import TOGGLE_VARIANTS
        from qdcavity.model import ReferenceRabi
        g = ReferenceRabi().coupling_for(0.20)
        for lifetime_ps in (20.0, 30.0):
            params = default_params(g=g, gamma_c=0.5 / lifetime_ps, pump=1e5)
            state = steady_state(
                params, TOGGLE_VARIANTS["full"], IntegrationConfig()
            )
            print(repr(state.n_p))
    """)
    src = str(Path(qdcavity.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    n_20, n_30 = (float(line) for line in result.stdout.split())
    assert n_20 == pytest.approx(308288.732382456, rel=1e-8)
    assert n_30 == pytest.approx(972981.4683834307, rel=1e-8)


@pytest.mark.parametrize("lifetime_ps, extra", [
    (25.0, ()), (20.0, ("--trajectory",)),
])
def test_slow_march_past_threshold_exits_2(tmp_path, lifetime_ps, extra):
    # Past the lasing threshold the photon number builds up over thousands
    # of ps while the march's step falls below 0.02 ps: at 25 ps in the
    # fallback march of a plain solve, at 20 ps in the march a trajectory
    # records to the certified root. The step budget ends both with exit 2
    # and a one-line message instead of minutes of stepping.
    config = tmp_path / "run.cfg"
    config.write_text(
        "[model]\ng_multiple_of_omega_r0 = 0.20\n"
        f"gamma_c_per_ps = {0.5 / lifetime_ps!r}\npump_per_ps = 1e5\n",
        encoding="utf-8",
    )
    src = str(Path(qdcavity.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-m", "qdcavity.cli", "simulate", "--config",
         str(config), "--out", str(tmp_path / "out.csv"), *extra],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.count("\n") == 1
    assert "steps" in result.stderr


def test_steady_state_is_fixed_point_of_integration():
    params = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    state = steady_state(params, FULL, CFG)
    moved = integrate(state, params, FULL, CFG, t_end=CFG.initial_step)
    drift = np.abs(moved.final.to_array() - state.to_array())
    assert np.max(drift) < 1e-9


def test_steady_state_record_returns_trajectory():
    params = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    state, traj = steady_state(params, FULL, CFG, record=True)
    assert isinstance(traj, Trajectory)
    assert traj.times[0] == 0.0
    assert traj.final == state
    bare = steady_state(params, FULL, CFG)
    assert bare == state


@pytest.mark.parametrize("variant", sorted(TOGGLE_VARIANTS))
@pytest.mark.parametrize("pump", [1e-2, 1.0, 1e5])
def test_recorded_trajectory_reaches_the_threshold(variant, pump):
    # The recording ends at the settling time of the flow linearised at the
    # root; the nonlinear march from vacuum must be below threshold by then,
    # before its last row is replaced by the root.
    params = saturated_params(3.0, pump=pump)
    toggles = TOGGLE_VARIANTS[variant]
    _, traj = steady_state(params, toggles, CFG, record=True)
    march = integrate(
        DynamicState.vacuum(), params, toggles, CFG, t_end=traj.times[-1]
    )
    assert march.final_residual < CFG.steady_state_residual


def test_recorded_trajectory_from_the_root():
    params = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    state = steady_state(params, FULL, CFG)
    again, traj = steady_state(params, FULL, CFG, initial=state, record=True)
    assert len(traj.times) >= 2
    assert traj.times[0] == 0.0
    assert traj.final == again == state


def test_steady_state_not_converged_carries_last_state():
    # Carriers relax at rate P + gamma_nr = 2/ps; after max_time = 1 ps the
    # flow is far from stalled, so the solver must refuse and report the
    # partially relaxed state n_e(1) = 0.5 (1 - e^-2).
    params = ModelParams(
        g=0.0, gamma_c=1.0, gamma_deph=0.0, gamma_nr=1.0,
        gamma_nl=0.0, pump=1.0,
    )
    cfg = IntegrationConfig(max_time=1.0, steady_window=0.5)
    with pytest.raises(NotConverged) as info:
        steady_state(params, FULL, cfg)
    err = info.value
    assert err.max_time == 1.0
    assert err.residual > cfg.steady_state_residual
    expected = 0.5 * (1.0 - math.exp(-2.0))
    assert err.last_state.n_e == pytest.approx(expected, rel=1e-6)


def test_physical_range_warning_on_unphysical_start():
    # Occupations above one cannot relax instantly; starting there must be
    # reported, not silently accepted.
    params = ModelParams(
        g=0.0, gamma_c=1.0, gamma_deph=0.0, gamma_nr=0.0,
        gamma_nl=0.0, pump=0.0,
    )
    with pytest.warns(PhysicalRangeWarning, match="n_e"):
        integrate(DynamicState(n_e=1.5), params, FULL, CFG, t_end=1.0)


def test_no_range_warning_inside_simplex():
    params = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", PhysicalRangeWarning)
        integrate(DynamicState.vacuum(), params, FULL, CFG, t_end=2.0)


def test_factorized_variant_keeps_correlations_at_zero():
    params = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    state = steady_state(params, FACTORIZED, CFG)
    assert state.d_photon2 == 0.0
    assert state.d_bc_aaa == 0j
    assert state.d_ce_phot == 0.0
    assert state.d_h_phot == 0.0
    assert state.n_p > 0.0


def test_steady_state_accepts_initial_guess():
    params = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    reference = steady_state(params, FULL, CFG)
    warm = steady_state(params, FULL, CFG, initial=reference)
    assert warm.n_p == pytest.approx(reference.n_p, rel=1e-9)


def test_unstable_root_falls_back_to_march():
    # Past the lasing threshold the carrier-saturated singlet root
    # n_p = g^2 / (gamma_c (gamma_c + gamma_deph) - g^2) is negative and
    # unstable. Continuation from vacuum lands on it, so steady_state must
    # reject it and reach the lasing state a time-march reaches.
    params = saturated_params(30.0)
    gc = params.gamma_c
    singlet_root = G_DIP**2 / (gc * (gc + params.gamma_deph) - G_DIP**2)
    f, jac = make_rhs(params, FACTORIZED)
    landed = _continue_to_root(
        f, jac, DynamicState.vacuum().to_array(), SINGLET_DIM, CFG
    )
    assert landed[2] == pytest.approx(singlet_root, rel=1e-3)
    assert landed[2] == pytest.approx(-1.54, abs=0.01)
    rates = np.linalg.eigvals(jac(0.0, landed)[:SINGLET_DIM, :SINGLET_DIM])
    assert max(rates.real) == pytest.approx(0.020, abs=0.001)

    state = steady_state(params, FACTORIZED, CFG)
    assert state.n_p == pytest.approx(972981.853828596, rel=1e-8)


@pytest.mark.parametrize(
    "lifetime_ps, n_p",
    [(15.5, 3.794446262702267), (15.7, 5.038069231819658), (15.8, None)],
)
def test_max_time_rule_at_lasing_threshold(lifetime_ps, n_p):
    # Approaching the threshold the slowest mode decays ever more slowly;
    # from 15.8 ps a march from vacuum cannot settle within the default
    # max_time of 1e4 ps, and a directly solved root must not be returned
    # either. The expected values are march end states, which miss the
    # exact root by up to 1.2e-8 relative at 15.7 ps, hence rel=1e-7.
    params = saturated_params(lifetime_ps)
    if n_p is None:
        with pytest.raises(NotConverged) as info:
            steady_state(params, FULL, CFG)
        assert info.value.max_time == CFG.max_time
        assert info.value.residual > CFG.steady_state_residual
    else:
        assert steady_state(params, FULL, CFG).n_p == pytest.approx(n_p, rel=1e-7)


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


@pytest.mark.parametrize("variant", sorted(TOGGLE_VARIANTS))
@pytest.mark.parametrize("pump", [1e-2, 1.0, 1e5])
@pytest.mark.parametrize("lifetime_ps", [0.2, 3.0, 10.0])
def test_steady_state_matches_plain_integration(variant, pump, lifetime_ps):
    # The direct solve against a march from vacuum long enough to damp the
    # slowest linearised mode by e^-30.
    toggles = TOGGLE_VARIANTS[variant]
    params = saturated_params(lifetime_ps, pump=pump)
    state = steady_state(params, toggles, CFG)
    n = STATE_DIM if toggles.include_doublets else SINGLET_DIM
    _, jac = make_rhs(params, toggles)
    rates = np.linalg.eigvals(jac(0.0, state.to_array())[:n, :n])
    horizon = 30.0 / min(-rates.real)
    marched = integrate(DynamicState.vacuum(), params, toggles, CFG, t_end=horizon)
    difference = gate_scaled_difference(
        observables_of(state, params), observables_of(marched.final, params)
    )
    assert difference < 1e-7
