"""Integration, steady-state detection, and failure reporting."""

import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import replace
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
    settling_trajectory,
    steady_state,
)
from qdcavity import solver
from qdcavity.dynamics import SINGLET_DIM, STATE_DIM, TOGGLE_VARIANTS, make_rhs
from qdcavity.errors import NonFiniteState
from qdcavity.model import ReferenceRabi
from qdcavity.observables import observables_of
from qdcavity.solver import (
    RUNG_STEP,
    PhysicalRangeWarning,
    _certify,
    _continue_to_root,
    _rodas_step,
    _scaled_residuals,
    scaled_residual,
)

from helpers import (
    gate_scaled_difference,
    reference_ladder_root,
    reference_march,
    reference_rodas_step,
    reference_verdicts,
    rk4_integrate,
    state_to_dict,
)

FULL = TOGGLE_VARIANTS["full"]
FACTORIZED = TOGGLE_VARIANTS["factorized"]
NO_INVERSION = TOGGLE_VARIANTS["no_inversion"]

CFG = IntegrationConfig()

# Coupling 0.20 reference units, the dip-sweep coupling.
G_DIP = ReferenceRabi().coupling_for(0.20)


def saturated_params(lifetime_ps, pump=1e5):
    """Default rates at coupling 0.20, photon lifetime as the sweeps set it."""
    return default_params(g=G_DIP, gamma_c=0.5 * (1.0 / lifetime_ps), pump=pump)


def certified_alone(rhs, jac, y0, root, n):
    """The verdict on root certified from y0 as a stack of one."""
    [certified], _ = _certify(((rhs, jac),), y0, root[None], n, CFG)
    return certified


def linear_flow(block):
    """(rhs, jac) of y' = J y, J the block padded with -1 on the diagonal."""
    J = -np.eye(STATE_DIM)
    J[:len(block), :len(block)] = block
    return (lambda t, y: J @ y), (lambda t, y: J)


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
    row = DynamicState.vacuum().to_array()
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0]), np.empty((0, STATE_DIM)))
    with pytest.raises(ValueError):
        Trajectory(np.array([]), np.empty((0, STATE_DIM)))
    with pytest.raises(ValueError):
        Trajectory(np.array([1.0]), np.array([row]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 2.0, 2.0]), np.array([row, row, row]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0]), np.array([row[:-1]]))
    with pytest.raises(ValueError):
        Trajectory(np.array([[0.0]]), np.array([row]))
    traj = Trajectory(np.array([0.0, 1.0]), np.array([row, 2.0 * row]))
    assert traj.states.shape == (2, STATE_DIM)
    assert traj.states[-1].tobytes() == (2.0 * row).tobytes()


def test_photon_decay_matches_exponential():
    params = decay_only_params(gamma_c=0.6)
    initial = DynamicState(n_p=1.0)
    traj = integrate(initial, params, FULL, CFG, t_end=5.0)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 5.0
    for t, row in zip(traj.times, traj.states):
        expected = math.exp(-2.0 * 0.6 * t)
        assert DynamicState.from_array(row).n_p == pytest.approx(
            expected, rel=1e-6
        )


def test_integrate_rejects_invalid_params_and_horizon():
    with pytest.raises(ValidationError):
        integrate(
            DynamicState.vacuum(),
            ModelParams(g=0.1, gamma_c=0.0, gamma_deph=0.0, gamma_nr=0.0,
                        gamma_nl=0.0, pump=0.0),
            FULL, CFG, t_end=1.0,
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


@pytest.mark.parametrize("magnitude, t", [(1e100, "8e-06"), (1e200, "0.001")])
def test_integrate_rejects_a_state_that_overflows_mid_march(magnitude, t):
    # Finite at t = 0, the start overflows in a step's stages: the first
    # after three rejected tries, or the first try.
    params = default_params(g=0.2, gamma_c=0.5, pump=2.0)
    start = DynamicState(n_p=magnitude, p=magnitude)
    with pytest.raises(NonFiniteState,
                       match=f"^non-finite state at t = {t} ps$"):
        integrate(start, params, FACTORIZED, CFG, t_end=1.0)


@pytest.mark.parametrize("variant", ["full", "no_inversion"])
@pytest.mark.parametrize("size", [1e100, 1e200, 1e300])
def test_huge_start_ends_in_solver_error(variant, size):
    # From n_p = Re p = size the first step's W = I/(h gamma) - J is
    # singular to working precision; the march reports it as the documented
    # SolverError, which simulate turns into exit code 2.
    params = default_params(g=0.2, gamma_c=0.5, pump=2.0)
    start = DynamicState(n_p=size, p=size)
    with pytest.raises(SolverError,
                       match="^singular step matrix at t = 0 ps$"):
        integrate(start, params, TOGGLE_VARIANTS[variant], CFG, t_end=1.0)


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
    final = state_to_dict(DynamicState.from_array(traj.states[-1]))
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


@pytest.mark.parametrize("variant", sorted(TOGGLE_VARIANTS))
@pytest.mark.parametrize("pump", [1e-2, 1.0, 1e5])
def test_rodas_step_bytes_match_reference_step(variant, pump):
    # States along a recorded march, each stepped with sizes from far below
    # to far above the march's own.
    params = saturated_params(3.0, pump=pump)
    toggles = TOGGLE_VARIANTS[variant]
    trajectory = settling_trajectory(params, toggles, CFG)
    f, jac = make_rhs(params, toggles)
    for y in trajectory.states[::25]:
        for h in (1e-4, 1e-2, 1.0, 100.0):
            args = (f, y, f(0.0, y), jac(0.0, y), h)
            ours = _rodas_step(*args)
            reference = reference_rodas_step(
                *args, solver._RODAS_GAMMA, solver._RODAS_STAGES)
            for a, b in zip(ours, reference):
                assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant", sorted(TOGGLE_VARIANTS))
@pytest.mark.parametrize("pump", [1e-2, 1.0, 1e5])
def test_march_bytes_match_reference_march(variant, pump):
    # The whole march to a recorded trajectory's horizon, step control,
    # acceptance and error norm included.
    params = saturated_params(3.0, pump=pump)
    toggles = TOGGLE_VARIANTS[variant]
    recorded = settling_trajectory(params, toggles, CFG)
    vacuum = DynamicState.vacuum()
    march = integrate(vacuum, params, toggles, CFG, recorded.times[-1])
    times, states = reference_march(vacuum, params, toggles, CFG,
                                    recorded.times[-1], solver._RODAS_GAMMA,
                                    solver._RODAS_STAGES)
    assert march.times.tobytes() == times.tobytes()
    assert march.states.tobytes() == states.tobytes()


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
    loose, tight = (
        DynamicState.from_array(t.states[-1]) for t in (loose, tight)
    )
    assert loose.n_p == pytest.approx(tight.n_p, rel=1e-6)
    assert loose.n_e == pytest.approx(tight.n_e, rel=1e-6)


def test_integration_is_deterministic():
    params = default_params(g=0.2, gamma_c=0.5, pump=2.0)
    a = integrate(DynamicState.vacuum(), params, FULL, CFG, t_end=2.0)
    b = integrate(DynamicState.vacuum(), params, FULL, CFG, t_end=2.0)
    assert a.times.tobytes() == b.times.tobytes()
    assert a.states.tobytes() == b.states.tobytes()


def test_scaled_residual_definition():
    f = np.array([3.0, 4.0])
    assert scaled_residual(f, np.array([0.0, 0.0])) == 5.0
    assert scaled_residual(f, np.array([0.0, 2.0])) == 5.0 / 2.0


def test_stacked_residuals_equal_scaled_residual_bitwise():
    # _certify judges a stack's residuals in one pass. Each must be the
    # scaled_residual of its own row to the bit: contiguous stacks, the
    # strided (m, 9, 10) views of (m, 10, 9) windows, the real part of a
    # complex flow against (m, 10) roots, norms below 1, zero rows and rows
    # holding inf or NaN.
    rng = np.random.default_rng(27)
    for m in range(1, 17):
        f = rng.standard_normal((m, 9, STATE_DIM)) * 10.0 ** rng.uniform(
            -20.0, 0.0, (m, 9, 1))
        windows = rng.standard_normal((m, STATE_DIM, 9)) * 10.0 ** rng.uniform(
            -3.0, 3.0, (m, 1, 1))
        f[0, 0] = 0.0
        windows[0, :, 1] = 0.0
        f[-1, 2, 3], f[-1, 4, 0], windows[-1, 5, 4] = np.inf, np.nan, np.nan
        f[-1, 6, 1] = windows[-1, 0, 6] = windows[-1, 0, 7] = -np.inf
        flow = (rng.standard_normal((m, SINGLET_DIM))
                + 1j * rng.standard_normal((m, SINGLET_DIM))).real * 1e-11
        samples = windows.transpose(0, 2, 1)
        for f_stack, y_stack in ((f, samples), (f, samples.copy()),
                                 (flow, windows[..., 0])):
            stacked = _scaled_residuals(f_stack, y_stack)
            assert stacked.shape == f_stack.shape[:-1]
            for at in np.ndindex(stacked.shape):
                alone = scaled_residual(f_stack[at], y_stack[at])
                assert stacked[at].tobytes() == np.float64(alone).tobytes()


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
    for y in traj.states:
        assert scaled_residual(f(0.0, y), y) < CFG.steady_state_residual


def test_window_catches_transient_growth():
    # A stable but non-normal linear flow f(y) = J y: its residual evolves
    # as f(t) = e^{J t} f(0), and started along the second axis it first
    # grows about 350-fold (peak near t = 1 ps) before it decays. A state
    # whose residual starts below threshold must still be rejected. Either
    # state, meeting the threshold, is polished onto the flow's root 0.
    J = np.array([[-1.0, 1e3, 0.0], [0.0, -1.1, 0.0], [0.0, 0.0, -2.0]])

    def f(t, y):
        return J @ y

    def jac(t, y):
        return J

    # Certified from itself, a state has no flow to settle: only its window
    # decides.
    growing = np.linalg.solve(J, [0.0, 5e-12, 0.0])
    assert scaled_residual(f(0.0, growing), growing) < CFG.steady_state_residual
    assert not certified_alone(f, jac, growing, growing, 3)
    assert reference_verdicts(((f, jac),), growing, [growing], 3,
                              CFG) == [False]
    root = _continue_to_root(f, jac, growing, 3, CFG, CFG.initial_step)
    assert root.tolist() == [0.0, 0.0, 0.0]
    # Started along the first axis the residual only decays, so a state
    # just under the threshold holds; stepping the flow backwards would
    # double its residual instead.
    decaying = np.linalg.solve(J, [0.8 * CFG.steady_state_residual, 0.0, 0.0])
    assert certified_alone(f, jac, decaying, decaying, 3)
    root = _continue_to_root(f, jac, decaying, 3, CFG, CFG.initial_step)
    assert root.tolist() == [0.0, 0.0, 0.0]


def test_window_failing_at_its_last_sample_is_refused():
    # A slower non-normal flow whose residual grows until t = 19 ps: started
    # along the second axis at threshold / 5.75, it stays below
    # threshold at 8.75 ps and is above it at 10 ps, the window's last
    # sample. The stacked verdicts, like the per-sample loop, refuse it, and
    # the same state holds over a window that ends at 8.75 ps.
    J = np.array([[-0.05, 1.0], [0.0, -0.055]])
    rhs, jac = linear_flow(J)
    late = np.zeros(STATE_DIM)
    late[:2] = np.linalg.solve(J, [0.0, CFG.steady_state_residual / 5.75])
    short = replace(CFG, steady_window=8.75)
    for cfg, verdict in ((CFG, False), (short, True)):
        [certified], _ = _certify(((rhs, jac),), late, late[None], 2, cfg)
        assert certified == verdict
        assert reference_verdicts(((rhs, jac),), late, [late], 2,
                                  cfg) == [verdict]


def test_stacked_certification_gives_each_root_its_own_verdict():
    # One stack over the five singlet components mixes a certified root,
    # the transiently growing state above (embedded with its rates), the
    # unstable factorized root past the lasing threshold, and a root whose
    # eigenvector matrix is exactly singular: a Jordan block whose second
    # eigenvector underflows onto the first. Each verdict is the one the
    # root gets alone, and only the singular root's amplitudes are NaN. The
    # unstable root's flow overflows, and the stacked residuals read it
    # without a RuntimeWarning.
    vacuum = DynamicState.vacuum().to_array()
    stable = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    certified_root = steady_state(stable, FACTORIZED, CFG).to_array()

    growing_J = np.array([[-1.0, 1e3, 0.0], [0.0, -1.1, 0.0], [0.0, 0.0, -2.0]])
    growing = np.zeros(STATE_DIM)
    growing[:3] = np.linalg.solve(growing_J, [0.0, 5e-12, 0.0])
    unstable = make_rhs(saturated_params(30.0), FACTORIZED)
    landed = _continue_to_root(*unstable, vacuum, SINGLET_DIM, CFG,
                               CFG.initial_step)
    flows = [make_rhs(stable, FACTORIZED), linear_flow(growing_J), unstable,
             linear_flow(np.array([[-1e-20, 1e300], [0.0, -1e-20]]))]
    roots = np.array([certified_root, growing, landed, np.zeros(STATE_DIM)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        certified, (_, _, amplitudes) = _certify(flows, vacuum, roots,
                                                 SINGLET_DIM, CFG)
    assert certified.tolist() == [True, False, False, False]
    assert np.isfinite(amplitudes).all(axis=1).tolist() == [
        True, True, True, False]
    for (rhs, jac), root, verdict in zip(flows, roots, certified):
        assert certified_alone(rhs, jac, vacuum, root, SINGLET_DIM) == verdict


def test_mixed_spectra_stack_gives_each_root_its_stack_of_one_numbers():
    # np.linalg.eig makes a stack's spectra complex when one is. Each root's
    # amplitudes and verdict must still be bitwise those it gets alone: the
    # full variant's dip roots, two with real spectra and two with complex
    # ones, and beside a rotation the Jordan block [[-1, 1e300], [0, -1]]
    # padded with -1, whose eigenvector matrix has a subnormal pivot. In
    # complex arithmetic that pivot gave the Jordan root NaN amplitudes and
    # refused it.
    vacuum = DynamicState.vacuum().to_array()

    dip = [saturated_params(lifetime) for lifetime in (0.2, 1.0, 3.0, 10.0)]
    stacks = [
        ([make_rhs(params, FULL) for params in dip],
         [steady_state(params, FULL, CFG).to_array() for params in dip],
         STATE_DIM),
        ([linear_flow(np.array([[-1.0, 2.0], [-2.0, -1.0]])),
          linear_flow(np.array([[-1.0, 1e300], [0.0, -1.0]]))],
         [np.zeros(STATE_DIM)] * 2, SINGLET_DIM),
    ]
    for flows, roots, n in stacks:
        certified, (rates, _, amplitudes) = _certify(
            flows, vacuum, np.array(roots), n, CFG)
        real = [not np.iscomplexobj(np.linalg.eigvals(jac(0.0, root)[:n, :n]))
                for (_, jac), root in zip(flows, roots)]
        assert np.iscomplexobj(rates) and any(real)
        assert certified.all()
        for i, ((rhs, jac), root) in enumerate(zip(flows, roots)):
            [alone], (_, _, [own]) = _certify(((rhs, jac),), vacuum,
                                              root[None], n, CFG)
            assert certified[i] == alone
            assert np.isrealobj(own) == real[i]
            assert amplitudes[i].real.tobytes() == own.real.tobytes()
            assert amplitudes[i].imag.tobytes() == np.imag(own).tobytes()


def test_line_continuation_returns_the_guessed_roots():
    # Each root of a chain along gamma_cav is bitwise the root that a chain
    # of that point alone returns, guessed from the root before; the chain
    # certifies both variants' roots in one stack.
    g_pump = dict(g=G_DIP, pump=1e5)
    points = [(default_params(gamma_c=0.5 / tau, **g_pump), toggles)
              for tau in (2.0, 2.5, 3.0) for toggles in (FULL, NO_INVERSION)]
    first = steady_state(*points[0], CFG).to_array()
    roots = solver.continue_line(points[1:], CFG, first)
    assert len(roots) == 5
    guess = first
    for point, root in zip(points[1:], roots):
        [alone] = solver.continue_line([point], CFG, guess)
        assert root.tobytes() == alone.tobytes()
        guess = root


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


def test_pump_continuation_past_threshold():
    # Just past the lasing threshold continuation from vacuum finds no root;
    # the pump ladder must reach and certify the lasing root that a Newton
    # step from the same variant's certified lasing root at a longer
    # lifetime reaches. A march from vacuum here would run for seconds to
    # its step budget, so the solves run in a child process under a limit.
    script = textwrap.dedent("""
        import json
        from dataclasses import replace
        from qdcavity import IntegrationConfig, default_params, steady_state
        from qdcavity.dynamics import STATE_DIM, TOGGLE_VARIANTS, make_rhs
        from qdcavity.model import ReferenceRabi
        from qdcavity.solver import RUNG_STEP, _continue_to_root
        g = ReferenceRabi().coupling_for(0.20)
        cfg = IntegrationConfig()
        pairs = []
        for variant, lifetime_ps, neighbour_ps in (
            ("full", 17.0, 18.0), ("full", 25.0, 28.0),
            ("no_inversion", 22.0, 28.0),
        ):
            toggles = TOGGLE_VARIANTS[variant]
            params = default_params(g=g, gamma_c=0.5 / lifetime_ps, pump=1e5)
            state = steady_state(params, toggles, cfg)
            neighbour = steady_state(
                replace(params, gamma_c=0.5 / neighbour_ps), toggles, cfg
            )
            warm = _continue_to_root(
                *make_rhs(params, toggles), neighbour.to_array(), STATE_DIM,
                cfg, RUNG_STEP,
            )
            pairs.append((state.to_array().tolist(), warm.tolist()))
        print(json.dumps(pairs))
    """)
    src = str(Path(qdcavity.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 0, result.stderr
    for state, warm in json.loads(result.stdout):
        state, warm = np.array(state), np.array(warm)
        assert state[2] > 7e4
        assert state[2] == pytest.approx(warm[2], rel=1e-7)
        assert np.linalg.norm(state - warm) <= 1e-7 * np.linalg.norm(warm)


@pytest.mark.parametrize("lifetime_ps, extra", [
    (16.5, ()), (20.0, ("--trajectory",)),
])
def test_slow_march_past_threshold_exits_2(tmp_path, lifetime_ps, extra):
    # At 16.5 ps the solve finds a root that relaxes too slowly to settle
    # within max_time and refuses it, in milliseconds. At 20 ps it certifies
    # the lasing root, but the march a trajectory records to it builds the
    # photon number up over thousands of ps while its step falls below
    # 0.02 ps, and the step budget ends it. Both exit 2 with a one-line
    # message instead of minutes of stepping.
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
    assert ("steps" if extra else "not converged") in result.stderr


def test_steady_state_is_fixed_point_of_integration():
    params = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    state = steady_state(params, FULL, CFG)
    moved = integrate(state, params, FULL, CFG, t_end=CFG.initial_step)
    drift = np.abs(moved.states[-1] - state.to_array())
    assert np.max(drift) < 1e-9


def test_steady_state_record_returns_trajectory():
    params = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    state = steady_state(params, FULL, CFG)
    traj = settling_trajectory(params, FULL, CFG)
    assert isinstance(state, DynamicState)
    assert isinstance(traj, Trajectory)
    assert traj.times[0] == 0.0
    assert traj.states[-1].tobytes() == state.to_array().tobytes()
    assert DynamicState.from_array(traj.states[-1]) == state
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
    traj = settling_trajectory(params, toggles, CFG)
    march = integrate(
        DynamicState.vacuum(), params, toggles, CFG, t_end=traj.times[-1]
    )
    f, _ = make_rhs(params, toggles)
    end = march.states[-1]
    assert scaled_residual(f(0.0, end), end) < CFG.steady_state_residual


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
    # The settling trajectory refuses the same root with the same report.
    with pytest.raises(NotConverged) as info:
        settling_trajectory(params, FULL, cfg)
    assert info.value.residual == err.residual
    assert (info.value.last_state.to_array().tobytes()
            == err.last_state.to_array().tobytes())


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
    [warm] = solver.continue_line([(params, FULL)], CFG,
                                  reference.to_array())
    assert warm[2] == pytest.approx(reference.n_p, rel=1e-9)


def test_newton_polish_pins_moments_below_the_state_norm():
    # Below a state norm of 1 the residual threshold is absolute, looser
    # than two_photon itself at this low pump (6e-11): unpolished, the cold
    # root at gamma_cav 2.2/ps and one continued from the certified root at
    # gamma_cav 0.4/ps were both certified, 2.8e-3 apart. One Newton step
    # on each pins them together.
    params = default_params(g=G_DIP, gamma_c=1.1, pump=0.012169879556501886)
    cold = steady_state(params, FULL, CFG)
    near = steady_state(replace(params, gamma_c=0.2), FULL, CFG)
    rhs, jac = make_rhs(params, FULL)
    vacuum = DynamicState.vacuum().to_array()
    warm = _continue_to_root(rhs, jac, near.to_array(), STATE_DIM, CFG,
                             RUNG_STEP)
    assert certified_alone(rhs, jac, vacuum, warm, STATE_DIM)
    [root] = solver.continue_line([(params, FULL)], CFG, near.to_array())
    assert root.tobytes() == warm.tobytes()
    guessed = DynamicState.from_array(root)
    two_photon = observables_of(cold, params).two_photon
    assert two_photon < 1e-10
    assert observables_of(guessed, params).two_photon == pytest.approx(
        two_photon, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("variant", sorted(TOGGLE_VARIANTS))
def test_vacuum_meeting_the_threshold_is_polished(variant):
    # Below a pump of about 7e-11/ps vacuum itself meets the residual
    # threshold (sqrt(2) P < 1e-10). Returned unchanged it read n_e = 0;
    # polished, it is the carrier balance n_e = n_h = P / (P + gamma_nr).
    toggles = TOGGLE_VARIANTS[variant]
    params = default_params(g=0.2, gamma_c=0.5, pump=1e-12)
    vacuum = DynamicState.vacuum().to_array()
    f, _ = make_rhs(params, toggles)
    assert scaled_residual(f(0.0, vacuum), vacuum) < CFG.steady_state_residual
    state = steady_state(params, toggles, CFG)
    balance = params.pump / (params.pump + params.gamma_nr)
    assert state.n_e == pytest.approx(balance, rel=1e-12, abs=0.0)
    assert state.n_h == pytest.approx(balance, rel=1e-12, abs=0.0)
    # Without pump vacuum is the root, +0.0 in every component: no -0.0
    # reaches a CSV.
    unpumped = steady_state(replace(params, pump=0.0), toggles, CFG)
    assert unpumped.to_array().tobytes() == vacuum.tobytes()


def test_guess_meeting_the_threshold_is_polished():
    # At weak coupling the certified full root already meets no_inversion's
    # residual threshold (fig5, gamma_cav 2.2/ps, g 0.05), so returned
    # unchanged it would pass for the no_inversion root with g2(0) 0.36%
    # off. Polished, it is the cold root on the gate's scale.
    params = default_params(g=ReferenceRabi().coupling_for(0.05),
                            gamma_c=1.1, pump=1e5)
    no_inversion = TOGGLE_VARIANTS["no_inversion"]
    full_root = steady_state(params, FULL, CFG).to_array()
    rhs, _ = make_rhs(params, no_inversion)
    assert scaled_residual(rhs(0.0, full_root), full_root) \
        < CFG.steady_state_residual
    cold = steady_state(params, no_inversion, CFG)
    [root] = solver.continue_line([(params, no_inversion)], CFG, full_root)
    guessed = DynamicState.from_array(root)
    unpolished = observables_of(DynamicState.from_array(full_root), params)
    cold_g2 = observables_of(cold, params).g2_zero
    assert unpolished.g2_zero == pytest.approx(cold_g2, rel=5e-3)
    assert unpolished.g2_zero != pytest.approx(cold_g2, rel=3e-3)
    assert gate_scaled_difference(
        observables_of(guessed, params), observables_of(cold, params)) < 1e-12


def test_guess_moves_only_the_variant_components():
    # A factorized solve guessed from a full root keeps its correlations at
    # the initial state's zeros, and equals the cold solve.
    params = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    full_root = steady_state(params, FULL, CFG).to_array()
    assert np.any(full_root[SINGLET_DIM:] != 0.0)
    [root] = solver.continue_line([(params, FACTORIZED)], CFG, full_root)
    assert np.all(root[SINGLET_DIM:] == 0.0)
    guessed = DynamicState.from_array(root)
    cold = steady_state(params, FACTORIZED, CFG)
    assert gate_scaled_difference(observables_of(guessed, params),
                                  observables_of(cold, params)) < 1e-12


def test_uncertified_guess_falls_back_to_the_cold_path():
    # A guess whose root fails certification (an unstable root) is dropped:
    # the chain returns no root, and the point is left to the cold solve,
    # which a sweep runs at every point where its chain stops.
    params = saturated_params(30.0)
    f, jac = make_rhs(params, FACTORIZED)
    unstable = _continue_to_root(
        f, jac, DynamicState.vacuum().to_array(), SINGLET_DIM, CFG,
        CFG.initial_step,
    )
    assert unstable[2] < 0.0
    assert solver.continue_line([(params, FACTORIZED)], CFG, unstable) == []
    cold = steady_state(params, FACTORIZED, CFG)
    assert cold.n_p > 0.0


def test_singular_continuation_step_is_retried_smaller():
    # The first Jacobian makes I/h - J exactly zero, so the first solve
    # raises LinAlgError; the step is quartered and the continuation still
    # reaches a root that certifies.
    params = default_params(g=0.2, gamma_c=0.5, pump=1.0)
    rhs, jac = make_rhs(params, FULL)
    calls = []

    def singular_first(t, y):
        calls.append(t)
        if len(calls) == 1:
            return np.eye(STATE_DIM) / CFG.initial_step
        return jac(t, y)

    vacuum = DynamicState.vacuum().to_array()
    root = _continue_to_root(rhs, singular_first, vacuum, STATE_DIM, CFG,
                             CFG.initial_step)
    assert len(calls) > 2
    assert certified_alone(rhs, jac, vacuum, root, STATE_DIM)
    cold = steady_state(params, FULL, CFG)
    assert gate_scaled_difference(
        observables_of(DynamicState.from_array(root), params),
        observables_of(cold, params)) < 1e-12


def test_rejected_continuation_iterates_are_retried_smaller():
    # From vacuum, no_inversion's lasing root at 25 ps is reached only
    # after iterates that more than double the residual are rejected. An
    # observer of the rhs calls counts them the way the continuation
    # judges them; the root it reaches certifies.
    params = saturated_params(25.0)
    no_inversion = TOGGLE_VARIANTS["no_inversion"]
    rhs, jac = make_rhs(params, no_inversion)
    accepted, rejected = [], []

    def observed(t, y):
        f = rhs(t, y)
        residual = scaled_residual(f, y)
        if not accepted or residual <= 2.0 * accepted[-1]:
            accepted.append(residual)
        else:
            rejected.append(residual)
        return f

    vacuum = DynamicState.vacuum().to_array()
    root = _continue_to_root(observed, jac, vacuum, STATE_DIM, CFG,
                             CFG.initial_step)
    assert len(rejected) > 0
    assert root[2] > 1e5
    assert certified_alone(rhs, jac, vacuum, root, STATE_DIM)


def test_unstable_root_falls_back_to_pump_ladder(monkeypatch):
    # Past the lasing threshold the carrier-saturated singlet root
    # n_p = g^2 / (gamma_c (gamma_c + gamma_deph) - g^2) is negative and
    # unstable. Continuation from vacuum lands on it, so steady_state must
    # reject it and reach the lasing state through the pump ladder, which
    # never marches.
    params = saturated_params(30.0)
    gc = params.gamma_c
    singlet_root = G_DIP**2 / (gc * (gc + params.gamma_deph) - G_DIP**2)
    f, jac = make_rhs(params, FACTORIZED)
    landed = _continue_to_root(
        f, jac, DynamicState.vacuum().to_array(), SINGLET_DIM, CFG,
        CFG.initial_step,
    )
    assert landed[2] == pytest.approx(singlet_root, rel=1e-3)
    assert landed[2] == pytest.approx(-1.54, abs=0.01)
    rates = np.linalg.eigvals(jac(0.0, landed)[:SINGLET_DIM, :SINGLET_DIM])
    assert max(rates.real) == pytest.approx(0.020, abs=0.001)

    def no_march(*args, **kwargs):
        raise AssertionError("steady_state marched")

    monkeypatch.setattr(solver, "integrate", no_march)
    state = steady_state(params, FACTORIZED, CFG)
    assert state.n_p == pytest.approx(972981.853828596, rel=1e-8)


@pytest.mark.parametrize("variant, lifetime_ps", [
    ("factorized", 30.0), ("full", 17.0), ("full", 25.0),
    ("no_inversion", 22.0),
])
def test_pump_ladder_root_bytes_match_reference_ladder(variant, lifetime_ps):
    # Past the lasing threshold, where continuation at the target pump
    # reaches no root or one that is not certified, the cold solve returns
    # the ladder's root bit for bit.
    toggles = TOGGLE_VARIANTS[variant]
    params = saturated_params(lifetime_ps)
    direct, climbed = reference_ladder_root(params, toggles, CFG)
    n = STATE_DIM if toggles.include_doublets else SINGLET_DIM
    vacuum = DynamicState.vacuum().to_array()
    assert direct is None or not certified_alone(
        *make_rhs(params, toggles), vacuum, direct, n)
    state = steady_state(params, toggles, CFG)
    assert state.to_array().tobytes() == climbed.tobytes()


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
        observables_of(state, params),
        observables_of(DynamicState.from_array(marched.states[-1]), params),
    )
    assert difference < 1e-7
