"""Time integration and direct steady-state solution.

The pump rate can exceed every other rate by five orders of magnitude,
making the equations stiff. Integration therefore uses RODAS4, an L-stable
Rosenbrock method of order 4 with an embedded third-order error estimate
(Hairer & Wanner, Solving ODEs II, section IV.7): each step inverts
W = I/(h gamma) - J once, on the exact analytic Jacobian, and its six
stages share that inverse. The march is our own loop, bounded by
MAX_MARCH_STEPS steps, so that no march can run without end.

Steady states are solved for directly rather than marched to. Pseudo-
transient continuation takes linearly implicit Euler steps on the analytic
Jacobian, (I/h - J) dy = f(y), doubling the pseudo-time step h after every
accepted iterate, so the iteration starts as a damped march and ends as
Newton's method. A root is returned only once it is certified: residual
below threshold, every Jacobian eigenvalue in the left half-plane (Newton
can land on unstable roots, a time-march cannot), the linearised flow from
the initial state settled within the time budget, and the residual staying
below threshold over a window of the flow linearised at the root. Both flow
checks are evaluated in closed form on the eigen-decomposition of J, so a
certified root costs no march step. Failing that, the continuation climbs
in the pump from far below the lasing threshold (natural-parameter
continuation, Allgower & Georg, ch. 1-2); no steady-state solve marches. A
recorded trajectory is one march from the initial state to the settling
time of the flow linearised at the certified root, also read off that
eigen-decomposition; ``integrate`` is the only march.
Every solve is single-threaded and deterministic: identical inputs give
bitwise-identical results on the same platform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

import numpy as np

from .dynamics import (
    SINGLET_DIM,
    STATE_DIM,
    CorrelationToggles,
    DynamicState,
    make_rhs,
)
from .errors import NonFiniteState, NotConverged, SolverError, StiffnessFailure
from .model import ModelParams, validate


def __getattr__(name):
    # Unused by the solver: solver.solve_ivp exists only because perfbench's
    # tracer reads and patches it. Imported on first access so that a solve
    # never loads scipy. Delete this hook once the tracer stops patching it
    # (ROADMAP item 3).
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp

        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Bound on continuation iterates, accepted or rejected. Roots reached from
# vacuum take about 20; a step quartered this often (4**-100) stays far above
# underflow.
MAX_CONTINUATION_STEPS = 100

# Pump ladder start: continuation from vacuum certifies there in every variant.
PUMP_START = 1e-2
# Rungs of the ladder: 1.74x apart up to pump 1e5, close enough for Newton.
PUMP_RUNGS = 30
# First pseudo-time step of a later rung, in ps: its first iterate is Newton's.
RUNG_STEP = 1e6

# Bound on the steps of one march, accepted or rejected: about thirty times
# the longest march of the tests, the shipped figures and the benchmark pool
# (about 1060 steps). Past the lasing threshold a recorded march builds the
# photon number up over thousands of ps as its step falls below 0.02 ps;
# the budget ends it.
MAX_MARCH_STEPS = 30000


class PhysicalRangeWarning(UserWarning):
    """An accepted state left the physical simplex by more than 10*rel_tol."""


@dataclass(frozen=True)
class IntegrationConfig:
    """Numerical controls for one solve.

    Defaults give at least six reliable digits in the observables, which the
    shallow correlation dip in g2(0) requires. Every field must be finite
    and positive, rel_tol also below 1.

    rel_tol, abs_tol: error tolerances of the Rosenbrock march, every one
        ``integrate`` runs: a direct call and the march to the settling
        time that ``steady_state(record=True)`` records. A step is accepted
        when the RMS of its error estimate over abs_tol + rel_tol * |y| is
        at most 1. Finding and certifying a root, its steady window
        included, runs no march and does not read them. 10*rel_tol is also
        the allowance of the physical-range check.
    max_time: default horizon of ``integrate``, in ps. For ``steady_state``
        the time budget: a root is accepted only if the flow linearised at
        it, started from the initial state, settles below
        steady_state_residual by max_time, and a refused solve reports the
        state that flow reaches at max_time.
    initial_step: first march step, and the first pseudo-time step of the
        steady-state continuation, in ps.
    steady_state_residual: threshold on the scaled residual
        ||rhs|| / max(||state||, 1) that a steady state must meet.
    steady_window: length in ps of the window, sampled at nine evenly
        spaced times of the flow linearised at a candidate root, over which
        the scaled residual must stay below threshold.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_time: float = 1e4
    initial_step: float = 1e-3
    steady_state_residual: float = 1e-10
    steady_window: float = 10.0

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(
                    f"{field.name} must be finite and > 0, got {value}"
                )
        if not self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")


@dataclass(frozen=True)
class Trajectory:
    """States at the integrator's accepted steps.

    times is strictly increasing and starts at 0; states has the same
    length.
    """

    times: Tuple[float, ...]
    states: Tuple[DynamicState, ...]
    final_residual: float

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(self.times) == 0:
            raise ValueError("a trajectory holds at least its initial point")
        if self.times[0] != 0.0:
            raise ValueError(f"first time must be 0, got {self.times[0]}")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")

    @property
    def final(self) -> DynamicState:
        return self.states[-1]


def scaled_residual(f: np.ndarray, y: np.ndarray) -> float:
    """||f|| / max(||y||, 1), the steady-state detection metric."""
    # sqrt(v @ v) is what np.linalg.norm computes for a real vector, bit for
    # bit, without its dispatch overhead.
    return math.sqrt(float(f @ f)) / max(math.sqrt(float(y @ y)), 1.0)


def _check_ranges(times, ys, rel_tol):
    eps = 10.0 * rel_tol
    worst = None
    for name, idx, low, high in (
        ("n_e", 0, -eps, 1.0 + eps),
        ("n_h", 1, -eps, 1.0 + eps),
        ("n_p", 2, -eps, math.inf),
    ):
        values = ys[idx]
        excess = np.maximum(low - values, values - high)
        k = int(np.argmax(excess))
        if excess[k] > 0 and (worst is None or excess[k] > worst[0]):
            worst = (float(excess[k]), name, float(values[k]), float(times[k]))
    if worst is not None:
        excess, name, value, t = worst
        warnings.warn(
            f"{name} = {value:.6g} at t = {t:.6g} ps leaves the physical "
            f"range by {excess:.3g} (allowance {eps:.3g})",
            PhysicalRangeWarning,
            stacklevel=3,
        )


# Hairer & Wanner's RODAS (rodas.f, METH=1; Solving ODEs II, section IV.7):
# six stages, order 4(3), L-stable and stiffly accurate. Entry i gives stage
# i + 2's coefficients on k_1 .. k_{i+1}, a_ij in its first row and c_ij in
# its second. The sixth stage's a row is (a51, a52, a53, a54, 1), so its
# stage point is the embedded third-order solution.
_RODAS_GAMMA = 0.25
_RODAS_STAGES = tuple(np.array(rows) for rows in (
    ((1.544,),
     (-5.6688,)),
    ((0.9466785280815826, 0.2557011698983284),
     (-2.430093356833875, -0.2063599157091915)),
    ((3.314825187068521, 2.896124015972201, 0.9986419139977817),
     (-0.1073529058151375, -9.594562251023355, -20.47028614809616)),
    ((1.221224509226641, 6.019134481288629, 12.53708332932087,
      -0.6878860361058950),
     (7.496443313967647, -10.24680431464352, -33.99990352819905,
      11.70890893206160)),
    ((1.221224509226641, 6.019134481288629, 12.53708332932087,
      -0.6878860361058950, 1.0),
     (8.083246795921522, -7.981132988064893, -31.52159432874371,
      16.31930543123136, -6.058818238834054)),
))


def _rodas_step(rhs, y, f, J, h):
    """One RODAS4 step of size h from y, given f = rhs(y) and J = jac(y).

    The six stages share one inverse of W = I/(h gamma) - J: k_1 = W^-1 f(y)
    and k_i = W^-1 (f(y + sum_j a_ij k_j) + sum_j c_ij k_j / h).
    Returns the new state y + sum_j a_5j k_j + k_5 + k_6 and the error
    estimate k_6.
    """
    w_inv = np.linalg.inv(np.eye(y.size) / (h * _RODAS_GAMMA) - J)
    ks = np.empty((6, y.size))
    ks[0] = w_inv @ f
    for i, coefficients in enumerate(_RODAS_STAGES, start=1):
        a_sum, c_sum = coefficients @ ks[:i]
        stage = y + a_sum
        ks[i] = w_inv @ (rhs(0.0, stage) + c_sum / h)
    return stage + ks[5], ks[5]


def integrate(
    initial: DynamicState,
    params: ModelParams,
    toggles: CorrelationToggles,
    cfg: IntegrationConfig,
    t_end: Optional[float] = None,
) -> Trajectory:
    """Integrate from t = 0 to t_end (default cfg.max_time).

    RODAS4 steps on the analytic Jacobian, the first of cfg.initial_step.
    A step is accepted when the RMS of its error estimate, scaled by
    abs_tol + rel_tol * max(|y|, |y_new|) per component, is at most 1; the
    next step is the last one times min(6, max(0.2, 0.9 err^-1/4)), and
    does not grow right after a rejection. Returns the accepted-step
    trajectory. Raises NonFiniteState on a non-finite state,
    StiffnessFailure when the step falls below the representable floor and
    SolverError after MAX_MARCH_STEPS steps, accepted or rejected; emits
    PhysicalRangeWarning when accepted states leave the physical simplex
    beyond 10*rel_tol.
    """
    validate(params)
    rhs, jac = make_rhs(params, toggles)
    y = initial.to_array()
    horizon = cfg.max_time if t_end is None else t_end
    if not (horizon > 0.0):
        raise ValueError(f"t_end must be > 0, got {horizon}")
    if not np.all(np.isfinite(y)):
        raise NonFiniteState("non-finite state at t = 0 ps")
    t = 0.0
    times, ys = [t], [y]
    f, J = rhs(t, y), jac(t, y)
    h = cfg.initial_step
    rejected = False
    for _ in range(MAX_MARCH_STEPS):
        last = t + h >= horizon
        if last:
            h = horizon - t
        y_new, error = _rodas_step(rhs, y, f, J, h)
        if not np.all(np.isfinite(y_new)):
            raise NonFiniteState(f"non-finite state at t = {t + h:.6g} ps")
        ratio = error / (
            cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        )
        err = math.sqrt(float(ratio @ ratio) / ratio.size)
        # An exact step (err 0) grows the next one by the full factor 6.
        factor = min(6.0, max(0.2, 0.9 * max(err, 1e-16) ** -0.25))
        if err <= 1.0:
            t = horizon if last else t + h
            y = y_new
            times.append(t)
            ys.append(y)
            if last:
                break
            f, J = rhs(t, y), jac(t, y)
            if rejected:
                factor = min(factor, 1.0)
            rejected = False
        else:
            rejected = True
            if h * factor < 10.0 * (math.nextafter(t, math.inf) - t):
                raise StiffnessFailure(
                    f"step size fell below the floor at t = {t:.6g} ps"
                )
        h *= factor
    else:
        raise SolverError(
            f"march stopped after {MAX_MARCH_STEPS} steps at t = {t:.6g} "
            f"of {horizon:g} ps"
        )
    _check_ranges(times, np.array(ys).T, cfg.rel_tol)
    return Trajectory(
        times=tuple(times),
        states=tuple(map(DynamicState.from_array, ys)),
        final_residual=scaled_residual(rhs(t, y), y),
    )


def _continue_to_root(rhs, jac, y0, n, cfg):
    """Pseudo-transient continuation from y0 towards a root of rhs.

    Moves the first n components only. An iterate that at most doubles the
    scaled residual is accepted and the pseudo-time step doubles; otherwise
    it is rejected and the step quartered. Returns the first iterate below
    cfg.steady_state_residual, or None after MAX_CONTINUATION_STEPS.
    """
    y = y0
    f = rhs(0.0, y)
    residual = scaled_residual(f, y)
    J = None
    h = cfg.initial_step
    eye = np.eye(n)
    for _ in range(MAX_CONTINUATION_STEPS):
        if residual < cfg.steady_state_residual:
            return y
        if J is None:
            J = jac(0.0, y)[:n, :n]
        trial = y.copy()
        try:
            trial[:n] += np.linalg.solve(eye / h - J, f[:n])
        except np.linalg.LinAlgError:
            h *= 0.25
            continue
        f_trial = rhs(0.0, trial)
        r_trial = scaled_residual(f_trial, trial)
        if r_trial <= 2.0 * residual:
            y, f, residual, J = trial, f_trial, r_trial, None
            h *= 2.0
        else:
            h *= 0.25
    return None


def _window_holds(rhs, root, rates, modes, cfg):
    """Check the residual stays below threshold for a full steady_window.

    Samples the flow linearised at root, with Jacobian eigenvalues rates and
    eigenvectors modes over its first rates.size components, in closed form,
    y(t) = root + J^-1 (e^{J t} - I) rhs(root), at nine evenly spaced times,
    and evaluates the full nonlinear residual at each. Emits
    PhysicalRangeWarning if the samples, the first of them root itself,
    leave the physical range; their times count from root.
    """
    n = rates.size
    times = np.linspace(0.0, cfg.steady_window, 9)
    try:
        amplitudes = np.linalg.solve(modes, rhs(0.0, root)[:n])
    except np.linalg.LinAlgError:
        return False
    growth = np.expm1(np.outer(rates, times)) / rates[:, None]
    ys = np.repeat(root[:, None], times.size, axis=1)
    ys[:n] += (modes @ (growth * amplitudes[:, None])).real
    for k in range(times.size):
        if not scaled_residual(rhs(times[k], ys[:, k]), ys[:, k]) \
                < cfg.steady_state_residual:
            return False
    _check_ranges(times, ys, cfg.rel_tol)
    return True


def _ladder_roots(params, toggles, rhs, jac, y0, n, cfg):
    """Yield the root that each pump ladder reaches at the target pump: the
    target alone, on rhs and jac, then PUMP_RUNGS geometric rungs up from
    PUMP_START."""
    root = _continue_to_root(rhs, jac, y0, n, cfg)
    if root is not None:
        yield root
    if params.pump <= PUMP_START:
        return
    y, rung_cfg = y0, cfg
    for pump in np.geomspace(PUMP_START, params.pump, PUMP_RUNGS).tolist():
        rung = make_rhs(replace(params, pump=pump), toggles)
        y = _continue_to_root(*rung, y, n, rung_cfg)
        if y is None:
            return
        rung_cfg = replace(cfg, initial_step=RUNG_STEP)
    yield y


def _eigen(jac, y0, root, n):
    """J = V diag(rates) V^-1 at root: (rates, V, V^-1 (y0 - root)) or None."""
    rates, modes = np.linalg.eig(jac(0.0, root)[:n, :n])
    try:
        return rates, modes, np.linalg.solve(modes, (y0 - root)[:n])
    except np.linalg.LinAlgError:
        return None


def _certified(rhs, root, eigen, cfg):
    """Certify a root given its _eigen decomposition from the initial state.

    The root must be linearly stable, the flow linearised at it must carry
    the initial state below the residual threshold by cfg.max_time, and the
    residual must hold over a steady window.
    """
    rates, modes, amplitudes = eigen
    if not np.all(rates.real < 0.0):
        return False
    # Linearised about the root, y(t) - root = exp(J t) (y0 - root), so the
    # residual there is J exp(J t) (y0 - root), summed here over the modes.
    flow = modes @ (rates * np.exp(rates * cfg.max_time) * amplitudes)
    if not scaled_residual(flow.real, root) < cfg.steady_state_residual:
        return False
    return _window_holds(rhs, root, rates, modes, cfg)


def steady_state(
    params: ModelParams,
    toggles: CorrelationToggles,
    cfg: IntegrationConfig,
    initial: Optional[DynamicState] = None,
    record: bool = False,
):
    """Solve for the steady state reached from vacuum (or ``initial``).

    Pseudo-transient continuation on the analytic Jacobian, over all ten
    components or the five singlet ones for the factorized variant, finds a
    root of the equations of motion. It is returned once certified: scaled
    residual ||rhs|| / max(||state||, 1) below cfg.steady_state_residual,
    every eigenvalue of the Jacobian with negative real part, the flow
    linearised at the root carrying the initial state below that threshold
    within cfg.max_time, and the residual staying below it over a further
    steady_window of the flow linearised at the root, solved in closed form.
    PhysicalRangeWarning is emitted if the root or that window leaves the
    physical range.

    Failing that, the continuation climbs a ladder of pumps from PUMP_START
    to the target, and its root is certified the same way. Raises
    NotConverged otherwise, carrying the state that the flow linearised at
    the last root found reaches at max_time (the initial state if none) and
    its residual.

    With record=True, returns (state, Trajectory): the trajectory collects
    every accepted step of one march from the initial state to the
    settling time of the flow linearised at the certified root, its last
    row replaced by the returned state, so the state is bitwise the one the
    bare call returns. The settling time, from the eigen-decomposition
    J = V diag(rates) V^-1 at the root, is the time by which each of the n
    modes carries its share of the residual below threshold / n, clipped to
    [initial_step, max_time]; a warm start on the root gives two rows. Past
    the lasing threshold that march can use up MAX_MARCH_STEPS (SolverError).
    """
    validate(params)
    rhs, jac = make_rhs(params, toggles)
    start = initial or DynamicState.vacuum()
    y0 = start.to_array()
    n = STATE_DIM if toggles.include_doublets else SINGLET_DIM

    root = eigen = None
    for root in _ladder_roots(params, toggles, rhs, jac, y0, n, cfg):
        eigen = _eigen(jac, y0, root, n)
        if eigen is not None and _certified(rhs, root, eigen, cfg):
            break
    else:
        # The state that the flow linearised at the last root reaches.
        y = y0
        if eigen is not None:
            rates, modes, amplitudes = eigen
            y = root.copy()
            y[:n] += (modes @ (np.exp(rates * cfg.max_time) * amplitudes)).real
        raise NotConverged(cfg.max_time, DynamicState.from_array(y),
                           scaled_residual(rhs(0.0, y), y))
    state = DynamicState.from_array(root)
    if not record:
        return state

    # Linearised at the root, the residual is a sum of n modes of size
    # |rates_i a_i| e^{Re rates_i t} with a = V^-1 (y0 - root); a mode with
    # no amplitude, as at a warm start on the root, gives log(0) = -inf.
    rates, modes, amplitudes = eigen
    share = np.abs(rates * amplitudes) * n / (
        cfg.steady_state_residual * max(math.sqrt(float(root @ root)), 1.0)
    )
    with np.errstate(divide="ignore"):
        settle = float(np.max(np.log(share) / -rates.real))
    march = integrate(
        start, params, toggles, cfg,
        t_end=min(max(settle, cfg.initial_step), cfg.max_time),
    )
    trajectory = Trajectory(
        times=march.times,
        states=march.states[:-1] + (state,),
        final_residual=scaled_residual(rhs(0.0, root), root),
    )
    return state, trajectory
