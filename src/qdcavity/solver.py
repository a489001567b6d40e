"""Time integration and direct steady-state solution.

The pump rate can exceed every other rate by five orders of magnitude,
making the equations stiff. Integration therefore uses an implicit
error-controlled Runge-Kutta method (Radau IIA of order 5, embedded error
estimate) driven by the exact analytic Jacobian.

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
certified root costs no Radau step. Anything else falls back to one Radau
march over the whole budget. A recorded trajectory is one Radau march from
the initial state to the settling time of the flow linearised at the
certified root, also read off that eigen-decomposition; ``integrate`` is
the only caller of Radau. Every solve is single-threaded and
deterministic: identical inputs give bitwise-identical results on the same
platform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .dynamics import (
    SINGLET_DIM,
    STATE_DIM,
    CorrelationToggles,
    DynamicState,
    make_rhs,
)
from .errors import NonFiniteState, NotConverged, StiffnessFailure
from .model import ModelParams, validate

# Bound on continuation iterates, accepted or rejected. Roots reached from
# vacuum take about 20; a step quartered this often (4**-100) stays far above
# underflow.
MAX_CONTINUATION_STEPS = 100


class PhysicalRangeWarning(UserWarning):
    """An accepted state left the physical simplex by more than 10*rel_tol."""


@dataclass(frozen=True)
class IntegrationConfig:
    """Numerical controls for one solve.

    Defaults give at least six reliable digits in the observables, which the
    shallow correlation dip in g2(0) requires. Every field must be finite
    and positive, rel_tol also below 1.

    rel_tol, abs_tol: error tolerances of every Radau march, all of them
        ``integrate`` calls: a direct call, the steady-state fallback march
        over max_time and the march to the settling time that
        ``steady_state(record=True)`` records. The certification of a root,
        its steady window included, runs no Radau and does not read them.
        10*rel_tol is also the allowance of the physical-range check.
    max_time: default horizon of ``integrate``, in ps. For ``steady_state``
        the time budget: a root is accepted only if the flow linearised at
        it, started from the initial state, settles below
        steady_state_residual by max_time; the fallback march runs to it.
    initial_step: first Radau step, and the first pseudo-time step of the
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


def integrate(
    initial: DynamicState,
    params: ModelParams,
    toggles: CorrelationToggles,
    cfg: IntegrationConfig,
    t_end: Optional[float] = None,
) -> Trajectory:
    """Integrate from t = 0 to t_end (default cfg.max_time).

    Returns the accepted-step trajectory. Raises StiffnessFailure or
    NonFiniteState on integrator breakdown; emits PhysicalRangeWarning when
    accepted states leave the physical simplex beyond 10*rel_tol.
    """
    validate(params)
    rhs, jac = make_rhs(params, toggles)
    y0 = initial.to_array()
    horizon = cfg.max_time if t_end is None else t_end
    if not (horizon > 0.0):
        raise ValueError(f"t_end must be > 0, got {horizon}")
    if not np.all(np.isfinite(y0)):
        raise NonFiniteState("non-finite state at t = 0 ps")
    sol = solve_ivp(
        rhs,
        (0.0, horizon),
        y0,
        method="Radau",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        jac=jac,
        first_step=min(cfg.initial_step, horizon),
        dense_output=False,
    )
    if not sol.success:
        y_last = sol.y[:, -1] if sol.y.size else y0
        if not np.all(np.isfinite(y_last)) or not np.all(
            np.isfinite(rhs(sol.t[-1] if sol.t.size else 0.0, y_last))
        ):
            raise NonFiniteState(sol.message)
        # Radau gives up exactly when the controller wants a step below the
        # representable floor, under 1e-12 ps for the spans used here.
        raise StiffnessFailure(sol.message)
    _check_ranges(sol.t, sol.y, cfg.rel_tol)
    y_final = sol.y[:, -1]
    residual = scaled_residual(rhs(sol.t[-1], y_final), y_final)
    states = tuple(DynamicState.from_array(sol.y[:, k]) for k in range(sol.t.size))
    return Trajectory(
        times=tuple(float(t) for t in sol.t),
        states=states,
        final_residual=residual,
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


def _certified_root(rhs, jac, y0, n, cfg):
    """Continue from y0 to a root and certify it, or return None.

    The root must be linearly stable, the flow linearised at it must carry
    y0 below the residual threshold by cfg.max_time, and the residual must
    hold over a steady window.
    """
    root = _continue_to_root(rhs, jac, y0, n, cfg)
    if root is None:
        return None
    rates, modes = np.linalg.eig(jac(0.0, root)[:n, :n])
    if not np.all(rates.real < 0.0):
        return None
    # Linearised about the root, y(t) - root = exp(J t) (y0 - root), so the
    # residual there is J exp(J t) (y0 - root), summed here over the modes.
    try:
        amplitudes = np.linalg.solve(modes, (y0 - root)[:n])
    except np.linalg.LinAlgError:
        return None
    flow = modes @ (rates * np.exp(rates * cfg.max_time) * amplitudes)
    if not scaled_residual(flow.real, root) < cfg.steady_state_residual:
        return None
    if not _window_holds(rhs, root, rates, modes, cfg):
        return None
    return root


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

    If any check fails, one Radau march runs from the initial state to
    cfg.max_time; if it ends below the threshold, the continuation restarts
    from there and certifies again. Raises NotConverged (carrying the
    march's last state and residual) otherwise.

    With record=True, returns (state, Trajectory): the trajectory collects
    every accepted step of one Radau march from the initial state to the
    settling time of the flow linearised at the certified root, its last
    row replaced by the returned state, so the state is bitwise the one the
    bare call returns. The settling time, from the eigen-decomposition
    J = V diag(rates) V^-1 at the root, is the time by which each of the n
    modes carries its share of the residual below threshold / n, clipped to
    [initial_step, max_time]; a warm start on the root gives two rows.
    """
    validate(params)
    rhs, jac = make_rhs(params, toggles)
    start = initial or DynamicState.vacuum()
    y0 = start.to_array()
    n = STATE_DIM if toggles.include_doublets else SINGLET_DIM

    root = _certified_root(rhs, jac, y0, n, cfg)
    if root is None:
        march = integrate(start, params, toggles, cfg)
        if march.final_residual < cfg.steady_state_residual:
            root = _certified_root(rhs, jac, march.final.to_array(), n, cfg)
        if root is None:
            raise NotConverged(cfg.max_time, march.final, march.final_residual)
    state = DynamicState.from_array(root)
    if not record:
        return state

    # Linearised at the root, the residual is a sum of n modes of size
    # |rates_i a_i| e^{Re rates_i t} with a = V^-1 (y0 - root); a mode with
    # no amplitude, as at a warm start on the root, gives log(0) = -inf.
    rates, modes = np.linalg.eig(jac(0.0, root)[:n, :n])
    amplitudes = np.linalg.solve(modes, (y0 - root)[:n])
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
