"""Time integration and steady-state detection.

The pump rate can exceed every other rate by five orders of magnitude,
making the equations stiff. Integration therefore uses an implicit
error-controlled Runge-Kutta method (Radau IIA of order 5, embedded error
estimate) driven by the exact analytic Jacobian. One solve is
single-threaded and deterministic: identical inputs give bitwise-identical
trajectories on the same platform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .dynamics import CorrelationToggles, DynamicState, make_rhs
from .errors import NonFiniteState, NotConverged, StiffnessFailure
from .model import ModelParams, validate


class PhysicalRangeWarning(UserWarning):
    """An accepted state left the physical simplex by more than 10*rel_tol."""


@dataclass(frozen=True)
class IntegrationConfig:
    """Numerical controls for one solve.

    Defaults give at least six reliable digits in the observables, which the
    shallow correlation dip in g2(0) requires.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_time: float = 1e4
    initial_step: float = 1e-3
    steady_state_residual: float = 1e-10
    steady_window: float = 10.0

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if not (self.abs_tol > 0.0):
            raise ValueError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not (self.max_time > 0.0):
            raise ValueError(f"max_time must be > 0, got {self.max_time}")
        if not (self.initial_step > 0.0):
            raise ValueError(f"initial_step must be > 0, got {self.initial_step}")
        if not (self.steady_state_residual > 0.0):
            raise ValueError(
                "steady_state_residual must be > 0, got "
                f"{self.steady_state_residual}"
            )
        if not (self.steady_window > 0.0):
            raise ValueError(
                f"steady_window must be > 0, got {self.steady_window}"
            )


@dataclass(frozen=True)
class Trajectory:
    """States at the integrator's accepted steps.

    times is strictly increasing and starts at 0; states has the same
    length. converged records whether the run finished its time span (for
    steady-state runs: whether the residual criterion was met).
    """

    times: Tuple[float, ...]
    states: Tuple[DynamicState, ...]
    converged: bool
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
    return float(np.linalg.norm(f) / max(np.linalg.norm(y), 1.0))


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


def _solve_chunk(rhs, jac, t0, t1, y0, cfg, first_step=None, t_eval=None):
    if not np.all(np.isfinite(y0)):
        raise NonFiniteState(f"non-finite state at t = {t0:g} ps")
    sol = solve_ivp(
        rhs,
        (t0, t1),
        y0,
        method="Radau",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        jac=jac,
        first_step=first_step,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        y_last = sol.y[:, -1] if sol.y.size else y0
        if not np.all(np.isfinite(y_last)) or not np.all(
            np.isfinite(rhs(sol.t[-1] if sol.t.size else t0, y_last))
        ):
            raise NonFiniteState(sol.message)
        # Radau gives up exactly when the controller wants a step below the
        # representable floor, under 1e-12 ps for the spans used here.
        raise StiffnessFailure(sol.message)
    return sol


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
    sol = _solve_chunk(
        rhs, jac, 0.0, horizon, y0, cfg,
        first_step=min(cfg.initial_step, horizon),
    )
    _check_ranges(sol.t, sol.y, cfg.rel_tol)
    y_final = sol.y[:, -1]
    residual = scaled_residual(rhs(sol.t[-1], y_final), y_final)
    states = tuple(DynamicState.from_array(sol.y[:, k]) for k in range(sol.t.size))
    return Trajectory(
        times=tuple(float(t) for t in sol.t),
        states=states,
        converged=True,
        final_residual=residual,
    )


def _window_holds(rhs, jac, t, y, cfg):
    """Check the residual stays below threshold for a full steady_window."""
    samples = 8
    t_eval = np.linspace(t, t + cfg.steady_window, samples + 1)
    sol = _solve_chunk(rhs, jac, t, t + cfg.steady_window, y, cfg, t_eval=t_eval)
    for k in range(sol.t.size):
        if scaled_residual(rhs(sol.t[k], sol.y[:, k]), sol.y[:, k]) \
                >= cfg.steady_state_residual:
            return False, sol.y[:, -1], sol.t[-1]
    return True, sol.y[:, -1], sol.t[-1]


def steady_state(
    params: ModelParams,
    toggles: CorrelationToggles,
    cfg: IntegrationConfig,
    initial: Optional[DynamicState] = None,
    record: bool = False,
):
    """Integrate from vacuum (or ``initial``) until the flow stalls.

    Returns the first chunk-boundary state whose scaled residual
    ||rhs|| / max(||state||, 1) stays below cfg.steady_state_residual
    throughout a further steady_window of evolution. With record=True,
    returns (state, Trajectory) where the trajectory collects every accepted
    step up to the point where the verification window begins.

    Raises NotConverged (carrying the last state and residual) when
    cfg.max_time is exhausted first.
    """
    validate(params)
    rhs, jac = make_rhs(params, toggles)
    y = (initial or DynamicState.vacuum()).to_array()

    # Chunk long enough to damp the slowest linearized mode noticeably.
    slowest = min(
        2.0 * params.gamma_c,
        params.gamma_deph + params.gamma_c,
        params.gamma_deph + 3.0 * params.gamma_c,
        params.gamma_nr + 2.0 * params.gamma_c,
    )
    chunk = max(20.0, 10.0 / slowest)

    times: List[float] = []
    ys: List[np.ndarray] = []
    t = 0.0
    first_step = min(cfg.initial_step, chunk)
    residual = scaled_residual(rhs(0.0, y), y)
    while t < cfg.max_time:
        t_next = min(t + chunk, cfg.max_time)
        sol = _solve_chunk(rhs, jac, t, t_next, y, cfg, first_step=first_step)
        first_step = None
        _check_ranges(sol.t, sol.y, cfg.rel_tol)
        if record:
            start = 1 if times else 0
            times.extend(float(v) for v in sol.t[start:])
            ys.extend(sol.y[:, k].copy() for k in range(start, sol.t.size))
        y = sol.y[:, -1]
        t = float(sol.t[-1])
        residual = scaled_residual(rhs(t, y), y)
        if residual < cfg.steady_state_residual:
            held, y_end, t_end = _window_holds(rhs, jac, t, y, cfg)
            if held:
                state = DynamicState.from_array(y)
                if record:
                    trajectory = Trajectory(
                        times=tuple(times),
                        states=tuple(DynamicState.from_array(v) for v in ys),
                        converged=True,
                        final_residual=residual,
                    )
                    return state, trajectory
                return state
            y, t = y_end, float(t_end)
        chunk *= 1.5
    raise NotConverged(cfg.max_time, DynamicState.from_array(y), residual)
