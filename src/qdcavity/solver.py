"""Time integration and direct steady-state solution.

The pump rate can exceed every other rate by five orders of magnitude,
making the equations stiff. Integration therefore uses RODAS4, an L-stable
Rosenbrock method of order 4 with an embedded third-order error estimate
(Hairer & Wanner, Solving ODEs II, section IV.7): each step forms the
inverse of W = I/(h gamma) - J once, on the exact analytic Jacobian, as one
LAPACK solve against the identity, and its six stages share that inverse,
each stage product written in place. The march is our own loop, bounded by
MAX_MARCH_STEPS steps, so that no march can run without end.

Steady states are solved for directly rather than marched to. Pseudo-
transient continuation (Kelley & Keyes, SIAM J. Numer. Anal. 35, 508, 1998)
takes linearly implicit Euler steps on the analytic Jacobian,
(I/h - J) dy = f(y), doubling the pseudo-time step h after every accepted
iterate, so the iteration starts as a damped march and ends as Newton's
method; each root it reaches takes one more, full Newton step. Every path
is a chain, then a certification. A chain continues each point from the
root of the one before (natural-parameter continuation, Allgower & Georg,
ch. 1-2) and stops at the first that reaches no root. ``steady_state``
chains the target pump alone from vacuum and, failing that, a pump ladder
from far below the lasing threshold; ``continue_line`` chains a grid line
from a nearby certified root and returns its longest certified prefix.

A root is certified when its residual is below threshold, every Jacobian
eigenvalue lies in the left half-plane (Newton can land on unstable roots,
a time-march cannot), the linearised flow from vacuum settles within the
time budget, and the residual stays below threshold over a window of the
flow linearised at the root. Both flow checks are closed forms on the
eigen-decomposition of J, so no steady-state solve marches. Certification
takes a stack of roots that move the same components: one
eigen-decomposition of their stacked Jacobians, then one pass per spectrum
kind, real in real arithmetic and complex in complex, with stacked solves
for the mode amplitudes and one closed-form window. Only the rhs values at
the window samples go through each root's own equations; their residual
norms and verdicts are one array pass, bitwise scaled_residual's. A single
solve certifies a stack of one. A recorded trajectory is one march from
vacuum to the settling time of the flow linearised at the certified root,
also read off that eigen-decomposition; ``integrate`` is the only march.

Every solve is single-threaded and deterministic: identical inputs give
bitwise-identical results on the same platform.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from .dynamics import (
    SINGLET_DIM,
    STATE_DIM,
    CorrelationToggles,
    DynamicState,
    make_rhs,
)
from .errors import (
    NonFiniteState,
    NotConverged,
    SolverError,
    StiffnessFailure,
    ValidationError,
)
from .model import ModelParams, validate


def __getattr__(name):
    # Unused by the solver: solver.solve_ivp exists only because perfbench's
    # tracer reads and patches it. Imported on first access so that a solve
    # never loads scipy. Delete this hook once the tracer stops patching it
    # (ROADMAP item 2).
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
# Pseudo-time step from a nearby root, in ps: its first iterate is Newton's.
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
    and positive, rel_tol also below 1; a ValidationError names each field
    that is not.

    rel_tol, abs_tol: error tolerances of the Rosenbrock march, every one
        ``integrate`` runs: a direct call and the march to the settling
        time that ``steady_state(record=True)`` records. A step is accepted
        when the RMS of its error estimate over abs_tol + rel_tol * |y| is
        at most 1. Finding and certifying a root, its steady window
        included, runs no march and does not read them. 10*rel_tol is also
        the allowance of the physical-range check.
    max_time: the time budget of ``steady_state``, in ps: a root is
        accepted only if the flow linearised at it, started from vacuum,
        settles below steady_state_residual by max_time, and a refused solve
        reports the state that flow reaches at max_time.
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
        problems = []
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value > 0.0):
                problems.append(
                    f"{field.name}: must be finite and > 0, got {value}"
                )
            elif field.name == "rel_tol" and not value < 1.0:
                problems.append(f"rel_tol: must be in (0, 1), got {value}")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States at the integrator's accepted steps, as two arrays.

    times has shape (k,), k >= 1, starts at 0 and is strictly increasing;
    states has shape (k, STATE_DIM), row i the state at times[i] in the
    ARRAY_FIELDS layout of DynamicState.to_array.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times, states = self.times, self.states
        if times.ndim != 1 or states.shape != (times.size, STATE_DIM):
            raise ValueError(
                f"expected times (k,) and states (k, {STATE_DIM}), got "
                f"{times.shape} and {states.shape}"
            )
        if times.size == 0:
            raise ValueError("a trajectory holds at least its initial point")
        if times[0] != 0.0:
            raise ValueError(f"first time must be 0, got {times[0]}")
        if not np.all(times[1:] > times[:-1]):
            raise ValueError("times must be strictly increasing")


def scaled_residual(f: np.ndarray, y: np.ndarray) -> float:
    """||f|| / max(||y||, 1), the steady-state detection metric."""
    # sqrt(v @ v) is what np.linalg.norm computes for a real vector, bit for
    # bit, without its dispatch overhead.
    return math.sqrt(float(f @ f)) / max(math.sqrt(float(y @ y)), 1.0)


def _scaled_residuals(f: np.ndarray, y: np.ndarray) -> np.ndarray:
    """scaled_residual over the last axis of stacks f and y, bit for bit.

    A row times a column through np.matmul runs the same dot loop as f @ f,
    so each norm adds in the same order. Rows of NaN or inf give NaN or
    inf, as scaled_residual does, without a warning.
    """
    def squares(v):
        return np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]

    with np.errstate(over="ignore", invalid="ignore"):
        return np.sqrt(squares(f)) / np.maximum(np.sqrt(squares(y)), 1.0)


def _check_ranges(times, ys, rel_tol):
    """Warn once, at the worst excess, if states leave the physical range.

    ys holds the states as columns at times (k,), in an array of shape
    (..., STATE_DIM, k): one trajectory or a stack of windows. Of equal
    excesses the first in n_e, n_h, n_p order, then in time, is named.
    """
    eps = 10.0 * rel_tol
    values = ys[..., :3, :]
    if values.min() >= -eps and values[..., :2, :].max() <= 1.0 + eps:
        return
    values = np.moveaxis(values, -2, 0).reshape(3, -1)
    excess = np.maximum(-eps - values,
                        values - np.array([[1.0 + eps], [1.0 + eps], [math.inf]]))
    row, k = divmod(int(np.argmax(excess)), values.shape[1])
    if excess[row, k] > 0:
        warnings.warn(
            f"{('n_e', 'n_h', 'n_p')[row]} = {values[row, k]:.6g} at t = "
            f"{times[k % len(times)]:.6g} ps leaves the physical range by "
            f"{excess[row, k]:.3g} (allowance {eps:.3g})",
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
# W is formed as _EYE / (h gamma) - J, not as -J plus a diagonal: negating
# J flips the sign of its zero entries.
_EYE = np.eye(STATE_DIM)


def _rodas_step(rhs, y, f, J, h):
    """One RODAS4 step of size h from y, given f = rhs(y) and J = jac(y).

    The six stages share one inverse of W = I/(h gamma) - J: k_1 = W^-1 f(y)
    and k_i = W^-1 (f(y + sum_j a_ij k_j) + sum_j c_ij k_j / h).
    Returns the new state y + sum_j a_5j k_j + k_5 + k_6 and the error
    estimate k_6. Each stage adds to the array rhs returns, which must be
    its own.
    """
    # solve(W, I) runs the same LAPACK gesv on the same identity as
    # np.linalg.inv, bit for bit, without inv's wrapper.
    w_inv = np.linalg.solve(_EYE / (h * _RODAS_GAMMA) - J, _EYE)
    ks = np.empty((6, STATE_DIM))
    np.dot(w_inv, f, out=ks[0])
    for i, coefficients in enumerate(_RODAS_STAGES, start=1):
        sums = np.dot(coefficients, ks[:i])
        stage = y + sums[0]
        v = rhs(0.0, stage)
        v += sums[1] / h
        np.dot(w_inv, v, out=ks[i])
    return stage + ks[5], ks[5]


# A state too large for float64 overflows in a step's products; the march's
# finiteness test reports it as NonFiniteState, not as a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def integrate(
    initial: DynamicState,
    params: ModelParams,
    toggles: CorrelationToggles,
    cfg: IntegrationConfig,
    t_end: float,
) -> Trajectory:
    """Integrate from t = 0 to t_end.

    RODAS4 steps on the analytic Jacobian, the first of cfg.initial_step.
    A step is accepted when the RMS of its error estimate, scaled by
    abs_tol + rel_tol * max(|y|, |y_new|) per component, is at most 1; the
    next step is the last one times min(6, max(0.2, 0.9 err^-1/4)), and
    does not grow right after a rejection. Returns the accepted steps as a
    Trajectory of arrays. Raises NonFiniteState on a non-finite state,
    StiffnessFailure when the step falls below the representable floor, and
    SolverError on a singular step matrix W or after MAX_MARCH_STEPS steps,
    accepted or rejected; emits PhysicalRangeWarning when accepted states
    leave the physical simplex beyond 10*rel_tol.
    """
    validate(params)
    rhs, jac = make_rhs(params, toggles)
    y = initial.to_array()
    if not (t_end > 0.0):
        raise ValueError(f"t_end must be > 0, got {t_end}")
    if not np.isfinite(y).all():
        raise NonFiniteState("non-finite state at t = 0 ps")
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    t = 0.0
    times, ys = [t], [y]
    f, J = rhs(t, y), jac(t, y)
    abs_y = np.abs(y)
    h = cfg.initial_step
    rejected = False
    for _ in range(MAX_MARCH_STEPS):
        last = t + h >= t_end
        if last:
            h = t_end - t
        try:
            y_new, error = _rodas_step(rhs, y, f, J, h)
        except np.linalg.LinAlgError:
            raise SolverError(
                f"singular step matrix at t = {t:.6g} ps") from None
        abs_new = np.abs(y_new)
        # abs_y is finite, and NaN and inf pass through maximum and max, so
        # this is a finiteness test on y_new.
        scale = np.maximum(abs_y, abs_new)
        if not math.isfinite(scale.max()):
            raise NonFiniteState(f"non-finite state at t = {t + h:.6g} ps")
        scale *= rel_tol
        scale += abs_tol
        ratio = error / scale
        err = math.sqrt(float(ratio @ ratio) / STATE_DIM)
        # An exact step (err 0) grows the next one by the full factor 6.
        factor = min(6.0, max(0.2, 0.9 * max(err, 1e-16) ** -0.25))
        if err <= 1.0:
            t = t_end if last else t + h
            y, abs_y = y_new, abs_new
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
            f"of {t_end:g} ps"
        )
    states = np.array(ys)
    _check_ranges(times, states.T, cfg.rel_tol)
    return Trajectory(np.array(times), states)


def _continue_to_root(rhs, jac, y0, n, cfg, h):
    """Pseudo-transient continuation from y0 towards a root of rhs.

    Moves the first n components only, from a first pseudo-time step h. An
    iterate that at most doubles the scaled residual is accepted and the
    step doubles; otherwise it is rejected and the step quartered. The
    first iterate below cfg.steady_state_residual, y0 itself included, is
    returned after one Newton step, y[:n] -= J(y)^-1 f(y), on its own
    residual vector: the threshold alone leaves moments far below the state
    norm loose. Returns None after MAX_CONTINUATION_STEPS.
    """
    y = y0
    f = rhs(0.0, y)
    residual = scaled_residual(f, y)
    J = None
    eye = np.eye(n)
    for _ in range(MAX_CONTINUATION_STEPS):
        if residual < cfg.steady_state_residual:
            root = y.copy()
            try:
                root[:n] -= np.linalg.solve(jac(0.0, y)[:n, :n], f[:n])
            except np.linalg.LinAlgError:
                return y
            return root
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


def _chain(flows, guess, h, cfg):
    """Yield the root of each (rhs, jac, n) of flows in turn.

    Each start takes the previous root's first n components, guess's for
    the first, and vacuum's for the rest. The first pseudo-time step is h,
    RUNG_STEP after that. The chain stops at the first continuation that
    reaches no root, and reads flows no further.
    """
    vacuum = DynamicState.vacuum().to_array()
    for rhs, jac, n in flows:
        start = vacuum.copy()
        start[:n] = guess[:n]
        guess = _continue_to_root(rhs, jac, start, n, cfg, h)
        if guess is None:
            return
        yield guess
        h = RUNG_STEP


def _ladder_roots(params, toggles, rhs, jac, y0, n, cfg):
    """Yield the root that each of two chains from y0 and cfg.initial_step
    reaches at the target pump: the target pump alone, then PUMP_RUNGS
    geometric rungs from PUMP_START, each rung's closures built once
    reached, the last rung's being rhs and jac, which certify its root.
    """
    yield from _chain(((rhs, jac, n),), y0, cfg.initial_step, cfg)
    if params.pump > PUMP_START:
        flows = ((rhs, jac, n) if pump == params.pump else
                 (*make_rhs(replace(params, pump=pump), toggles), n)
                 for pump in np.geomspace(PUMP_START, params.pump,
                                          PUMP_RUNGS).tolist())
        roots = list(_chain(flows, y0, cfg.initial_step, cfg))
        if len(roots) == PUMP_RUNGS:
            yield roots[-1]


@functools.lru_cache
def _window_times(length):
    """The nine evenly spaced times, from 0 to length, of a steady window."""
    times = np.linspace(0.0, length, 9)
    times.flags.writeable = False
    return times


def _certify(flows, y0, roots, n, cfg):
    """Certify a stack of m roots that move the same first n components.

    roots is an (m, STATE_DIM) array, flows[i] the (rhs, jac) pair of
    roots[i], and y0 the start every root is certified from. A root is
    certified when it is linearly stable, the flow linearised at it carries
    y0 below the residual threshold by cfg.max_time, and the residual stays
    below threshold over a steady window of that flow, sampled at nine
    evenly spaced times, y(t) = root + J^-1 (e^{J t} - I) rhs(root). The
    matrix work is stacked: one eigen-decomposition J = V diag(rates) V^-1
    of the m Jacobians, then one pass per spectrum kind, the roots with
    real spectra in real arithmetic and those with complex ones in complex,
    each with one solve for the flow's mode amplitudes, one for the
    windows' and one expm1 over the windows. np.linalg.eig makes every
    spectrum of a stack complex when one is, and the split keeps each
    root's numbers bitwise those it gets in a stack of one. Each root's own
    rhs is called ten times if the root passes the stability and flow
    checks, rhs(root) and all nine window samples, and not at all
    otherwise; the residual norms and verdicts are one stacked pass. A root
    whose V is singular fails alone. Emits PhysicalRangeWarning if the
    certified roots' windows, the first sample of each the root itself,
    leave the physical range; their times count from the root.

    Returns (certified, (rates, modes, amplitudes)): a boolean array of
    shape (m,), and the stacked decomposition with amplitudes
    V^-1 (y0 - root) over the first n components, NaN where V is singular.
    """
    values, vectors = np.linalg.eig(np.array(
        [jac(0.0, root)[:n, :n] for (_, jac), root in zip(flows, roots)]))
    real = (values.imag == 0.0).all(axis=1)
    certified = np.zeros(len(roots), dtype=bool)
    amplitudes = np.empty((len(roots), n), dtype=values.dtype)
    times = _window_times(cfg.steady_window)
    windows = []
    for kind, arithmetic in ((real, np.real), (~real, np.asarray)):
        at = np.flatnonzero(kind)
        if not at.size:
            continue
        # A slice, not a copy, when one kind fills the stack: a copy would
        # change the layout of eig's real views, and matmul's bits with it.
        part = at if at.size < len(roots) else slice(None)
        rates, modes = arithmetic(values[part]), arithmetic(vectors[part])
        stack = roots[part]
        starts = (y0 - stack)[:, :n, None]
        try:
            a = np.linalg.solve(modes, starts)
        except np.linalg.LinAlgError:
            a = np.full(starts.shape, np.nan, dtype=modes.dtype)
            for i, (v, start) in enumerate(zip(modes, starts)):
                try:
                    a[i] = np.linalg.solve(v, start)
                except np.linalg.LinAlgError:
                    pass
        amplitudes[part] = a[..., 0]
        # Linearised about a root, y(t) - root = exp(J t) (y0 - root), so
        # the residual there is J exp(J t) (y0 - root), summed here over the
        # modes. An unstable root's flow overflows, and its stability check
        # refuses it.
        with np.errstate(over="ignore", invalid="ignore"):
            flow = (modes @ ((rates * np.exp(rates * cfg.max_time))[..., None]
                             * a)).real
        settled = _scaled_residuals(flow[..., 0], stack)
        held = np.flatnonzero((rates.real < 0.0).all(axis=1)
                              & (settled < cfg.steady_state_residual))
        if not held.size:
            continue
        # The window y(t) = root + J^-1 (e^{J t} - I) rhs(root) of each held
        # root; a slice, not a copy, when every root of the kind is held.
        keep = held if held.size < at.size else slice(None)
        rates, modes, held = rates[keep, :, None], modes[keep], at[held]
        window_amplitudes = np.linalg.solve(modes, np.array(
            [flows[i][0](0.0, roots[i])[:n, None] for i in held]))
        growth = np.expm1(rates * times) / rates
        ys = np.repeat(stack[keep, :, None], times.size, axis=2)
        ys[:, :n] += (modes @ (growth * window_amplitudes)).real
        # Each held root's own rhs at its nine samples, then every residual
        # in one pass.
        samples = ys.transpose(0, 2, 1)
        holds = (_scaled_residuals(
            np.array([[flows[i][0](t, y) for t, y in zip(times, window)]
                      for i, window in zip(held, samples)]), samples)
                 < cfg.steady_state_residual).all(axis=1)
        certified[held] = holds
        windows.append(ys[holds])
    if certified.any():
        _check_ranges(times, np.concatenate(windows), cfg.rel_tol)
    return certified, (values, vectors, amplitudes)


def steady_state(
    params: ModelParams,
    toggles: CorrelationToggles,
    cfg: IntegrationConfig,
    record: bool = False,
):
    """Solve for the steady state reached from vacuum.

    Pseudo-transient continuation on the analytic Jacobian, over all ten
    components or the five singlet ones for the factorized variant, finds
    roots of the equations of motion, each given one Newton step, even when
    its start already meets the threshold. The solve is cold, two _chain
    runs from vacuum with a first pseudo-time step of cfg.initial_step: the
    target pump alone and, failing that, a ladder of pumps from PUMP_START
    up to the target. A root is returned once certified as a stack of one:
    scaled residual ||rhs|| / max(||state||, 1) below
    cfg.steady_state_residual, every eigenvalue of the Jacobian with
    negative real part, the flow linearised at the root carrying vacuum
    below that threshold within cfg.max_time, and the residual staying
    below it over a further steady_window of that flow, solved in closed
    form. PhysicalRangeWarning is emitted if the root or that window leaves
    the physical range. Raises NotConverged otherwise, carrying the state
    that the flow linearised at the last root found reaches at max_time
    (vacuum if none) and its residual. A start from a nearby point's root
    is continue_line's.

    With record=True, returns (state, Trajectory): the trajectory collects
    every accepted step of one march from vacuum to the settling time of
    the flow linearised at the certified root, its last row overwritten
    with that root, so the row and the state are bitwise the one the bare
    call returns. The settling time, from the eigen-decomposition
    J = V diag(rates) V^-1 at the root, is the time by which each of the n
    modes carries its share of the residual below threshold / n, clipped to
    [initial_step, max_time]. Past the lasing threshold that march can use
    up MAX_MARCH_STEPS (SolverError).
    """
    validate(params)
    rhs, jac = make_rhs(params, toggles)
    y0 = DynamicState.vacuum().to_array()
    n = STATE_DIM if toggles.include_doublets else SINGLET_DIM

    root = eigen = None
    for root in _ladder_roots(params, toggles, rhs, jac, y0, n, cfg):
        [certified], eigen = _certify(((rhs, jac),), y0, root[None], n, cfg)
        if certified:
            break
    else:
        # The state that the flow linearised at the last root reaches.
        y = y0
        if eigen is not None and not np.isnan(eigen[2]).any():
            rates, modes, amplitudes = (a[0] for a in eigen)
            y = root.copy()
            y[:n] += (modes @ (np.exp(rates * cfg.max_time) * amplitudes)).real
        raise NotConverged(cfg.max_time, DynamicState.from_array(y),
                           scaled_residual(rhs(0.0, y), y))
    state = DynamicState.from_array(root)
    if not record:
        return state

    # Linearised at the root, the residual is a sum of n modes of size
    # |rates_i a_i| e^{Re rates_i t} with a = V^-1 (y0 - root); a mode with
    # no amplitude gives log(0) = -inf. From vacuum the imaginary parts,
    # decoupled at zero detuning, stay 0 at the root, so their modes have
    # none.
    rates, modes, amplitudes = (a[0] for a in eigen)
    share = np.abs(rates * amplitudes) * n / (
        cfg.steady_state_residual * max(math.sqrt(float(root @ root)), 1.0)
    )
    with np.errstate(divide="ignore"):
        settle = float(np.max(np.log(share) / -rates.real))
    march = integrate(
        DynamicState.vacuum(), params, toggles, cfg,
        t_end=min(max(settle, cfg.initial_step), cfg.max_time),
    )
    march.states[-1] = root
    return state, march


def continue_line(points, cfg: IntegrationConfig, guess: np.ndarray):
    """Continue a root along a line of points, each from the one before.

    points is a sequence of valid (params, toggles) pairs and guess a state
    array, such as a nearby point's certified root. The points' candidate
    roots are one _chain from guess, a warm start with a first pseudo-time
    step of RUNG_STEP: each point continues from the candidate before over
    its variant's n moving components, and, like every root, its candidate
    gets one Newton step, even when its start already meets the threshold.
    The candidates are certified from vacuum, as steady_state certifies a
    root, in one _certify stack for each moving dimension n among them.

    Returns the candidates before the first one that is not certified, as
    root arrays; [] when the first is not. The point after them is left to
    the caller, which solves it cold with steady_state.
    """
    y0 = DynamicState.vacuum().to_array()
    # A point's closures are built once the chain reaches it; tee keeps them.
    flows, chained = itertools.tee(
        (*make_rhs(params, toggles),
         STATE_DIM if toggles.include_doublets else SINGLET_DIM)
        for params, toggles in points)
    links = list(zip(flows, _chain(chained, guess, RUNG_STEP, cfg)))
    dims = [n for (_, _, n), _ in links]
    certified = np.zeros(len(links) + 1, dtype=bool)
    for n in set(dims):
        at = [i for i, dim in enumerate(dims) if dim == n]
        certified[at] = _certify(
            [links[i][0][:2] for i in at], y0,
            np.array([links[i][1] for i in at]), n, cfg)[0]
    # The extra last False makes argmin the length of the certified prefix.
    return [root for _, root in links[:certified.argmin()]]
