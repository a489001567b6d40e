"""Cartesian parameter sweeps with per-point steady-state observables.

Grid order and the emitted record schema are frozen (lexicographic in
gamma_cav, then coupling multiple, then pump, then toggle variant) so that
CSV diffs between runs are meaningful. The points that share coupling
multiple and pump form a line, solved in one process in ascending gamma_cav:
a cold solve from vacuum, then one chain that warm-starts each point from
its neighbour's root, and a cold solve again where the chain stops. Lines
are independent, may run on any number of worker processes, and the records
come back in grid order regardless, byte-identical to a serial run and to a
run with the gamma_cav axis listed in any order. SweepGrid owns every rule
of a grid, its point bound included, and checks each axis value once, not
each point.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import List, Optional, Sequence, Tuple

from .dynamics import CorrelationToggles, DynamicState
from .errors import NotConverged
from .model import ModelParams, ReferenceRabi
from .observables import Observables, observables_of
from .solver import IntegrationConfig, continue_line, steady_state

# Most points one grid may hold, and so the most values of one geom() or
# lin() axis: far above the largest shipped sweep (fig2-fig5 hold 618
# points together), low enough to refuse a mistyped count at once.
MAX_GRID_POINTS = 10**6

CSV_COLUMNS = (
    "gamma_cav_per_ps",
    "cavity_lifetime_ps",
    "g_over_omega_r0",
    "pump_per_ps",
    "include_doublets",
    "include_inversion_term",
    "n_photon",
    "two_photon",
    "g2_zero",
    "output_rate_per_ps",
    "converged",
)


@dataclass(frozen=True)
class SweepGrid:
    """Axes of one sweep.

    gamma_cav_values are full cavity decay rates (2 gamma_c) in 1/ps;
    g_values are dimensionless multiples of the reference coupling scale.
    """

    gamma_cav_values: Tuple[float, ...]
    g_values: Tuple[float, ...]
    pump_values: Tuple[float, ...]
    toggle_variants: Tuple[CorrelationToggles, ...]

    def __post_init__(self):
        for axis in fields(self):
            object.__setattr__(self, axis.name, tuple(getattr(self, axis.name)))
        if len(self) > MAX_GRID_POINTS:
            raise ValueError(
                f"grid has {len(self)} points, more than {MAX_GRID_POINTS}"
            )
        for axis in fields(self):
            if not getattr(self, axis.name):
                raise ValueError(f"{axis.name} must be non-empty")
        for name in ("gamma_cav_values", "g_values", "pump_values"):
            for v in getattr(self, name):
                if not (v > 0) or not math.isfinite(v):
                    raise ValueError(f"{name} entries must be positive, got {v}")

    @classmethod
    def from_lifetimes(
        cls,
        lifetimes_ps: Sequence[float],
        g_values: Sequence[float],
        pump_values: Sequence[float],
        toggle_variants: Sequence[CorrelationToggles],
    ) -> "SweepGrid":
        """Grid specified by cavity lifetimes; rates are their reciprocals,
        each finite and positive."""
        for tau in lifetimes_ps:
            if not (tau > 0 and 0.0 < 1.0 / tau < math.inf):
                raise ValueError(f"cavity lifetime {tau} ps: its rate "
                                 f"1/lifetime must be finite and positive")
        return cls((1.0 / tau for tau in lifetimes_ps), g_values,
                   pump_values, toggle_variants)

    def __len__(self) -> int:
        """Number of points: the product of the axis lengths."""
        return math.prod(len(getattr(self, a.name)) for a in fields(self))

    def check_points(self, base: ModelParams, rabi: ReferenceRabi) -> None:
        """Raise ValidationError, naming the first invalid axis value, unless
        every point's params are valid. ModelParams checks each field on its
        own and each axis sets one field of the already checked base, so
        that holds exactly when each axis value on the base is valid.
        """
        for gamma_cav in self.gamma_cav_values:
            replace(base, gamma_c=0.5 * gamma_cav)
        for g_multiple in self.g_values:
            replace(base, g=rabi.coupling_for(g_multiple))
        for pump in self.pump_values:
            replace(base, pump=pump)


@dataclass(frozen=True)
class SweepRecord:
    """One grid point's inputs and results."""

    gamma_cav: float
    g_over_omega_r0: float
    pump: float
    toggles: CorrelationToggles
    observables: Observables
    converged: bool

    @property
    def cavity_lifetime(self) -> float:
        """1 / gamma_cav, in ps. Derived, never stored."""
        return 1.0 / self.gamma_cav


def _solve_line(task):
    """Solve one line, the points that share (g multiple, pump), in ascending
    gamma_cav and each point's distinct variants in grid order. A point is
    solved cold by steady_state; once certified, continue_line chains from
    its root over the rest of the line, and the first point the chain does
    not certify is solved cold again. A refused point's successor is solved
    cold as well. Returns the records keyed by gamma_cav, a variant listed
    twice given the same record twice."""
    base, rabi, cfg, (g_multiple, pump), gamma_cavs, variants = task
    g = rabi.coupling_for(g_multiple)
    keys = list(itertools.product(gamma_cavs, dict.fromkeys(variants)))
    points = [(replace(base, g=g, gamma_c=0.5 * gamma_cav, pump=pump), toggles)
              for gamma_cav, toggles in keys]
    solved = []
    while len(solved) < len(points):
        try:
            state = steady_state(*points[len(solved)], cfg)
        except NotConverged as err:
            solved.append((err.last_state, False))
            continue
        solved.append((state, True))
        roots = continue_line(points[len(solved):], cfg, state.to_array())
        solved += [(DynamicState.from_array(root), True) for root in roots]
    records = {
        (gamma_cav, toggles): SweepRecord(
            gamma_cav=gamma_cav,
            g_over_omega_r0=g_multiple,
            pump=pump,
            toggles=toggles,
            observables=observables_of(state, params),
            converged=converged,
        )
        for (gamma_cav, toggles), (params, _), (state, converged) in zip(
            keys, points, solved)
    }
    return {gamma_cav: [records[gamma_cav, toggles] for toggles in variants]
            for gamma_cav in gamma_cavs}


def run_sweep(
    grid: SweepGrid,
    base: ModelParams,
    cfg: IntegrationConfig,
    rabi: Optional[ReferenceRabi] = None,
    workers: int = 1,
) -> List[SweepRecord]:
    """One steady-state solve per grid point, in frozen grid order.

    Raises ValidationError, before any point is solved, if a grid point's
    params are invalid (SweepGrid.check_points). A point with
    no certified steady state is recorded with converged False and the
    observables of the state NotConverged carries; the sweep itself never
    aborts. A task is one line: the points that share coupling multiple and
    pump. It solves its distinct gamma_cav values in ascending order, each
    point's distinct variants in grid order: a repeated axis value is
    solved once and its record written at each listing. A line's first
    point is solved cold by steady_state, from vacuum. From each certified
    cold root, one solver.continue_line chain warm-starts every later point
    from the root before it and certifies the chain in one stacked check,
    so a line of certified points costs two eigen-decompositions, not one
    per point.
    The first point the chain does not certify is solved cold, as is the
    point after a refused one, and a chain starts again from each certified
    cold root. Every record is bitwise the one that solving the line one
    point at a time gives, each point warm-started alone as a chain of one
    and solved cold where that is not certified. Lines are never split and
    their order does not follow the listing of the gamma_cav axis, so a
    point's record depends neither on workers nor on that listing. Runs on
    at most min(workers, lines, CPUs) processes, serially when that is 1;
    raises ValueError for workers below 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    rabi = rabi or ReferenceRabi()
    grid.check_points(base, rabi)
    gamma_cavs = sorted(set(grid.gamma_cav_values))
    tasks = ((base, rabi, cfg, line, gamma_cavs, grid.toggle_variants)
             for line in itertools.product(grid.g_values, grid.pump_values))
    # The pool starts every worker at once: never more than lines or CPUs.
    workers = min(workers, len(grid.g_values) * len(grid.pump_values),
                  os.cpu_count() or 1)
    if workers <= 1:
        lines = list(map(_solve_line, tasks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            lines = list(pool.map(_solve_line, tasks))
    return [r for gamma_cav in grid.gamma_cav_values
            for line in lines for r in line[gamma_cav]]


def _values(r: SweepRecord) -> tuple:
    """One record's values in CSV_COLUMNS order; undefined g2 is None."""
    obs = r.observables
    return (
        r.gamma_cav,
        r.cavity_lifetime,
        r.g_over_omega_r0,
        r.pump,
        r.toggles.include_doublets,
        r.toggles.include_inversion_term,
        obs.photon_number,
        obs.two_photon,
        obs.g2_zero,
        obs.output_rate,
        r.converged,
    )


def _csv_field(x) -> str:
    if x is None:
        return "undefined"
    if isinstance(x, bool):
        return "true" if x else "false"
    return repr(float(x))


def _json_field(x):
    # Undefined g2 and non-finite floats render as null to keep every line
    # strict JSON.
    if x is None or isinstance(x, bool):
        return x
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class SweepTable:
    """Flat rendering of sweep records under the frozen column schema."""

    records: Tuple[SweepRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))

    def header(self) -> str:
        return ",".join(CSV_COLUMNS)

    def csv_rows(self) -> List[str]:
        return [
            ",".join(_csv_field(x) for x in _values(r)) for r in self.records
        ]

    def jsonl_rows(self) -> List[str]:
        return [
            json.dumps(
                dict(zip(CSV_COLUMNS, map(_json_field, _values(r)))),
                separators=(",", ":"),
            )
            for r in self.records
        ]
