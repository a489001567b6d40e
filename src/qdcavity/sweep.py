"""Cartesian parameter sweeps with per-point steady-state observables.

Grid order and the emitted record schema are frozen (lexicographic in
gamma_cav, then coupling multiple, then pump, then toggle variant) so that
CSV diffs between runs are meaningful. Points are independent; they may run
on any number of worker processes and the records come back in grid order
regardless, byte-identical to a serial run.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .dynamics import CorrelationToggles, DynamicState
from .errors import NotConverged, SolverError
from .model import ModelParams, ReferenceRabi, validate
from .observables import Observables, observables_of
from .solver import IntegrationConfig, steady_state

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
        object.__setattr__(
            self, "gamma_cav_values", tuple(self.gamma_cav_values)
        )
        object.__setattr__(self, "g_values", tuple(self.g_values))
        object.__setattr__(self, "pump_values", tuple(self.pump_values))
        object.__setattr__(
            self, "toggle_variants", tuple(self.toggle_variants)
        )
        for name in ("gamma_cav_values", "g_values", "pump_values",
                     "toggle_variants"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
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
        """Grid specified by cavity lifetimes; rates are their reciprocals."""
        for tau in lifetimes_ps:
            if not (tau > 0):
                raise ValueError(f"lifetimes must be positive, got {tau}")
        return cls(
            gamma_cav_values=tuple(1.0 / tau for tau in lifetimes_ps),
            g_values=tuple(g_values),
            pump_values=tuple(pump_values),
            toggle_variants=tuple(toggle_variants),
        )

    def points(self):
        """Lexicographic iteration over the Cartesian product."""
        for gamma_cav in self.gamma_cav_values:
            for g in self.g_values:
                for pump in self.pump_values:
                    for toggles in self.toggle_variants:
                        yield gamma_cav, g, pump, toggles


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


def _solve_point(task):
    params, toggles, cfg, gamma_cav, g_multiple, pump = task
    try:
        state = steady_state(params, toggles, cfg)
        converged = True
    except NotConverged as err:
        state = err.last_state
        converged = False
    except SolverError:
        state = None
        converged = False
    if state is None:
        nan = float("nan")
        obs = Observables(
            photon_number=nan, two_photon=nan, g2_zero=None, output_rate=nan
        )
    else:
        obs = observables_of(state, params)
    return SweepRecord(
        gamma_cav=gamma_cav,
        g_over_omega_r0=g_multiple,
        pump=pump,
        toggles=toggles,
        observables=obs,
        converged=converged,
    )


def point_params(grid: SweepGrid, base: ModelParams, rabi: ReferenceRabi):
    """Each grid point's params with the point itself, in grid order."""
    for point in grid.points():
        gamma_cav, g_multiple, pump, _ = point
        params = replace(
            base,
            g=rabi.coupling_for(g_multiple),
            gamma_c=0.5 * gamma_cav,
            pump=pump,
        )
        yield params, point


def run_sweep(
    grid: SweepGrid,
    base: ModelParams,
    cfg: IntegrationConfig,
    rabi: Optional[ReferenceRabi] = None,
    workers: int = 1,
) -> List[SweepRecord]:
    """One steady-state solve per grid point, in frozen grid order.

    Raises ValidationError, before any point is solved, if the base or a
    grid point's params are invalid. Per-point solver failures are captured
    in the records (converged False, NaN observables on hard integrator
    errors); the sweep itself never aborts.
    """
    validate(base)
    tasks = [
        (validate(params), toggles, cfg, gamma_cav, g_multiple, pump)
        for params, (gamma_cav, g_multiple, pump, toggles)
        in point_params(grid, base, rabi or ReferenceRabi())
    ]
    if workers <= 1 or len(tasks) <= 1:
        return [_solve_point(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_solve_point, tasks))


def regime_classify(
    records: Sequence[SweepRecord],
    g2_threshold: float = 0.1,
    rate_threshold: float = 1e-3,
) -> List[str]:
    """Label records weak, purcell or strong.

    strong: g2(0) above g2_threshold. Otherwise weak when the output rate is
    below rate_threshold, purcell when at or above it. Records with
    undefined g2 (no photons) cannot be bunched and are never strong. The
    default thresholds are conventions of this package, not measured
    boundaries. Records must share a pump value.
    """
    pumps = {r.pump for r in records}
    if len(pumps) > 1:
        raise ValueError(f"records mix pump values: {sorted(pumps)}")
    labels = []
    for r in records:
        g2 = r.observables.g2_zero
        if g2 is not None and g2 > g2_threshold:
            labels.append("strong")
        elif r.observables.output_rate >= rate_threshold:
            labels.append("purcell")
        else:
            labels.append("weak")
    return labels


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
