"""Flat sectioned key-value configuration files with units in key names.

The parser is hand-rolled instead of reusing an INI library for one reason:
every diagnostic must carry the 1-based line number of the offending entry,
including validation failures discovered after parsing. Unit-bearing key
names (gamma_c_per_ps, detuning_rad_per_ps) are deliberate; unit mistakes
are the dominant failure mode of rate-equation tools.

The [model] and [integration] keys are named once, in the field-to-key maps
below; their defaults belong to ``default_params`` and ``IntegrationConfig``,
which receive only the keys a file sets.

Comments start at '#'; values therefore cannot contain that character.
List-valued keys accept comma-separated numbers or the expressions
geom(start, stop, count) and lin(start, stop, count).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .dynamics import CorrelationToggles
from .errors import ConfigError, ValidationError
from .model import ModelParams, ReferenceRabi, default_params
from .oracle import DEFAULT_N_MAX, N_MAX_CAP
from .solver import IntegrationConfig
from .sweep import SweepGrid

# Relative agreement band on the steady-state photon number between the
# truncated hierarchy and the reference model in the weak-coupling regime
# (coupling 0.1 reference units, pump 1e-3 1/ps, gamma_c 1 1/ps). Measured
# difference with default background rates is 0.198, dominated by the
# nonlinear-loss covariance the factorization drops; band frozen at 0.25.
DEFAULT_AGREEMENT_BAND = 0.25

_MODEL_FIELD_KEYS = {
    "g": "g_rad_per_ps",
    "gamma_c": "gamma_c_per_ps",
    "gamma_deph": "gamma_deph_per_ps",
    "gamma_nr": "gamma_nr_per_ps",
    "gamma_nl": "gamma_nl_per_ps",
    "pump": "pump_per_ps",
    "detuning": "detuning_rad_per_ps",
}

_INTEGRATION_KEYS = {
    "rel_tol": "rel_tol",
    "abs_tol": "abs_tol",
    "max_time": "max_time_ps",
    "initial_step": "initial_step_ps",
    "steady_state_residual": "steady_state_residual",
    "steady_window": "steady_window_ps",
}

_SECTIONS = {
    "model": {
        *_MODEL_FIELD_KEYS.values(),
        "g_multiple_of_omega_r0", "coupling_scale_rad_per_ps",
    },
    "toggles": {"variant"},
    "integration": set(_INTEGRATION_KEYS.values()),
    "grid": {
        "gamma_cav_per_ps", "cavity_lifetime_ps", "g_multiples",
        "pump_per_ps", "variants",
    },
    "output": {"path", "format"},
    "oracle": {"n_max", "agreement_band_rel"},
}


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs.

    params.g holds the absolute coupling, whichever form the file gave it in.
    """

    params: ModelParams
    rabi: ReferenceRabi
    toggles: CorrelationToggles
    integration: IntegrationConfig
    grid: Optional[SweepGrid]
    output_path: str
    output_format: str
    oracle_n_max: int
    oracle_band: float


class _Entries:
    """Parsed (section, key) -> (raw value, line) map with typed takers."""

    def __init__(self):
        self.values: Dict[Tuple[str, str], Tuple[str, int]] = {}
        self.section_lines: Dict[str, int] = {}
        self._consumed_lines: Dict[Tuple[str, str], int] = {}

    def line_of(self, section: str, key: str) -> Optional[int]:
        # Consumed entries keep their line on record: validation failures
        # surface after parsing and must still point at the source line.
        entry = self.values.get((section, key))
        if entry is not None:
            return entry[1]
        line = self._consumed_lines.get((section, key))
        if line is not None:
            return line
        return self.section_lines.get(section)

    def raw(self, section, key):
        entry = self.values.pop((section, key), None)
        if entry is not None:
            self._consumed_lines[(section, key)] = entry[1]
        return entry

    def take_float(self, section, key, default=None):
        entry = self.raw(section, key)
        if entry is None:
            return default
        value, line = entry
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{key}: not a number: {value!r}", line)

    def take_int(self, section, key, default=None):
        entry = self.raw(section, key)
        if entry is None:
            return default
        value, line = entry
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{key}: not an integer: {value!r}", line)

    def take_str(self, section, key, default=None):
        entry = self.raw(section, key)
        if entry is None:
            return default
        return entry[0]

    def take_float_list(self, section, key):
        entry = self.raw(section, key)
        if entry is None:
            return None
        value, line = entry
        return _parse_float_list(value, key, line)

    def take_floats(self, section, field_keys):
        """{field: value} for the keys of field_keys that are set."""
        values = {}
        for field, key in field_keys.items():
            value = self.take_float(section, key)
            if value is not None:
                values[field] = value
        return values

    def finish(self):
        if self.values:
            (section, key), (_, line) = next(iter(self.values.items()))
            raise ConfigError(f"unhandled key {key} in [{section}]", line)


_RANGE_RE = re.compile(r"^(geom|lin)\(([^)]*)\)$")


def _parse_float_list(value: str, key: str, line: int) -> Tuple[float, ...]:
    match = _RANGE_RE.match(value.strip())
    if match:
        kind, body = match.groups()
        parts = [p.strip() for p in body.split(",")]
        if len(parts) != 3:
            raise ConfigError(
                f"{key}: {kind}() takes (start, stop, count), got {value!r}", line
            )
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise ConfigError(f"{key}: bad {kind}() arguments in {value!r}", line)
        if count < 1:
            raise ConfigError(f"{key}: count must be >= 1, got {count}", line)
        if kind == "geom":
            if start <= 0 or stop <= 0:
                raise ConfigError(
                    f"{key}: geom() endpoints must be positive", line
                )
            values = np.geomspace(start, stop, count)
        else:
            values = np.linspace(start, stop, count)
        return tuple(float(v) for v in values)
    out = []
    for part in value.split(","):
        part = part.strip()
        try:
            out.append(float(part))
        except ValueError:
            raise ConfigError(f"{key}: not a number: {part!r}", line)
    return tuple(out)


def _scan(text: str) -> _Entries:
    entries = _Entries()
    section = None
    for number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"unterminated section header {line!r}", number)
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                known = ", ".join(sorted(_SECTIONS))
                raise ConfigError(
                    f"unknown section [{section}] (known: {known})", number
                )
            entries.section_lines.setdefault(section, number)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", number)
        if section is None:
            raise ConfigError("key appears before any [section] header", number)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SECTIONS[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", number)
        if (section, key) in entries.values:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", number)
        if not value:
            raise ConfigError(f"{key}: empty value", number)
        entries.values[(section, key)] = (value, number)
    return entries


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration text.

    Raises ConfigError carrying the offending line number for every parse
    and validation problem.
    """
    entries = _scan(text)

    scale = entries.take_float("model", "coupling_scale_rad_per_ps")
    try:
        rabi = ReferenceRabi() if scale is None \
            else ReferenceRabi(coupling_scale=scale)
    except ValueError as err:
        raise ConfigError(
            str(err), entries.line_of("model", "coupling_scale_rad_per_ps")
        )

    model = entries.take_floats("model", _MODEL_FIELD_KEYS)
    g_multiple = entries.take_float("model", "g_multiple_of_omega_r0")
    if ("g" in model) == (g_multiple is not None):
        raise ConfigError(
            "exactly one of g_rad_per_ps or g_multiple_of_omega_r0 must be set",
            entries.section_lines.get("model"),
        )
    if g_multiple is not None:
        model["g"] = rabi.coupling_for(g_multiple)
    for field in ("gamma_c", "pump"):
        if field not in model:
            raise ConfigError(
                f"missing required key {_MODEL_FIELD_KEYS[field]} in [model]",
                entries.section_lines.get("model"),
            )
    try:
        params = default_params(**model)
    except ValidationError as err:
        lines = []
        for problem in err.problems:
            field = problem.split(":", 1)[0]
            key = _MODEL_FIELD_KEYS.get(field, field)
            lines.append(entries.line_of("model", key))
        first = next((l for l in lines if l is not None), None)
        raise ConfigError("; ".join(err.problems), first)

    variant = entries.take_str("toggles", "variant", "full")
    try:
        toggles = CorrelationToggles.from_name(variant)
    except ValueError as err:
        raise ConfigError(str(err), entries.line_of("toggles", "variant"))

    try:
        integration = IntegrationConfig(
            **entries.take_floats("integration", _INTEGRATION_KEYS)
        )
    except ValueError as err:
        field = str(err).split(" ", 1)[0]
        raise ConfigError(
            str(err),
            entries.line_of("integration", _INTEGRATION_KEYS.get(field, field)),
        )

    grid = None
    grid_line = entries.section_lines.get("grid")
    gamma_cav = entries.take_float_list("grid", "gamma_cav_per_ps")
    lifetimes = entries.take_float_list("grid", "cavity_lifetime_ps")
    g_multiples = entries.take_float_list("grid", "g_multiples")
    grid_pumps = entries.take_float_list("grid", "pump_per_ps")
    variant_entry = entries.raw("grid", "variants")
    if grid_line is not None or any(
        v is not None for v in (gamma_cav, lifetimes, g_multiples, grid_pumps,
                                variant_entry)
    ):
        if (gamma_cav is None) == (lifetimes is None):
            raise ConfigError(
                "grid needs exactly one of gamma_cav_per_ps or "
                "cavity_lifetime_ps",
                grid_line,
            )
        if g_multiples is None:
            raise ConfigError("grid needs g_multiples", grid_line)
        if grid_pumps is None:
            grid_pumps = (params.pump,)
        if variant_entry is None:
            grid_variants = (toggles,)
        else:
            names, line = variant_entry
            grid_variants = []
            for name in names.split(","):
                try:
                    grid_variants.append(CorrelationToggles.from_name(name.strip()))
                except ValueError as err:
                    raise ConfigError(str(err), line)
        try:
            if lifetimes is not None:
                grid = SweepGrid.from_lifetimes(
                    lifetimes, g_multiples, grid_pumps, grid_variants
                )
            else:
                grid = SweepGrid(
                    gamma_cav, g_multiples, grid_pumps, tuple(grid_variants)
                )
        except ValueError as err:
            raise ConfigError(str(err), grid_line)

    output_path = entries.take_str("output", "path", "qdcavity_out.csv")
    output_format = entries.take_str("output", "format", "csv")
    if output_format not in ("csv", "jsonl"):
        raise ConfigError(
            f"format must be csv or jsonl, got {output_format!r}",
            entries.line_of("output", "format"),
        )

    n_max = entries.take_int("oracle", "n_max", DEFAULT_N_MAX)
    if not 1 <= n_max <= N_MAX_CAP:
        raise ConfigError(
            f"n_max must be in [1, {N_MAX_CAP}], got {n_max}",
            entries.line_of("oracle", "n_max"),
        )
    band = entries.take_float(
        "oracle", "agreement_band_rel", DEFAULT_AGREEMENT_BAND
    )
    if not (band > 0) or not math.isfinite(band):
        raise ConfigError(
            f"agreement_band_rel must be positive, got {band}",
            entries.line_of("oracle", "agreement_band_rel"),
        )

    entries.finish()
    return RunConfig(
        params=params,
        rabi=rabi,
        toggles=toggles,
        integration=integration,
        grid=grid,
        output_path=output_path,
        output_format=output_format,
        oracle_n_max=n_max,
        oracle_band=band,
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
