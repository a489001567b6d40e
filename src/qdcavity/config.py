"""Flat sectioned key-value configuration files with units in key names.

The parser is hand-rolled instead of reusing an INI library for one reason:
every diagnostic must carry the 1-based line number of the offending entry,
including validation failures discovered after parsing. Unit-bearing key
names (gamma_c_per_ps, detuning_rad_per_ps) are deliberate; unit mistakes
are the dominant failure mode of rate-equation tools.

Every key is named once, in ``_SECTIONS``, with the function that parses and
checks its value; the scan calls it, so a malformed value fails at its own
line. Checks that join several keys run after the scan: one coupling form,
the required keys, the grid, and the invariants of ``ModelParams`` and
``IntegrationConfig``, which each check themselves on construction. So when
a file has several errors, a per-value error is reported before a cross-key
one. A [model] or [integration] key is the name of its field plus its unit;
the defaults belong to ``ModelParams`` and ``IntegrationConfig``, which
receive only the keys a file sets.

Comments start at '#'; values therefore cannot contain that character.
List-valued keys accept comma-separated numbers or the expressions
geom(start, stop, count) and lin(start, stop, count). A geom() or lin()
count above sweep.MAX_GRID_POINTS is refused before its array is built.
The grid's own rules belong to ``SweepGrid``: its point bound and axis
checks, and ``check_points``, which checks each axis value once against
[model]. Their errors are reported at the [grid] header's line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .dynamics import TOGGLE_VARIANTS, CorrelationToggles
from .errors import ConfigError, ValidationError
from .model import ModelParams, ReferenceRabi
from .oracle import DEFAULT_N_MAX, N_MAX_CAP
from .solver import IntegrationConfig
from .sweep import MAX_GRID_POINTS, SweepGrid

# Relative agreement band on the steady-state photon number between the
# truncated hierarchy and the reference model in the weak-coupling regime
# (coupling 0.1 reference units, pump 1e-3 1/ps, gamma_c 1 1/ps). Measured
# difference with default background rates is 0.198, dominated by the
# nonlinear-loss covariance the factorization drops; band frozen at 0.25.
DEFAULT_AGREEMENT_BAND = 0.25


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


# Value parsers: each takes the key and its raw text, and returns the
# checked value or raises ValueError with the message to report.

def _number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{key}: not a number: {text!r}")


_RANGE_RE = re.compile(r"^(geom|lin)\(([^)]*)\)$")


def _number_list(key: str, text: str) -> Tuple[float, ...]:
    match = _RANGE_RE.match(text)
    if not match:
        return tuple(_number(key, part.strip()) for part in text.split(","))
    kind, body = match.groups()
    parts = [p.strip() for p in body.split(",")]
    if len(parts) != 3:
        raise ValueError(
            f"{key}: {kind}() takes (start, stop, count), got {text!r}"
        )
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"{key}: bad {kind}() arguments in {text!r}")
    if count < 1:
        raise ValueError(f"{key}: count must be >= 1, got {count}")
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"{key}: count must be <= {MAX_GRID_POINTS}, got {count}"
        )
    if kind == "lin":
        return tuple(np.linspace(start, stop, count).tolist())
    if start <= 0 or stop <= 0:
        raise ValueError(f"{key}: geom() endpoints must be positive")
    return tuple(np.geomspace(start, stop, count).tolist())


def _variant(key: str, text: str) -> CorrelationToggles:
    return CorrelationToggles.from_name(text)


def _variants(key: str, text: str) -> Tuple[CorrelationToggles, ...]:
    return tuple(_variant(key, name.strip()) for name in text.split(","))


def _format(key: str, text: str) -> str:
    if text not in ("csv", "jsonl"):
        raise ValueError(f"format must be csv or jsonl, got {text!r}")
    return text


def _n_max(key: str, text: str) -> int:
    try:
        n_max = int(text)
    except ValueError:
        raise ValueError(f"{key}: not an integer: {text!r}")
    if not 1 <= n_max <= N_MAX_CAP:
        raise ValueError(f"n_max must be in [1, {N_MAX_CAP}], got {n_max}")
    return n_max


def _band(key: str, text: str) -> float:
    band = _number(key, text)
    if not (band > 0) or not math.isfinite(band):
        raise ValueError(f"agreement_band_rel must be positive, got {band}")
    return band


_SECTIONS = {
    "model": {
        **dict.fromkeys((
            "g_rad_per_ps", "gamma_c_per_ps", "gamma_deph_per_ps",
            "gamma_nr_per_ps", "gamma_nl_per_ps", "pump_per_ps",
            "detuning_rad_per_ps", "g_multiple_of_omega_r0",
        ), _number),
        "coupling_scale_rad_per_ps": lambda key, text: ReferenceRabi(
            coupling_scale=_number(key, text)
        ),
    },
    "toggles": {"variant": _variant},
    "integration": dict.fromkeys((
        "rel_tol", "abs_tol", "max_time_ps", "initial_step_ps",
        "steady_state_residual", "steady_window_ps",
    ), _number),
    "grid": {
        **dict.fromkeys((
            "gamma_cav_per_ps", "cavity_lifetime_ps", "g_multiples",
            "pump_per_ps",
        ), _number_list),
        "variants": _variants,
    },
    "output": {"path": lambda key, text: text, "format": _format},
    "oracle": {"n_max": _n_max, "agreement_band_rel": _band},
}

# The unit that a [model] or [integration] key adds to its field's name.
_UNIT_RE = re.compile(r"(_rad)?(_per)?_ps$")


def _scan(text: str):
    """{(section, key): (checked value, line)} of the keys set, and
    {section: line} of each section's first header."""
    entries: Dict[Tuple[str, str], Tuple[Any, int]] = {}
    headers: Dict[str, int] = {}
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
            headers.setdefault(section, number)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", number)
        if section is None:
            raise ConfigError("key appears before any [section] header", number)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        parse = _SECTIONS[section].get(key)
        if parse is None:
            raise ConfigError(f"unknown key {key!r} in [{section}]", number)
        if (section, key) in entries:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", number)
        if not value:
            raise ConfigError(f"{key}: empty value", number)
        try:
            entries[(section, key)] = (parse(key, value), number)
        except ValueError as err:
            raise ConfigError(str(err), number)
    return entries, headers


def _fields(entries, section: str) -> Dict[str, Tuple[Any, int]]:
    """{field: (value, line)} of a section's set keys."""
    return {_UNIT_RE.sub("", key): entry
            for (sect, key), entry in entries.items() if sect == section}


def _build(make, fields: Dict[str, Tuple[Any, int]]):
    """make(**values of fields), a ValidationError reported at the line of
    the field its first problem names."""
    try:
        return make(**{field: value for field, (value, _) in fields.items()})
    except ValidationError as err:
        field = err.problems[0].split(":", 1)[0]
        raise ConfigError(str(err), fields[field][1])


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration text.

    Raises ConfigError carrying the offending line number for every parse
    and validation problem.
    """
    entries, headers = _scan(text)

    def value(section: str, key: str, default=None):
        return entries.get((section, key), (default,))[0]

    model_line = headers.get("model")
    model = _fields(entries, "model")
    rabi = model.pop("coupling_scale", (ReferenceRabi(),))[0]
    g_multiple = model.pop("g_multiple_of_omega_r0", (None,))[0]
    if ("g" in model) == (g_multiple is not None):
        raise ConfigError(
            "exactly one of g_rad_per_ps or g_multiple_of_omega_r0 must be set",
            model_line,
        )
    for key in ("gamma_c_per_ps", "pump_per_ps"):
        if ("model", key) not in entries:
            raise ConfigError(f"missing required key {key} in [model]", model_line)
    if g_multiple is not None:
        model["g"] = (rabi.coupling_for(g_multiple), model_line)
    params = _build(ModelParams, model)
    toggles = value("toggles", "variant", TOGGLE_VARIANTS["full"])
    integration = _build(IntegrationConfig, _fields(entries, "integration"))

    grid = None
    if "grid" in headers:
        grid_line = headers["grid"]
        gamma_cav = value("grid", "gamma_cav_per_ps")
        lifetimes = value("grid", "cavity_lifetime_ps")
        g_multiples = value("grid", "g_multiples")
        if (gamma_cav is None) == (lifetimes is None):
            raise ConfigError(
                "grid needs exactly one of gamma_cav_per_ps or "
                "cavity_lifetime_ps",
                grid_line,
            )
        if g_multiples is None:
            raise ConfigError("grid needs g_multiples", grid_line)
        axes = (
            lifetimes if gamma_cav is None else gamma_cav,
            g_multiples,
            value("grid", "pump_per_ps", (params.pump,)),
            value("grid", "variants", (toggles,)),
        )
        try:
            grid = (SweepGrid(*axes) if gamma_cav is not None
                    else SweepGrid.from_lifetimes(*axes))
        except ValueError as err:
            raise ConfigError(str(err), grid_line)
        # An axis value can be valid alone and still give an invalid point,
        # such as a coupling multiple times the scale overflowing to inf.
        try:
            grid.check_points(params, rabi)
        except ValidationError as err:
            raise ConfigError(
                "grid point: " + "; ".join(err.problems), grid_line
            )

    return RunConfig(
        params=params,
        rabi=rabi,
        toggles=toggles,
        integration=integration,
        grid=grid,
        output_path=value("output", "path", "qdcavity_out.csv"),
        output_format=value("output", "format", "csv"),
        oracle_n_max=value("oracle", "n_max", DEFAULT_N_MAX),
        oracle_band=value("oracle", "agreement_band_rel", DEFAULT_AGREEMENT_BAND),
    )


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
