"""Correctness gate: compares each request's output with stored references.

References are the outputs the program gave for every pool entry (see
make_refs.py). The tolerance is set so that a different steady-state method
of the same accuracy passes: Newton-polishing the integrated steady states
to the exact fixed point of the equations of motion moves an observable
by less than 2e-8 relative on a sample of the pools (make_refs.py records
the figure), so the gate allows 1e-6 on values printed at full precision
and 2e-5 on values printed to 6 significant digits (two roundings of the
last digit), while a 1e-4 perturbation fails.

An operation is a grid point for sweeps and a request otherwise. It fails
when its output is missing, not converged, out of tolerance or comes with
the wrong exit code.
"""

from __future__ import annotations

import csv
import io
import math
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from qdcavity.dynamics import TOGGLE_VARIANTS

from bench_workloads import DIP_VARIANTS, PAR_GAMMA_CAV, Request

RTOL = 1e-6
RTOL_PRINTED = 2e-5

QUANTITIES = ("n_photon", "two_photon", "g2_zero", "output_rate_per_ps")


def csv_flags(variant: str) -> Tuple[str, str]:
    """The toggle flags of a variant as the sweep CSV writes them."""
    toggles = TOGGLE_VARIANTS[variant]
    return tuple("true" if flag else "false" for flag in (
        toggles.include_doublets, toggles.include_inversion_term))

_KV = re.compile(r"^([a-z_0-9]+)=\s*(\S.*)$")


def parse_number(text: str) -> Optional[float]:
    return None if text == "undefined" else float(text)


def parse_kv(stdout: str) -> Dict[str, str]:
    """``key=   value`` lines of the CLI's report."""
    out = {}
    for line in stdout.splitlines():
        match = _KV.match(line.strip())
        if match:
            out[match.group(1)] = match.group(2).strip()
    return out


def parse_simulate(stdout: str) -> dict:
    kv = parse_kv(stdout)
    record = {q: parse_number(kv[q]) for q in QUANTITIES if q in kv}
    record["converged"] = kv.get("converged")
    return record


def parse_oracle(stdout: str) -> dict:
    """Hierarchy and reference columns of the oracle-compare table."""
    hierarchy, reference = {}, {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] in QUANTITIES:
            hierarchy[parts[0]] = parse_number(parts[1])
            reference[parts[0]] = parse_number(parts[2])
    kv = parse_kv(stdout)
    return {
        "hierarchy": hierarchy,
        "reference": reference,
        "within_band": kv.get("within_band"),
    }


def parse_sweep_csv(text: str) -> List[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        for q in QUANTITIES:
            row[q] = parse_number(row[q])
    return rows


def scaled_differences(got: dict, ref: dict) -> Dict[str, float]:
    """|got - ref| per quantity, relative to the quantity's natural scale.

    two_photon is scaled by n_photon**2 (so that g2 = two_photon /
    n_photon**2 moves by at most the same amount) and g2 by 1, because
    both pass through zero inside the dip. A missing value, a mismatch of
    defined and undefined, or a non-finite value counts as infinite.
    """
    n_ref = ref["n_photon"]
    scales = {
        "n_photon": abs(n_ref),
        "two_photon": n_ref * n_ref,
        "g2_zero": 1.0,
        "output_rate_per_ps": 0.0,
    }
    out = {}
    for q in QUANTITIES:
        value, expected = got.get(q, math.nan), ref[q]
        if value is None or expected is None:
            out[q] = 0.0 if value is expected else math.inf
        elif not math.isfinite(value):
            out[q] = math.inf
        else:
            out[q] = abs(value - expected) / max(abs(expected), scales[q], 1e-300)
    return out


def observable_problems(got: dict, ref: dict, rtol: float) -> List[str]:
    """Quantities of ``got`` that differ from ``ref`` beyond ``rtol``."""
    return [f"{q} = {got.get(q, 'missing')!r}, expected {ref[q]!r} "
            f"(scaled difference {d:.3g} > {rtol:g})"
            for q, d in scaled_differences(got, ref).items() if not d <= rtol]


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= 1e-12 * abs(expected)


def expected_sweep_rows(workload: str, entries: List[dict]) -> List[Tuple[dict, dict]]:
    """(input columns, reference observables) in frozen grid order."""
    rows = []
    if workload == "sweep_dip":
        for entry in entries:
            for variant in DIP_VARIANTS:
                rows.append(({"cavity_lifetime_ps": entry["lifetime_ps"],
                              "pump_per_ps": 1e5, "variant": variant},
                             entry["results"][variant]))
    else:
        for gamma_cav in PAR_GAMMA_CAV:
            for entry in entries:
                rows.append(({"gamma_cav_per_ps": gamma_cav,
                              "pump_per_ps": entry["pump_per_ps"],
                              "variant": "full"},
                             entry["results"][repr(gamma_cav)]))
    return rows


def check_sweep(workload: str, request: Request, exit_code: Optional[int],
                out_path: Path) -> Tuple[int, List[str]]:
    """(failed points, problems) for one sweep command."""
    expected = expected_sweep_rows(workload, request.expected["entries"])
    if exit_code != 0:
        return len(expected), [f"exit code {exit_code}, expected 0"]
    try:
        rows = parse_sweep_csv(out_path.read_text(encoding="utf-8"))
    except (OSError, KeyError, ValueError) as err:
        return len(expected), [f"unreadable sweep output: {err}"]
    if len(rows) != len(expected):
        return len(expected), [f"{len(rows)} rows, expected {len(expected)}"]
    failed, problems = 0, []
    for k, (row, (inputs, ref)) in enumerate(zip(rows, expected)):
        bad = []
        for column in ("cavity_lifetime_ps", "gamma_cav_per_ps", "pump_per_ps"):
            if column in inputs and not _close(float(row[column]), inputs[column]):
                bad.append(f"{column} = {row[column]}, expected {inputs[column]!r}")
        flags = (row["include_doublets"], row["include_inversion_term"])
        if flags != csv_flags(inputs["variant"]):
            bad.append(f"toggle flags {flags} for {inputs['variant']}")
        if row["converged"] != "true":
            bad.append("not converged")
        bad += observable_problems(row, ref, RTOL)
        if bad:
            failed += 1
            problems.append(f"row {k}: " + "; ".join(bad))
    return failed, problems


def _trajectory_problems(out_path: Path, n_photon: Optional[float]) -> List[str]:
    try:
        lines = out_path.read_text(encoding="utf-8").splitlines()
    except OSError as err:
        return [f"trajectory unreadable: {err}"]
    header = lines[0].split(",") if lines else []
    if len(lines) < 3 or header[:1] != ["t_ps"] or "n_p" not in header:
        return ["trajectory file malformed"]
    try:
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    except ValueError as err:
        return [f"trajectory row unparsable: {err}"]
    times = [row[0] for row in rows]
    if times[0] != 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        return ["trajectory times not strictly increasing from 0"]
    last = rows[-1][header.index("n_p")]
    if n_photon is None or abs(last - n_photon) > 1e-9 * max(abs(n_photon), 1e-300):
        return [f"trajectory ends at n_p = {last!r}, report says {n_photon!r}"]
    return []


def check_single(request: Request, exit_code: Optional[int], stdout: str,
                 out_path: Path) -> List[str]:
    """Problems with one simulate / trajectory / oracle-compare request."""
    expected = request.expected
    if request.kind == "oracle":
        ref = expected["reference_output"]
        if exit_code != ref["exit_code"]:
            return [f"exit code {exit_code}, expected {ref['exit_code']}"]
        if exit_code == 4:
            return []
        got = parse_oracle(stdout)
        problems = []
        for column in ("hierarchy", "reference"):
            problems += [f"{column} {p}" for p in observable_problems(
                got[column], ref[column], RTOL_PRINTED)]
        if got["within_band"] != ref["within_band"]:
            problems.append(f"within_band = {got['within_band']}, "
                            f"expected {ref['within_band']}")
        return problems
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    got = parse_simulate(stdout)
    problems = []
    if got["converged"] != "true":
        problems.append("not converged")
    problems += observable_problems(got, expected["results"][expected["variant"]],
                                    RTOL)
    if request.kind == "trajectory":
        problems += _trajectory_problems(out_path, got.get("n_photon"))
    return problems
