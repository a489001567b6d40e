"""Seeded request streams for the benchmark workloads.

Every input a run can send is an entry of a fixed pool stored, with the
outputs the program gave for it, under ``refs/``. The run seed only chooses
and orders pool entries, so the outputs of any seed can be checked against
references computed once. Pools are stratified on the axis that sets a
point's cost (cavity lifetime, pump): each closed-loop unit takes one entry
per stratum, so units cost about the same whatever the seed, and entries
are taken without replacement, so no input repeats within a run until a
stratum is used up.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"

WORKLOADS = ("sweep_dip", "single_point")
# The stream the traced runs' pool probe draws its sweep from; not a
# workload, because its two processes time too unsteadily on a small shared
# host for a bounded end-to-end metric.
POOL_PROBE = "sweep_pump_par"
VARIANTS = ("full", "no_inversion", "factorized")

# sweep_dip: fig3-shaped lifetime scan under saturating pump.
DIP_PUMP = 1e5
DIP_G_MULTIPLE = 0.20
DIP_LIFETIME_RANGE = (0.2, 10.0)
DIP_VARIANTS = ("full", "no_inversion")

# sweep_pump_par (the pool probe): fig2-shaped pump scan at four cavity
# decay rates on min(2, nproc) worker processes.
PAR_PUMP_RANGE = (1e-2, 1e5)
PAR_GAMMA_CAV = (0.3, 0.4, 2.2, 8.0)
PAR_G_MULTIPLE = 0.20
PAR_WORKERS = 2

# single_point: the order of request kinds inside one cycle. Ten plain
# solves, ten recorded trajectories and one oracle comparison per cutoff
# class: the oracle dominates the total, and the median request falls among
# the solver-plus-I/O requests. The cheap requests are spread between the
# oracle comparisons so that they sample the whole cycle in time. An oracle
# comparison costs 0.4-7 s, mostly set by its variant's hierarchy solve, so
# the variant of cycle k's comparison in each class follows a fixed rotation
# and the seed only picks the entry of that variant: a run's first cycles
# cost the same whatever the seed.
ORACLE_CLASSES = ("n8", "n16", "n32", "n64", "cap")
SOLVES_PER_KIND = 10
CYCLE = tuple(
    kind for cls in ORACLE_CLASSES
    for kind in ("simulate", "trajectory", "simulate", "trajectory", "oracle:" + cls)
)


@dataclass(frozen=True)
class Request:
    """One ``cli.main`` call: its subcommand, config text and what to expect."""

    kind: str                 # sweep | simulate | trajectory | oracle
    name: str                 # file stem for the config and output
    config_text: str
    expected: dict            # reference record(s) for the correctness gate
    points: int               # hierarchy steady states the request solves
    workers: int = 1
    extra_args: Tuple[str, ...] = field(default_factory=tuple)

    def argv(self, config_path: Path, out_path: Path) -> List[str]:
        command = "oracle-compare" if self.kind == "oracle" else (
            "sweep" if self.kind == "sweep" else "simulate")
        args = [command, "--config", str(config_path), "--out", str(out_path),
                "--workers", str(self.workers)]
        return args + list(self.extra_args)


def stratified_log(rng: random.Random, lo: float, hi: float,
                   strata: int, per_stratum: int) -> List[List[float]]:
    """strata x per_stratum values, log-uniform on [lo, hi], one per sub-bin."""
    total = strata * per_stratum
    span = math.log(hi / lo)
    values = [lo * math.exp(span * (k + rng.random()) / total)
              for k in range(total)]
    return [values[s * per_stratum:(s + 1) * per_stratum] for s in range(strata)]


def load_pool(workload: str, refs_dir: Path = REFS_DIR) -> dict:
    with open(refs_dir / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _fmt(x: float) -> str:
    return repr(float(x))


def single_config(entry: dict) -> str:
    lines = [
        "[model]",
        f"g_multiple_of_omega_r0 = {_fmt(entry['g_multiple'])}",
        f"gamma_c_per_ps = {_fmt(entry['gamma_c'])}",
        f"pump_per_ps = {_fmt(entry['pump'])}",
        "",
        "[toggles]",
        f"variant = {entry['variant']}",
    ]
    if "n_max_start" in entry:
        lines += ["", "[oracle]", f"n_max = {entry['n_max_start']}"]
    return "\n".join(lines) + "\n"


def dip_config(lifetimes: List[float]) -> str:
    return "\n".join([
        "[model]",
        f"g_multiple_of_omega_r0 = {_fmt(DIP_G_MULTIPLE)}",
        "gamma_c_per_ps = 0.5",
        f"pump_per_ps = {_fmt(DIP_PUMP)}",
        "",
        "[grid]",
        "cavity_lifetime_ps = " + ", ".join(_fmt(t) for t in lifetimes),
        f"g_multiples = {_fmt(DIP_G_MULTIPLE)}",
        "variants = " + ", ".join(DIP_VARIANTS),
        "",
    ])


def par_config(pumps: List[float]) -> str:
    return "\n".join([
        "[model]",
        f"g_multiple_of_omega_r0 = {_fmt(PAR_G_MULTIPLE)}",
        "gamma_c_per_ps = 0.2",
        "pump_per_ps = 1.0",
        "",
        "[grid]",
        "gamma_cav_per_ps = " + ", ".join(_fmt(g) for g in PAR_GAMMA_CAV),
        f"g_multiples = {_fmt(PAR_G_MULTIPLE)}",
        "pump_per_ps = " + ", ".join(_fmt(p) for p in pumps),
        "variants = full",
        "",
    ])


class Stream:
    """The seeded, unbounded sequence of closed-loop units of one workload.

    A unit is one sweep command for ``sweep_dip`` and the pool probe, and
    one cycle of ``CYCLE`` requests for ``single_point``. ``unit(k)`` is a
    pure function of (workload, seed, k).
    """

    def __init__(self, workload: str, seed: int, pool: Optional[dict] = None,
                 workers: int = PAR_WORKERS):
        if workload not in WORKLOADS + (POOL_PROBE,):
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.pool = pool if pool is not None else load_pool(workload)
        self.workers = workers
        rng = random.Random(f"{workload}/{seed}")
        self._strata = self._strata_by_key()
        self._orders: Dict[str, List[List[int]]] = {}
        for key, strata in self._strata.items():
            orders = []
            for stratum in strata:
                order = list(range(len(stratum)))
                rng.shuffle(order)
                orders.append(order)
            self._orders[key] = orders
        self._offset = rng.randrange(len(VARIANTS))

    def _strata_by_key(self) -> Dict[str, List[list]]:
        if self.workload == "single_point":
            out = {"single": self.pool["simulate"]}
            for cls in ORACLE_CLASSES:
                entries = self.pool["oracle"][cls]
                out["oracle:" + cls] = [
                    [e for e in entries if e["variant"] == variant]
                    for variant in VARIANTS
                    if any(e["variant"] == variant for e in entries)]
            return out
        return {"grid": self.pool["strata"]}

    def _take(self, key: str, stratum: int, k: int) -> dict:
        order = self._orders[key][stratum]
        entries = self._strata[key][stratum]
        return entries[order[k % len(order)]]

    def unit(self, k: int) -> List[Request]:
        if self.workload == "sweep_dip":
            entries = [self._take("grid", s, k)
                       for s in range(len(self.pool["strata"]))]
            return [Request(
                kind="sweep", name=f"u{k}", config_text=dip_config(
                    [e["lifetime_ps"] for e in entries]),
                expected={"entries": entries},
                points=len(entries) * len(DIP_VARIANTS), workers=1)]
        if self.workload == "sweep_pump_par":
            entries = [self._take("grid", s, k)
                       for s in range(len(self.pool["strata"]))]
            return [Request(
                kind="sweep", name=f"u{k}", config_text=par_config(
                    [e["pump_per_ps"] for e in entries]),
                expected={"entries": entries},
                points=len(entries) * len(PAR_GAMMA_CAV), workers=self.workers)]
        return self._cycle(k)

    def _cycle(self, k: int) -> List[Request]:
        requests = []
        seen: Dict[str, int] = {}
        for position, key in enumerate(CYCLE):
            slot = seen.get(key, 0)
            seen[key] = slot + 1
            name = f"u{k}r{position}"
            if key in ("simulate", "trajectory"):
                # Slot i of a kind draws from pump stratum i mod 5, so every
                # cycle spans the pump range twice per kind; plain solves and
                # trajectories take interleaved entries of one order, so no
                # entry repeats. The variant rotates.
                strata = len(self.pool["simulate"])
                per_cycle = 2 * (SOLVES_PER_KIND // strata)
                draw = (per_cycle * k + 2 * (slot // strata)
                        + (key == "trajectory"))
                entry = dict(self._take("single", slot % strata, draw))
                entry["variant"] = VARIANTS[(self._offset + k + position)
                                            % len(VARIANTS)]
                extra = ("--trajectory",) if key == "trajectory" else ()
                requests.append(Request(
                    kind=key, name=name, config_text=single_config(entry),
                    expected=entry, points=1, extra_args=extra))
            else:
                # Class c of cycle k takes variant (k + c) mod its variant
                # count, which keeps consecutive cycles' costs within about
                # 10% of each other.
                strata = len(self._strata[key])
                stratum = (k + ORACLE_CLASSES.index(key[len("oracle:"):])) % strata
                entry = self._take(key, stratum, k // strata)
                requests.append(Request(
                    kind="oracle", name=name, config_text=single_config(entry),
                    expected=entry, points=1))
        return requests
