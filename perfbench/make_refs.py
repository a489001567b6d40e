"""Regenerate the input pools and their reference outputs under refs/.

    python3 perfbench/make_refs.py

Run from the repository root. Each pool entry is sent through ``cli.main``
exactly as the benchmark sends it, and the parsed output is stored as the
reference. The pools are drawn from POOL_SEED, so rerunning on the same
code gives the same inputs. The script also Newton-polishes a sample of the
steady states to the exact fixed point of the equations of motion and
records the largest change it makes to an observable, the evidence for the
gate's tolerance.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import multiprocessing
import os
import random
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402
from scipy.optimize import root  # noqa: E402

from qdcavity import cli, model, observables, solver  # noqa: E402
from qdcavity.dynamics import TOGGLE_VARIANTS, DynamicState, make_rhs  # noqa: E402
from qdcavity.oracle import HilbertSpace, state_index, steady_state_density  # noqa: E402

import bench_gate  # noqa: E402
from bench_workloads import (  # noqa: E402
    DIP_LIFETIME_RANGE, DIP_VARIANTS, ORACLE_CLASSES, PAR_GAMMA_CAV,
    PAR_PUMP_RANGE, PAR_WORKERS, REFS_DIR, VARIANTS, dip_config, par_config,
    single_config, stratified_log,
)

POOL_SEED = 20250626

DIP_STRATA, DIP_PER_STRATUM = 8, 30
PAR_STRATA, PAR_PER_STRATUM = 6, 24
SIMULATE_STRATA, SIMULATE_PER_STRATUM = 5, 48
ORACLE_PER_CLASS = 12

# The gate's tolerance must stay 20 times above what an exact steady-state
# solve changes.
MAX_METHOD_CHANGE = bench_gate.RTOL / 20

# Oracle cutoff classes: centre (coupling multiple, gamma_c, pump), the
# n_max the config starts from, the cutoff the request must resolve at
# (None: exit 4 at the cap) and the variants whose hierarchy solve stays
# under about 4 s. Centres sit well inside their class: the population of
# the resolving level is far below 1e-8 and that of the level below far
# above it, so jitter cannot move an entry across a boundary.
ORACLE_SPECS = {
    "n8": ((0.5, 0.05, 1.0), 8, 8, VARIANTS),
    "n16": ((10.0, 0.5, 10.0), 8, 16, VARIANTS),
    "n32": ((10.0, 0.1, 3.0), 32, 32, VARIANTS),
    "n64": ((10.0, 0.1, 10.0), 32, 64, ("no_inversion", "factorized")),
    "cap": ((10.0, 0.05, 10.0), 32, None, ("no_inversion", "factorized")),
}
SIMULATE_RANGES = {"lifetime_ps": (0.2, 10.0), "g_multiple": (0.1, 0.3),
                   "pump": (1e-2, 1e5)}


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def run_sweep_pool(config_text: str, workers: int, workdir: Path):
    cfg, out = workdir / "pool.cfg", workdir / "pool.csv"
    cfg.write_text(config_text, encoding="utf-8")
    code, _ = call_cli(["sweep", "--config", str(cfg), "--out", str(out),
                        "--workers", str(workers)])
    if code != 0:
        raise RuntimeError(f"pool sweep exited {code}")
    return bench_gate.parse_sweep_csv(out.read_text(encoding="utf-8"))


def _observables(row):
    return {q: row[q] for q in bench_gate.QUANTITIES}


def dip_pool(rng, workers, workdir):
    strata = stratified_log(rng, *DIP_LIFETIME_RANGE, DIP_STRATA, DIP_PER_STRATUM)
    lifetimes = [t for stratum in strata for t in stratum]
    rows = iter(run_sweep_pool(dip_config(lifetimes), workers, workdir))
    entries = []
    for tau in lifetimes:
        results = {}
        for variant in DIP_VARIANTS:
            row = next(rows)
            assert row["converged"] == "true", row
            results[variant] = _observables(row)
        entries.append({"lifetime_ps": tau, "results": results})
    return {"strata": [entries[s * DIP_PER_STRATUM:(s + 1) * DIP_PER_STRATUM]
                       for s in range(DIP_STRATA)]}


def par_pool(rng, workers, workdir):
    strata = stratified_log(rng, *PAR_PUMP_RANGE, PAR_STRATA, PAR_PER_STRATUM)
    pumps = [p for stratum in strata for p in stratum]
    rows = run_sweep_pool(par_config(pumps), workers, workdir)
    entries = [{"pump_per_ps": p, "results": {}} for p in pumps]
    k = 0
    for gamma_cav in PAR_GAMMA_CAV:
        for entry in entries:
            row = rows[k]
            k += 1
            assert row["converged"] == "true", row
            entry["results"][repr(gamma_cav)] = _observables(row)
    return {"strata": [entries[s * PAR_PER_STRATUM:(s + 1) * PAR_PER_STRATUM]
                       for s in range(PAR_STRATA)]}


def _single_reference(job):
    kind, entry, workdir = job
    cfg = Path(workdir) / f"{os.getpid()}.cfg"
    out = Path(workdir) / f"{os.getpid()}.out"
    if kind == "simulate":
        results = {}
        for variant in VARIANTS:
            cfg.write_text(single_config(dict(entry, variant=variant)),
                           encoding="utf-8")
            code, stdout = call_cli(["simulate", "--config", str(cfg),
                                     "--out", str(out)])
            record = bench_gate.parse_simulate(stdout)
            if code != 0 or record.pop("converged") != "true":
                return None
            results[variant] = record
        return dict(entry, results=results)
    cfg.write_text(single_config(entry), encoding="utf-8")
    code, stdout = call_cli(["oracle-compare", "--config", str(cfg),
                             "--out", str(out)])
    reference = {"exit_code": code}
    if code in (0, 3):
        reference.update(bench_gate.parse_oracle(stdout))
        reference["oracle_n_max"] = int(bench_gate.parse_kv(stdout)["oracle_n_max"])
    return dict(entry, reference_output=reference)


def _photon_distribution(params, n_max):
    space = HilbertSpace(n_max)
    rho = steady_state_density(params, space).elements
    return [sum(rho[state_index(space, e, h, n), state_index(space, e, h, n)].real
                for e in (0, 1) for h in (0, 1)) for n in range(n_max + 1)]


def _oracle_candidate(rng, cls):
    (g0, gc0, p0), start, target, variants = ORACLE_SPECS[cls]

    def jitter(x):
        return x * math.exp(rng.uniform(-0.1, 0.1))

    entry = {"g_multiple": jitter(g0), "gamma_c": jitter(gc0), "pump": jitter(p0),
             "n_max_start": start}
    params = model.default_params(
        g=model.ReferenceRabi().coupling_for(entry["g_multiple"]),
        gamma_c=entry["gamma_c"], pump=entry["pump"])
    dist = _photon_distribution(params, 64)
    if target is None:
        robust = dist[64] > 1e-6
    else:
        robust = dist[target] < 1e-10 and (target == start or dist[target // 2] > 1e-6)
    return entry, robust, variants, target


def single_pool(rng, workers, workdir):
    bounds = SIMULATE_RANGES
    pumps = stratified_log(rng, *bounds["pump"], SIMULATE_STRATA,
                           SIMULATE_PER_STRATUM)
    jobs = []
    for stratum in pumps:
        for pump in stratum:
            tau = bounds["lifetime_ps"][0] * math.exp(
                rng.random() * math.log(bounds["lifetime_ps"][1]
                                        / bounds["lifetime_ps"][0]))
            jobs.append(("simulate", {
                "g_multiple": rng.uniform(*bounds["g_multiple"]),
                "gamma_c": 0.5 / tau, "pump": pump}, str(workdir)))
    for cls in ORACLE_CLASSES:
        chosen = []
        for _ in range(10 * ORACLE_PER_CLASS):
            if len(chosen) == ORACLE_PER_CLASS:
                break
            entry, robust, variants, target = _oracle_candidate(rng, cls)
            if robust:
                entry["variant"] = variants[len(chosen) % len(variants)]
                chosen.append(entry)
        if len(chosen) < ORACLE_PER_CLASS:
            raise RuntimeError(f"too few robust entries for class {cls}")
        jobs += [("oracle", entry, str(workdir)) for entry in chosen]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        results = pool.map(_single_reference, jobs, chunksize=1)
    simulate = results[:len(pumps) * SIMULATE_PER_STRATUM]
    if any(r is None for r in simulate):
        raise RuntimeError("a simulate pool entry did not converge")
    oracle = {}
    k = len(simulate)
    for cls in ORACLE_CLASSES:
        target = ORACLE_SPECS[cls][2]
        entries = results[k:k + ORACLE_PER_CLASS]
        k += ORACLE_PER_CLASS
        for entry in entries:
            ref = entry["reference_output"]
            want = 4 if target is None else ref.get("oracle_n_max")
            if (target is None and ref["exit_code"] != 4) or (
                    target is not None and want != target):
                raise RuntimeError(f"class {cls} entry resolved as {ref}")
        oracle[cls] = entries
    return {
        "simulate": [simulate[s * SIMULATE_PER_STRATUM:(s + 1) * SIMULATE_PER_STRATUM]
                     for s in range(SIMULATE_STRATA)],
        "oracle": oracle,
    }


def newton_deviation(points):
    """Largest gate-scaled change Newton polishing makes to an observable."""
    worst = 0.0
    for params, variant in points:
        change = _newton_change(params, variant)
        if change > MAX_METHOD_CHANGE:
            print(f"Newton polish moves {params} {variant} by {change:.3g}")
        worst = max(worst, change)
    return worst


def _newton_change(params, variant):
    toggles = TOGGLE_VARIANTS[variant]
    state = solver.steady_state(params, toggles, solver.IntegrationConfig())
    rhs, jac = make_rhs(params, toggles)
    y0 = state.to_array()
    active = list(range(10 if toggles.include_doublets else 5))

    def residual(z):
        y = y0.copy()
        y[active] = z
        return rhs(0.0, y)[active]

    def jacobian(z):
        y = y0.copy()
        y[active] = z
        return jac(0.0, y)[np.ix_(active, active)]

    fixed = y0.copy()
    fixed[active] = root(residual, y0[active], jac=jacobian, method="hybr",
                         tol=1e-15).x
    ref = observables.observables_of(state, params)
    new = observables.observables_of(DynamicState.from_array(fixed), params)
    as_record = lambda o: {  # noqa: E731
        "n_photon": o.photon_number, "two_photon": o.two_photon,
        "g2_zero": o.g2_zero, "output_rate_per_ps": o.output_rate}
    return max(bench_gate.scaled_differences(as_record(new), as_record(ref)).values())


def newton_sample(pools, rng):
    rabi = model.ReferenceRabi()
    points = []
    for entry in [e for s in pools["sweep_dip"]["strata"] for e in s][::20]:
        params = model.default_params(
            g=rabi.coupling_for(0.2), gamma_c=0.5 / entry["lifetime_ps"], pump=1e5)
        points += [(params, v) for v in DIP_VARIANTS]
    for entry in [e for s in pools["sweep_pump_par"]["strata"] for e in s][::12]:
        for gamma_cav in PAR_GAMMA_CAV:
            points.append((model.default_params(
                g=rabi.coupling_for(0.2), gamma_c=0.5 * gamma_cav,
                pump=entry["pump_per_ps"]), "full"))
    for entry in [e for s in pools["single_point"]["simulate"] for e in s][::10]:
        points.append((model.default_params(
            g=rabi.coupling_for(entry["g_multiple"]), gamma_c=entry["gamma_c"],
            pump=entry["pump"]), rng.choice(VARIANTS)))
    return points


def main() -> int:
    workers = min(PAR_WORKERS, os.cpu_count() or 1)
    rng = random.Random(POOL_SEED)
    REFS_DIR.mkdir(exist_ok=True)
    pools = {}
    scratch = Path.cwd() / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        pools["sweep_dip"] = dip_pool(rng, workers, workdir)
        pools["sweep_pump_par"] = par_pool(rng, workers, workdir)
        pools["single_point"] = single_pool(rng, workers, workdir)
    deviation = newton_deviation(newton_sample(pools, rng))
    print(f"largest Newton-polish change, gate-scaled: {deviation:.3g}")
    for name, pool in pools.items():
        pool = dict(pool, pool_seed=POOL_SEED,
                    newton_polish_max_change=deviation)
        with open(REFS_DIR / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(pool, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {REFS_DIR / (name + '.json')}")
    if not deviation <= MAX_METHOD_CHANGE:
        print("the gate tolerance is not 20x the method deviation")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
