"""Benchmark of the qdcavity command line and its layers.

    python3 perfbench/run.py --workload sweep_dip --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the root of a checkout; the package is imported from ./src. Each
workload is one client in a closed loop, in this process: it calls
``qdcavity.cli.main`` with generated configs, waits for the reply, checks it
against the stored references, and sends the next request. The loop runs
whole units (a sweep command, or one cycle of single-point requests) until
the time spent inside ``cli.main`` reaches --seconds.

--trace 0 prints the end-to-end metrics, with the rates and latencies
scaled to a nominal host speed that a reference solve interleaved with the
loop measures (see REFERENCE_S). --trace 1 runs the same loop
untraced, replays its first units (half the run's time) with spans around
every layer boundary, probes the layers the loop did not reach and the
sweep's process pool, and prints the per-layer metrics and the tracing
overhead. The last line of output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from bench_workloads import PAR_WORKERS, POOL_PROBE, WORKLOADS, Stream

BENCH_DIR = Path(__file__).resolve().parent

# BLAS threads per process. The workloads run in one process and the pool
# probe of a traced run on min(2, nproc) single-threaded worker processes,
# so BLAS threads plus worker processes never exceed nproc.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5

# The host's speed, measured by a fixed stiff solve run after every
# REFERENCE_EVERY_S of busy time: the Robertson kinetics problem through
# SciPy's Radau with a Python right-hand side, the kind of work the
# program's solves do. It shares no code with the package, so only the host
# moves it. A shared host's speed drifts by tens of percent over minutes,
# which the program's own timings cannot tell from a change in the program;
# the rates and latencies are therefore reported at the host speed at which
# this solve takes REFERENCE_S, using its mean over the loop.
REFERENCE_S = 0.05
REFERENCE_EVERY_S = 1.0

END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _fail(message: str, code: int = 2) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return code


def _prepare(root: Path) -> None:
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))


def _work_dir(root: Path, label: str) -> Path:
    path = root / ".perfbench_run" / f"{label}-p{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_child(root: Path, workload: str, seed: int) -> int:
    """Import the package, generate the first unit's configs and load them."""
    from qdcavity.config import load_config

    work = _work_dir(root, "setup")
    try:
        for request in Stream(workload, seed).unit(0):
            path = work / f"{request.name}.cfg"
            path.write_text(request.config_text, encoding="utf-8")
            load_config(path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def measure_setup(root: Path, workload: str, seed: int) -> float:
    """Median wall time of fresh setup processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            cwd=root, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=60, check=False)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError("setup process failed: "
                               + done.stderr.decode(errors="replace")[-2000:])
    return statistics.median(times)


def reference_solve() -> float:
    """Wall time of the fixed reference solve that measures the host."""
    import numpy as np
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        a, b, c = y
        return np.array([-0.04 * a + 1e4 * b * c,
                         0.04 * a - 1e4 * b * c - 3e7 * b * b,
                         3e7 * b * b])

    def jac(t, y):
        a, b, c = y
        return np.array([[-0.04, 1e4 * c, 1e4 * b],
                         [0.04, -1e4 * c - 6e7 * b, -1e4 * b],
                         [0.0, 6e7 * b, 0.0]])

    start = time.perf_counter()
    solve_ivp(rhs, (0.0, 1e5), [1.0, 0.0, 0.0], method="Radau", jac=jac,
              rtol=1e-7, atol=1e-10)
    return time.perf_counter() - start


def environment(workers: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARIABLES},
        "worker_processes": workers,
    }


class Loop:
    """The closed-loop client: sends requests and checks every reply."""

    def __init__(self, workload: str, stream, work: Path):
        self.workload = workload
        self.stream = stream
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = []
        reference_solve()  # warm-up

    def run(self, seconds: float = 0.0, units: int = None, tracer=None):
        """Run whole units; returns [(points, requests, seconds)] and latencies."""
        from qdcavity import cli

        import bench_gate

        unit_stats, latencies = [], []
        busy, k = 0.0, 0
        since_reference = REFERENCE_EVERY_S
        while (busy < seconds) if units is None else (k < units):
            requests = self.stream.unit(k)
            unit_time = 0.0
            for request in requests:
                config = self.work / f"{request.name}.cfg"
                out = self.work / f"{request.name}.out"
                config.write_text(request.config_text, encoding="utf-8")
                if tracer is not None:
                    tracer.request = request.name
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    start = time.perf_counter()
                    try:
                        code = cli.main(request.argv(config, out))
                    except Exception:  # a crash is a failed request, not a stop
                        code = None
                        stderr.write(traceback.format_exc())
                    elapsed = time.perf_counter() - start
                unit_time += elapsed
                since_reference += elapsed
                if since_reference >= REFERENCE_EVERY_S:
                    self.reference.append(reference_solve())
                    since_reference = 0.0
                latencies.append(elapsed)
                if request.kind == "sweep":
                    failed, problems = bench_gate.check_sweep(
                        self.workload, request, code, out)
                    self.attempted += request.points
                    self.failed += failed
                else:
                    problems = bench_gate.check_single(
                        request, code, stdout.getvalue(), out)
                    self.attempted += 1
                    self.failed += bool(problems)
                if problems:
                    self.problems.append((request.name, problems,
                                          stderr.getvalue()[-2000:]))
                for path in self.work.glob(f"{request.name}.*"):
                    path.unlink()
            unit_stats.append((sum(r.points for r in requests), len(requests),
                               unit_time))
            busy += unit_time
            k += 1
        return unit_stats, latencies


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child.

    Read after the loop and before the setup processes start. The loop
    starts no child processes, so this is the process's own peak unless
    the program starts some.
    """
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0


def host_factor(reference) -> float:
    """How much slower than nominal the host ran the loop (1 = nominal)."""
    return statistics.fmean(reference) / REFERENCE_S


def end_to_end(setup_s: float, peak_mb: float, unit_stats, latencies,
               host: float) -> dict:
    # Rates over the whole loop rather than medians over units: the host's
    # speed shifts for tens of seconds at a time, and the total integrates
    # over those shifts where a median picks one of them.
    busy = sum(t for _, _, t in unit_stats)
    return {
        "setup_s": setup_s,
        "points_per_s": sum(p for p, _, _ in unit_stats) / busy * host,
        "requests_per_s": sum(r for _, r, _ in unit_stats) / busy * host,
        "request_p50_ms": statistics.median(latencies) * 1e3 / host,
        "peak_rss_mb": peak_mb,
    }


def probe_layers(loop: Loop, tracer, missing) -> None:
    """Drive the layers the workload's loop did not reach, under the tracer.

    The oracle probe runs on the model parameters of the workload's first
    config (a sweep config's base point lies inside its grid's ranges), so
    it sees the physics the workload does. The pool probe is the first
    sweep of the seed's sweep_pump_par stream on min(2, nproc) worker
    processes, checked like a loop unit: no workload's loop uses the pool.
    """
    from qdcavity import cli, oracle
    from qdcavity.config import parse_config

    tracer.request = "probe"
    if any(name.startswith("oracle.") for name in missing):
        params = parse_config(loop.stream.unit(0)[0].config_text).params
        for n in (8, 16, 32, 64):
            oracle.steady_state_density(params, oracle.HilbertSpace(n))
        cli.steady_observables_auto(params)
    workers = min(PAR_WORKERS, os.cpu_count() or 1)
    pool = Loop(POOL_PROBE, Stream(POOL_PROBE, loop.stream.seed,
                                   workers=workers), loop.work)
    pool.run(units=1, tracer=tracer)
    if pool.failed or pool.problems:
        raise RuntimeError(f"pool probe failed: {pool.problems[:1]}")


def replay_units(unit_stats, seconds: float) -> int:
    """How many of the loop's first units make up half the run's time."""
    busy = 0.0
    for k, (_, _, unit_time) in enumerate(unit_stats, 1):
        busy += unit_time
        if busy >= seconds / 2:
            return k
    return len(unit_stats)


def traced_metrics(loop: Loop, units: int, untraced_seconds: float,
                   root: Path, label: str) -> dict:
    import bench_trace

    names = [name for name, _, _ in bench_trace.LAYER_METRICS]
    tracer = bench_trace.Tracer().install()
    try:
        unit_stats, _ = loop.run(units=units, tracer=tracer)
        traced_seconds = sum(t for _, _, t in unit_stats)
        loop_spans, loop_samples = list(tracer.spans), list(tracer.samples)
        metrics = bench_trace.layer_metrics(loop_spans)
        missing = [n for n in names if n not in metrics
                   and not n.startswith(("dynamics.", "observables.", "trace."))]
        probe_layers(loop, tracer, missing)
        probed = bench_trace.layer_metrics(tracer.spans[len(loop_spans):])
        metrics.update({n: probed[n] for n in missing if n in probed})
        metrics["sweep.parallel_efficiency"] = probed["sweep.parallel_efficiency"]
    finally:
        tracer.uninstall()
    metrics.update(bench_trace.probe_per_call(loop_samples))
    metrics["trace.overhead_pct"] = (traced_seconds / untraced_seconds - 1) * 100
    spans_path = root / ".perfbench_run" / f"spans-{label}.jsonl"
    tracer.dump(spans_path)
    print(f"spans written to {spans_path}")
    absent = [n for n in names if n not in metrics]
    if absent:
        raise RuntimeError(f"per-layer metrics not measured: {absent}")
    return {n: {"value": metrics[n], "unit": unit}
            for n, unit, _ in bench_trace.LAYER_METRICS}


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    print("env " + json.dumps(environment(
        min(PAR_WORKERS, os.cpu_count() or 1) if trace else 1)))
    label = f"{workload}-s{seed}"
    work = _work_dir(root, label)
    try:
        loop = Loop(workload, Stream(workload, seed), work)
        unit_stats, latencies = loop.run(seconds=seconds)
        if trace:
            replayed = unit_stats[:replay_units(unit_stats, seconds)]
            metrics = traced_metrics(
                loop, len(replayed), sum(t for _, _, t in replayed),
                root, label)
        else:
            peak_mb = peak_rss_mb()
            host = host_factor(loop.reference)
            values = end_to_end(measure_setup(root, workload, seed), peak_mb,
                                unit_stats, latencies, host)
            raw = end_to_end(0.0, peak_mb, unit_stats, latencies, 1.0)
            print(f"{'host reference solve':<32}"
                  f"{statistics.fmean(loop.reference) * 1e3:.6g} ms mean of "
                  f"{len(loop.reference)} (host factor {host:.4g}); unscaled: "
                  + ", ".join(f"{n} {raw[n]:.6g}" for n in
                              ("points_per_s", "requests_per_s", "request_p50_ms")))
            units = dict(END_TO_END)
            metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, problems, stderr in loop.problems[:10]:
        print(f"FAILED {name}: {'; '.join(problems[:3])}")
        if stderr:
            print("  " + stderr.strip().replace("\n", "\n  "))
    fraction = loop.failed / max(loop.attempted, 1)
    print(f"{'failed_fraction':<32}{fraction:.6g}  ({loop.failed} of "
          f"{loop.attempted} operations)")
    print(f"{'units':<32}{len(unit_stats)}  ({len(latencies)} requests)")
    for name, metric in metrics.items():
        print(f"{name:<32}{metric['value']:.6g} {metric['unit']}")
    correct = loop.failed == 0 and loop.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(root: Path, seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh process, then one table."""
    rows, status = [], 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace",
             str(trace)], cwd=root, stdout=subprocess.PIPE, check=False,
            text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exited {done.returncode}")
            status = 1
            continue
        print(done.stdout, end="")
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((workload, result))
    print()
    print(f"{'workload':<16}{'metric':<30}{'value':>14}  unit")
    for workload, result in rows:
        print(f"{workload:<16}{'failed_fraction':<30}"
              f"{result['failed'] / result['attempted']:>14.6g}  1")
        for name, metric in result["metrics"].items():
            print(f"{workload:<16}{name:<30}{metric['value']:>14.6g}  "
                  f"{metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qdcavity" / "__init__.py").is_file():
        return _fail(f"no qdcavity sources under {root / 'src'}; run from the "
                     "root of a checkout")
    _prepare(root)
    if args.setup_child:
        return setup_child(root, args.workload, args.seed)
    if args.workload == "all":
        return run_all(root, args.seed, args.seconds, args.trace)
    try:
        return run_workload(root, args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        return _fail(str(err), 3)


if __name__ == "__main__":
    sys.exit(main())
