"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import bench_gate  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402
from bench_trace import Span  # noqa: E402
from bench_workloads import POOL_PROBE, WORKLOADS, Stream, load_pool  # noqa: E402


def _span(name, start, end, n, parent=None):
    return Span(name, start, end, (1, n), None if parent is None else (1, parent),
                "r")


def _csv_text(workload, request, perturb=None):
    """The sweep CSV the program would write if it matched the references."""
    header = ("gamma_cav_per_ps,cavity_lifetime_ps,g_over_omega_r0,pump_per_ps,"
              "include_doublets,include_inversion_term,n_photon,two_photon,"
              "g2_zero,output_rate_per_ps,converged")
    lines = [header]
    rows = bench_gate.expected_sweep_rows(workload, request.expected["entries"])
    for k, (inputs, ref) in enumerate(rows):
        gamma_cav = inputs.get("gamma_cav_per_ps")
        lifetime = inputs.get("cavity_lifetime_ps")
        gamma_cav = gamma_cav if gamma_cav is not None else 1.0 / lifetime
        lifetime = lifetime if lifetime is not None else 1.0 / gamma_cav
        flags = bench_gate.csv_flags(inputs["variant"])
        values = dict(ref)
        if perturb is not None and k == perturb[0]:
            values[perturb[1]] *= 1.0 + perturb[2]
        g2 = values["g2_zero"]
        lines.append(",".join([
            repr(gamma_cav), repr(lifetime), "0.2", repr(inputs["pump_per_ps"]),
            flags[0], flags[1], repr(values["n_photon"]),
            repr(values["two_photon"]), "undefined" if g2 is None else repr(g2),
            repr(values["output_rate_per_ps"]), "true"]))
    return "\n".join(lines) + "\n"


def _simulate_stdout(record):
    g2 = record["g2_zero"]
    return "\n".join([
        f"n_photon=               {record['n_photon']:.12g}",
        f"two_photon=             {record['two_photon']:.12g}",
        "g2_zero=                " + ("undefined" if g2 is None else f"{g2:.12g}"),
        f"output_rate_per_ps=     {record['output_rate_per_ps']:.12g}",
        "converged=              true",
    ]) + "\n"


def _oracle_stdout(ref):
    lines = [f"{'quantity':<20}{'hierarchy':>16}{'reference':>16}{'rel_diff':>12}"]
    for q in bench_gate.QUANTITIES:
        ours, theirs = ref["hierarchy"][q], ref["reference"][q]
        lines.append(f"{q:<20}{ours:>16.6g}{theirs:>16.6g}{0.0:>12.3e}")
    lines.append(f"within_band=            {ref['within_band']}")
    return "\n".join(lines) + "\n"


class WorkloadGeneration(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS + (POOL_PROBE,):
            pool = load_pool(workload)
            first = [Stream(workload, 11, pool).unit(k) for k in range(3)]
            again = [Stream(workload, 11, pool).unit(k) for k in range(3)]
            self.assertEqual(first, again, workload)

    def test_other_seed_other_inputs(self):
        for workload in WORKLOADS + (POOL_PROBE,):
            pool = load_pool(workload)
            self.assertNotEqual(Stream(workload, 11, pool).unit(0),
                                Stream(workload, 12, pool).unit(0), workload)

    def test_units_cover_every_stratum_without_repeats(self):
        pool = load_pool("sweep_dip")
        stream = Stream("sweep_dip", 3, pool)
        seen = set()
        for k in range(len(pool["strata"][0])):
            lifetimes = [e["lifetime_ps"] for e in stream.unit(k)[0].expected["entries"]]
            self.assertEqual(lifetimes, sorted(lifetimes))
            seen.update(lifetimes)
        self.assertEqual(len(seen), sum(len(s) for s in pool["strata"]))

    def test_single_point_cycle_mix(self):
        requests = Stream("single_point", 5).unit(0)
        kinds = [r.kind for r in requests]
        self.assertEqual(kinds.count("simulate"), 10)
        self.assertEqual(kinds.count("trajectory"), 10)
        self.assertEqual(kinds.count("oracle"), 5)
        entries = [(r.expected["pump"], r.expected["gamma_c"])
                   for k in range(3) for r in Stream("single_point", 5).unit(k)
                   if r.kind != "oracle"]
        self.assertEqual(len(set(entries)), len(entries))
        variants = {r.expected["variant"] for r in requests}
        self.assertEqual(variants, {"full", "no_inversion", "factorized"})
        codes = sorted(r.expected["reference_output"]["exit_code"]
                       for r in requests if r.kind == "oracle")
        self.assertIn(4, codes)

    def test_oracle_variants_do_not_depend_on_the_seed(self):
        def oracle_variants(seed, k):
            return [r.expected["variant"]
                    for r in Stream("single_point", seed).unit(k)
                    if r.kind == "oracle"]

        for k in range(3):
            self.assertEqual(oracle_variants(5, k), oracle_variants(6, k))
        oracle = [r.config_text for k in range(12)
                  for r in Stream("single_point", 5).unit(k) if r.kind == "oracle"]
        self.assertEqual(len(set(oracle)), len(oracle))


class SelfTime(unittest.TestCase):
    def test_covered_merges_overlaps_and_clips(self):
        self.assertAlmostEqual(
            bench_trace.covered(0.0, 10.0, [(1, 3), (2, 5), (8, 12), (-2, -1)]), 6.0)
        self.assertEqual(bench_trace.covered(0.0, 10.0, []), 0.0)

    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            _span("cli.main", 0.0, 10.0, 1),
            _span("solver.steady_state", 1.0, 4.0, 2, parent=1),
            _span("solver.steady_state", 3.0, 6.0, 3, parent=1),
            _span("oracle.build", 1.5, 2.0, 4, parent=2),
        ]
        children = bench_trace.children_map(spans)
        self.assertAlmostEqual(bench_trace.self_time(spans[0], children), 5.0)
        self.assertAlmostEqual(bench_trace.self_time(spans[1], children), 2.5)
        self.assertAlmostEqual(bench_trace.self_time(spans[3], children), 0.5)
        found = bench_trace.descendants(spans[0], children, "oracle.build")
        self.assertEqual([s.span_id for s in found], [(1, 4)])

    def test_layer_metrics_from_spans(self):
        sweep = _span("sweep.run_sweep", 0.0, 10.0, 2, parent=1)
        sweep.tag = 2
        spans = [
            _span("cli.main", 0.0, 11.0, 1),
            sweep,
            _span("solver.steady_state", 1.0, 7.0, 3, parent=2),
            _span("solver.steady_state", 2.0, 9.0, 4, parent=2),
            _span("sweep.render", 10.0, 10.5, 5, parent=1),
        ]
        metrics = bench_trace.layer_metrics(spans)
        self.assertAlmostEqual(metrics["sweep.overhead_ms"], 2000.0)
        self.assertAlmostEqual(metrics["sweep.parallel_efficiency"], 13.0 / 20.0)
        self.assertAlmostEqual(metrics["sweep.render_ms"], 500.0)
        self.assertAlmostEqual(metrics["cli.write_ms"], 500.0)
        self.assertAlmostEqual(metrics["solver.point_ms_p50"], 6500.0)

    def test_probe_states_spread_over_the_whole_run(self):
        self.assertEqual(bench_trace.evenly(list(range(100)), 4), [0, 33, 66, 99])
        self.assertEqual(bench_trace.evenly([1, 2], 4), [1, 2])


class Gate(unittest.TestCase):
    def test_sweep_reference_passes_and_perturbation_fails(self):
        for workload in ("sweep_dip", POOL_PROBE):
            request = Stream(workload, 2).unit(0)[0]
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / "out.csv"
                out.write_text(_csv_text(workload, request))
                self.assertEqual(bench_gate.check_sweep(workload, request, 0, out),
                                 (0, []))
                out.write_text(_csv_text(workload, request, (3, "n_photon", 1e-4)))
                failed, problems = bench_gate.check_sweep(workload, request, 0, out)
                self.assertEqual(failed, 1, workload)
                self.assertIn("row 3", problems[0])
                self.assertEqual(bench_gate.check_sweep(workload, request, 2, out)[0],
                                 request.points)

    def test_simulate_reference_passes_and_perturbation_fails(self):
        request = Stream("single_point", 2).unit(0)[0]
        record = request.expected["results"][request.expected["variant"]]
        out = Path("unused")
        self.assertEqual(bench_gate.check_single(
            request, 0, _simulate_stdout(record), out), [])
        for q in ("n_photon", "two_photon", "output_rate_per_ps"):
            bad = dict(record, **{q: record[q] * (1 + 1e-4) + 1e-4 * record["n_photon"] ** 2})
            self.assertTrue(bench_gate.check_single(
                request, 0, _simulate_stdout(bad), out), q)
        self.assertTrue(bench_gate.check_single(
            request, 2, _simulate_stdout(record), out))

    def test_oracle_reference_passes_and_perturbation_fails(self):
        oracle = [r for r in Stream("single_point", 2).unit(0) if r.kind == "oracle"]
        compared = [r for r in oracle if r.expected["reference_output"]["exit_code"] != 4]
        out = Path("unused")
        for request in compared:
            ref = request.expected["reference_output"]
            self.assertEqual(bench_gate.check_single(
                request, ref["exit_code"], _oracle_stdout(ref), out), [])
            bad = json.loads(json.dumps(ref))
            bad["reference"]["n_photon"] *= 1 + 1e-3
            self.assertTrue(bench_gate.check_single(
                request, ref["exit_code"], _oracle_stdout(bad), out))
        capped = [r for r in oracle if r.expected["reference_output"]["exit_code"] == 4]
        self.assertEqual(bench_gate.check_single(capped[0], 4, "", out), [])
        self.assertTrue(bench_gate.check_single(capped[0], 0, "", out))

    def test_tolerance_is_far_above_method_deviation(self):
        for workload in WORKLOADS + (POOL_PROBE,):
            pool = load_pool(workload)
            self.assertLessEqual(pool["newton_polish_max_change"],
                                 bench_gate.RTOL / 20)


class HostScaling(unittest.TestCase):
    def test_rates_and_latency_scale_with_the_host_factor(self):
        stats, latencies = [(16, 1, 2.0), (16, 1, 2.0)], [2.0, 2.0]
        nominal = run.end_to_end(0.7, 100.0, stats, latencies, 1.0)
        slow = run.end_to_end(0.7, 100.0, stats, latencies, 2.0)
        self.assertAlmostEqual(nominal["points_per_s"], 8.0)
        self.assertAlmostEqual(nominal["request_p50_ms"], 2000.0)
        self.assertAlmostEqual(slow["points_per_s"], 16.0)
        self.assertAlmostEqual(slow["requests_per_s"], 1.0)
        self.assertAlmostEqual(slow["request_p50_ms"], 1000.0)
        self.assertEqual((slow["setup_s"], slow["peak_rss_mb"]), (0.7, 100.0))
        self.assertAlmostEqual(run.host_factor([run.REFERENCE_S, 3 * run.REFERENCE_S]),
                               2.0)


class Manifest(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        manifest = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in manifest["workloads"]],
                         list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in manifest["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]],
            list(bench_trace.LAYER_METRICS))


if __name__ == "__main__":
    unittest.main()
