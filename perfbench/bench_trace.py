"""Spans around the package's layer boundaries, and the metrics they give.

The tracer wraps public functions of each layer at the module attribute
their callers resolve (``cli.steady_state``, ``sweep.steady_state``,
``oracle.steady_state_density`` ...), so the program runs unchanged and
every call through those names records a span: name, start, end, parent
span, request id, an optional tag (the photon cutoff for oracle spans) and
the change in three counters during the span (right-hand-side calls,
Jacobian calls, accepted Radau steps). Spans stay in memory; the caller
writes them out when the run ends. Pool workers record their own spans and
send them back with each result.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np
from scipy.integrate import Radau

from qdcavity import cli, dynamics, observables, oracle, solver, sweep

RHS, JAC, STEPS = 0, 1, 2

# The right-hand-side arguments kept as the states the per-call probes time:
# these call numbers of every solve, so the samples span the whole run.
SAMPLE_AT = frozenset((32, 256, 2048))
# States timed per variant, spread evenly over that variant's samples.
PROBES_PER_VARIANT = 12

ORACLE_CUTOFFS = (8, 16, 32, 64)


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: Tuple[int, int]
    parent: Optional[Tuple[int, int]]
    request: Optional[str]
    tag: Optional[int] = None
    error: Optional[str] = None
    rhs_calls: int = 0
    jac_calls: int = 0
    steps: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


# The tracer of this process once installed. Pool workers reach it through
# this name because a worker's entry point is a module-level function.
_ACTIVE: Optional["Tracer"] = None


class Tracer:
    """Installs the wrappers, holds the spans and samples of one process."""

    def __init__(self):
        self.spans: List[Span] = []
        self.samples: List[Tuple[object, object, np.ndarray]] = []
        self.counters = [0, 0, 0]
        self.stack: List[Tuple[int, int]] = []
        self.request: Optional[str] = None
        self.pid = os.getpid()
        self._next_id = 0
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _new_id(self) -> Tuple[int, int]:
        self._next_id += 1
        return (self.pid, self._next_id)

    def wrap(self, name: str, fn: Callable,
             tag: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._new_id()
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(span_id)
            before = list(tracer.counters)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                after = tracer.counters
                tracer.spans.append(Span(
                    name, start, end, span_id, parent, tracer.request,
                    tag(*args, **kwargs) if tag else None, error,
                    after[RHS] - before[RHS], after[JAC] - before[JAC],
                    after[STEPS] - before[STEPS]))

        return traced

    def _counting_make_rhs(self, make_rhs):
        tracer = self

        @functools.wraps(make_rhs)
        def traced_make_rhs(params, toggles):
            rhs, jac = make_rhs(params, toggles)
            calls = [0]

            def counted_rhs(t, y):
                tracer.counters[RHS] += 1
                calls[0] += 1
                if calls[0] in SAMPLE_AT:
                    tracer.samples.append((params, toggles, np.array(y)))
                return rhs(t, y)

            def counted_jac(t, y):
                tracer.counters[JAC] += 1
                return jac(t, y)

            return counted_rhs, counted_jac

        return traced_make_rhs

    def _counting_solve_ivp(self, solve_ivp):
        tracer = self

        class CountingRadau(Radau):
            """Radau that counts its accepted steps; otherwise unchanged."""

            def step(self):
                message = super().step()
                if self.status != "failed":
                    tracer.counters[STEPS] += 1
                return message

        @functools.wraps(solve_ivp)
        def counted_solve_ivp(fun, t_span, y0, method="RK45", **kwargs):
            if method == "Radau":
                method = CountingRadau
            return solve_ivp(fun, t_span, y0, method=method, **kwargs)

        return counted_solve_ivp

    def _traced_pool(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Runs each task through _worker_call and collects its spans."""

            def map(self, fn, *iterables, **kwargs):
                call = functools.partial(
                    _worker_call, fn, tracer.stack[-1] if tracer.stack else None,
                    tracer.request)
                results = super().map(call, *iterables, **kwargs)

                def unwrap():
                    for result, spans, samples in results:
                        tracer.spans.extend(spans)
                        tracer.samples.extend(samples)
                        yield result

                return unwrap()

        return TracedPool

    # -- installation ----------------------------------------------------

    def _patch(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> "Tracer":
        """Wrap every layer boundary; undo with uninstall()."""
        global _ACTIVE
        if self._saved:
            raise RuntimeError("tracer already installed")
        steady = self.wrap("solver.steady_state", solver.steady_state)
        of = self.wrap("observables.of", observables.observables_of)
        self._patch(cli, "main", self.wrap("cli.main", cli.main))
        self._patch(cli, "load_config", self.wrap("config.load", cli.load_config))
        self._patch(cli, "steady_state", steady)
        self._patch(sweep, "steady_state", steady)
        self._patch(cli, "observables_of", of)
        self._patch(sweep, "observables_of", of)
        self._patch(cli, "run_sweep", self.wrap(
            "sweep.run_sweep", cli.run_sweep,
            tag=lambda *a, **k: k.get("workers", a[4] if len(a) > 4 else 1)))
        self._patch(cli, "SweepTable", self._traced_table(cli.SweepTable))
        self._patch(sweep, "ProcessPoolExecutor", self._traced_pool())
        self._patch(solver, "make_rhs", self._counting_make_rhs(solver.make_rhs))
        self._patch(solver, "solve_ivp", self._counting_solve_ivp(solver.solve_ivp))
        self._patch(cli, "steady_observables_auto", self.wrap(
            "oracle.auto", cli.steady_observables_auto))
        cutoff = lambda params, space, *a, **k: space.n_max  # noqa: E731
        for attr, name in (("oracle_steady_observables", "oracle.point"),
                           ("steady_state_density", "oracle.solve"),
                           ("build_liouvillian", "oracle.build")):
            self._patch(oracle, attr, self.wrap(name, getattr(oracle, attr),
                                                tag=cutoff))
        _ACTIVE = self
        return self

    def _traced_table(self, table_cls):
        tracer = self

        class TracedTable(table_cls):
            pass

        for method in ("csv_rows", "jsonl_rows"):
            setattr(TracedTable, method,
                    tracer.wrap("sweep.render", getattr(table_cls, method)))
        return TracedTable

    def uninstall(self) -> None:
        global _ACTIVE
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        if _ACTIVE is self:
            _ACTIVE = None

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _worker_call(fn, parent, request, *args):
    """Pool-worker side of TracedPool: run one task, return its spans.

    A forked worker inherits the parent's installed tracer; a spawned one
    installs its own.
    """
    tracer = _ACTIVE or Tracer().install()
    tracer.pid = os.getpid()
    tracer.stack = [parent] if parent is not None else []
    tracer.request = request
    mark, sample_mark = len(tracer.spans), len(tracer.samples)
    result = fn(*args)
    spans = tracer.spans[mark:]
    samples = tracer.samples[sample_mark:]
    del tracer.spans[mark:]
    del tracer.samples[sample_mark:]
    return result, spans, samples


# -- span arithmetic -------------------------------------------------------

def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total, reach = 0.0, start
    for a, b in clipped:
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def children_map(spans: List[Span]) -> Dict[Tuple[int, int], List[Span]]:
    children: Dict[Tuple[int, int], List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_time(span: Span, children: Dict[Tuple[int, int], List[Span]]) -> float:
    """Duration minus the part of it that its direct children cover."""
    kids = children.get(span.span_id, [])
    return span.duration - covered(span.start, span.end,
                                   ((c.start, c.end) for c in kids))


def descendants(span: Span, children, name: str) -> List[Span]:
    """Spans called ``name`` below ``span``, not looking inside them."""
    found, todo = [], list(children.get(span.span_id, []))
    while todo:
        child = todo.pop()
        if child.name == name:
            found.append(child)
        else:
            todo.extend(children.get(child.span_id, []))
    return found


# -- per-layer metrics -------------------------------------------------------

def _quantile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return float(np.quantile(ordered, q))


def _per_call_us(fn: Callable[[], object], calls: int = 200) -> float:
    fn()
    start = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - start) / calls * 1e6


def evenly(items: list, count: int) -> list:
    """Up to ``count`` items spread evenly over the list, first and last kept."""
    if len(items) <= count:
        return list(items)
    return [items[round(k * (len(items) - 1) / (count - 1))] for k in range(count)]


def probe_per_call(samples) -> Dict[str, float]:
    """rhs, Jacobian and observables cost per call on the sampled states.

    Variants differ in how many components they evolve, so each variant's
    states are timed apart and the figure is the mean of the per-variant
    medians: it depends on which variants the workload runs, not on how
    many samples each one happened to leave.
    """
    if not samples:
        raise RuntimeError("the traced run sampled no states")
    by_variant: Dict[object, list] = {}
    for params, toggles, y in samples:
        by_variant.setdefault(toggles, []).append((params, y))
    per_variant = {"dynamics.rhs_us": [], "dynamics.jac_us": [],
                   "observables.of_us": []}
    for toggles, variant_samples in by_variant.items():
        rhs_us, jac_us, of_us = [], [], []
        for params, y in evenly(variant_samples, PROBES_PER_VARIANT):
            rhs, jac = dynamics.make_rhs(params, toggles)
            state = dynamics.DynamicState.from_array(y)
            rhs_us.append(_per_call_us(lambda: rhs(0.0, y)))
            jac_us.append(_per_call_us(lambda: jac(0.0, y)))
            of_us.append(_per_call_us(
                lambda: observables.observables_of(state, params)))
        per_variant["dynamics.rhs_us"].append(statistics.median(rhs_us))
        per_variant["dynamics.jac_us"].append(statistics.median(jac_us))
        per_variant["observables.of_us"].append(statistics.median(of_us))
    return {name: statistics.fmean(values) for name, values in per_variant.items()}


LAYER_METRICS = (
    ("config.load_ms", "ms", "lower"),
    ("dynamics.rhs_us", "us", "lower"),
    ("dynamics.jac_us", "us", "lower"),
    ("dynamics.rhs_calls_per_point", "count", "lower"),
    ("dynamics.jac_calls_per_point", "count", "lower"),
    ("solver.point_ms_p50", "ms", "lower"),
    ("solver.point_ms_p90", "ms", "lower"),
    ("solver.steps_per_point", "count", "lower"),
    ("solver.us_per_step", "us", "lower"),
    ("solver.not_converged", "count", "lower"),
    ("observables.of_us", "us", "lower"),
    ("sweep.overhead_ms", "ms", "lower"),
    ("sweep.parallel_efficiency", "ratio", "higher"),
    ("sweep.render_ms", "ms", "lower"),
) + tuple(
    (f"oracle.{kind}_ms.n{n}", "ms", "lower")
    for kind in ("build", "solve") for n in ORACLE_CUTOFFS
) + (
    ("oracle.auto_ms_p50", "ms", "lower"),
    ("oracle.retries_per_request", "count", "lower"),
    ("cli.write_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Every span-derived per-layer metric the spans support.

    Metrics of a layer that no span reached are left out; the caller probes
    that layer and derives them again.
    """
    children = children_map(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    out: Dict[str, float] = {}
    ms = 1e3

    loads = by_name.get("config.load", [])
    if loads:
        out["config.load_ms"] = statistics.median(s.duration for s in loads) * ms

    points = by_name.get("solver.steady_state", [])
    if points:
        n = len(points)
        durations = [s.duration for s in points]
        steps = sum(s.steps for s in points)
        out["dynamics.rhs_calls_per_point"] = sum(s.rhs_calls for s in points) / n
        out["dynamics.jac_calls_per_point"] = sum(s.jac_calls for s in points) / n
        out["solver.point_ms_p50"] = _quantile(durations, 0.5) * ms
        out["solver.point_ms_p90"] = _quantile(durations, 0.9) * ms
        out["solver.steps_per_point"] = steps / n
        out["solver.us_per_step"] = sum(durations) / max(steps, 1) * 1e6
        out["solver.not_converged"] = float(sum(1 for s in points if s.error))

    sweeps = by_name.get("sweep.run_sweep", [])
    if sweeps:
        overhead, efficiency, render = [], [], []
        for s in sweeps:
            solves = descendants(s, children, "solver.steady_state")
            overhead.append(s.duration - covered(
                s.start, s.end, ((c.start, c.end) for c in solves)))
            efficiency.append(sum(c.duration for c in solves)
                              / (max(s.tag or 1, 1) * s.duration))
        for main in by_name.get("cli.main", []):
            renders = descendants(main, children, "sweep.render")
            if renders:
                render.append(sum(r.duration for r in renders))
        out["sweep.overhead_ms"] = statistics.median(overhead) * ms
        out["sweep.parallel_efficiency"] = statistics.median(efficiency)
        if render:
            out["sweep.render_ms"] = statistics.median(render) * ms

    for n in ORACLE_CUTOFFS:
        builds = [s for s in by_name.get("oracle.build", []) if s.tag == n]
        solves = [s for s in by_name.get("oracle.solve", []) if s.tag == n]
        if builds:
            out[f"oracle.build_ms.n{n}"] = statistics.median(
                s.duration for s in builds) * ms
        if solves:
            out[f"oracle.solve_ms.n{n}"] = statistics.median(
                self_time(s, children) for s in solves) * ms
    autos = by_name.get("oracle.auto", [])
    if autos:
        out["oracle.auto_ms_p50"] = statistics.median(s.duration for s in autos) * ms
        attempts = sum(len(descendants(a, children, "oracle.point")) for a in autos)
        out["oracle.retries_per_request"] = (attempts - len(autos)) / len(autos)

    mains = by_name.get("cli.main", [])
    if mains:
        out["cli.write_ms"] = statistics.median(
            self_time(s, children) for s in mains) * ms
    return out
