"""Sweep grids, record schema, determinism, and parallel equivalence."""

import itertools
import json
import math
import re
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qdcavity import (
    DynamicState,
    IntegrationConfig,
    NotConverged,
    Observables,
    ReferenceRabi,
    SweepGrid,
    SweepRecord,
    SweepTable,
    ValidationError,
    default_params,
    observables_of,
    run_sweep,
    steady_state,
)
from qdcavity import model, solver, sweep
from qdcavity.cli import main
from qdcavity.config import parse_config
from qdcavity.dynamics import SINGLET_DIM, STATE_DIM, TOGGLE_VARIANTS
from qdcavity.solver import continue_line
from qdcavity.sweep import CSV_COLUMNS

from figure_map import FIGURES, NAMES, RTOL, map_difference
from helpers import (
    gate_scaled_difference,
    point_by_point_sweep,
    reference_verdicts,
)

FULL = TOGGLE_VARIANTS["full"]
FACTORIZED = TOGGLE_VARIANTS["factorized"]
NO_INVERSION = TOGGLE_VARIANTS["no_inversion"]

BASE = default_params(g=0.1, gamma_c=0.5, pump=1.0)
CFG = IntegrationConfig()


def small_grid():
    return SweepGrid(
        gamma_cav_values=(1.0, 2.0),
        g_values=(0.1,),
        pump_values=(1.0,),
        toggle_variants=(FULL, FACTORIZED),
    )


def test_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid((), (0.1,), (1.0,), (FULL,))
    with pytest.raises(ValueError):
        SweepGrid((1.0,), (0.1,), (1.0,), ())
    with pytest.raises(ValueError):
        SweepGrid((0.0,), (0.1,), (1.0,), (FULL,))
    with pytest.raises(ValueError):
        SweepGrid((1.0,), (-0.1,), (1.0,), (FULL,))
    with pytest.raises(ValueError):
        SweepGrid((1.0,), (0.1,), (math.inf,), (FULL,))
    # Valid axes can still make an invalid point, which run_sweep refuses.
    with pytest.raises(ValidationError, match="g: must be finite"):
        run_sweep(SweepGrid((1.0,), (10.0,), (1.0,), (FULL,)), BASE, CFG,
                  rabi=ReferenceRabi(coupling_scale=1e308))


# A grid at the point bound: 1000 x 1000 points, 2001 axis values.
BOUND_GRID = textwrap.dedent("""\
    [model]
    g_multiple_of_omega_r0 = 0.2
    gamma_c_per_ps = 0.5
    pump_per_ps = 1e5
    [grid]
    gamma_cav_per_ps = lin(0.1, 1, 1000)
    g_multiples = lin(0.1, 1, 1000)
""")


def count_params_checks(monkeypatch):
    """A one-item list counting every ModelParams check from here on: each
    construction, replace() included, runs __post_init__ once."""
    calls = [0]
    original = model.ModelParams.__post_init__

    def counting(params):
        calls[0] += 1
        original(params)

    monkeypatch.setattr(model.ModelParams, "__post_init__", counting)
    return calls


def axis_values(grid):
    return (len(grid.gamma_cav_values) + len(grid.g_values)
            + len(grid.pump_values))


def test_parse_checks_each_axis_value_once(monkeypatch):
    calls = count_params_checks(monkeypatch)
    grid = parse_config(BOUND_GRID).grid
    assert calls[0] <= 2 + axis_values(grid)
    assert len(grid) == sweep.MAX_GRID_POINTS


def test_run_sweep_checks_each_axis_value_once(monkeypatch):
    loaded = parse_config(BOUND_GRID)

    # A line builds its points as checked ModelParams by design, so the
    # count stops where the first line would start.
    class FirstLine(Exception):
        pass

    def first_line(*args, **kwargs):
        raise FirstLine

    monkeypatch.setattr(sweep, "_solve_line", first_line)
    calls = count_params_checks(monkeypatch)
    with pytest.raises(FirstLine):
        run_sweep(loaded.grid, loaded.params, loaded.integration,
                  rabi=loaded.rabi)
    assert calls[0] <= 2 + axis_values(loaded.grid)


def test_invalid_last_axis_value_is_refused_before_any_solve(monkeypatch):
    # Half of the smallest subnormal, the point's gamma_c, rounds to 0.
    def solve(*args):
        raise AssertionError("a point was solved before the grid check")

    monkeypatch.setattr(sweep, "steady_state", solve)
    grid = SweepGrid((1.0, 2.0, 5e-324), (0.1,), (1.0,), (FULL,))
    with pytest.raises(ValidationError,
                       match=r"^gamma_c: must be > 0, got 0\.0$"):
        run_sweep(grid, BASE, CFG)


def test_grid_points_lexicographic(monkeypatch):
    monkeypatch.setattr(sweep, "steady_state",
                        lambda *args, **kwargs: DynamicState.vacuum())
    grid = SweepGrid(
        gamma_cav_values=(1.0, 2.0),
        g_values=(0.1, 0.2),
        pump_values=(3.0,),
        toggle_variants=(FULL, FACTORIZED),
    )
    points = [(r.gamma_cav, r.g_over_omega_r0, r.pump, r.toggles)
              for r in run_sweep(grid, BASE, CFG)]
    assert len(points) == 8
    assert points[0] == (1.0, 0.1, 3.0, FULL)
    assert points[1] == (1.0, 0.1, 3.0, FACTORIZED)
    assert points[2] == (1.0, 0.2, 3.0, FULL)
    assert points[4] == (2.0, 0.1, 3.0, FULL)
    assert points[-1] == (2.0, 0.2, 3.0, FACTORIZED)


def test_from_lifetimes_reciprocal():
    grid = SweepGrid.from_lifetimes(
        lifetimes_ps=(0.5, 4.0),
        g_values=(0.2,),
        pump_values=(1.0,),
        toggle_variants=(FULL,),
    )
    assert grid.gamma_cav_values == (2.0, 0.25)
    with pytest.raises(ValueError):
        SweepGrid.from_lifetimes((0.0,), (0.2,), (1.0,), (FULL,))
    # A lifetime whose rate is 0 or overflows is named, not its rate.
    for tau in (math.inf, 1e-310, 1e-320, math.nan, -1.0):
        with pytest.raises(ValueError, match=f"^cavity lifetime {tau} ps: "):
            SweepGrid.from_lifetimes((1.0, tau), (0.2,), (1.0,), (FULL,))


def test_record_lifetime_is_reciprocal_rate():
    grid = SweepGrid((0.8,), (0.1,), (1.0,), (FULL,))
    [record] = run_sweep(grid, BASE, CFG)
    assert record.cavity_lifetime == 1.0 / record.gamma_cav
    assert record.gamma_cav == 0.8


def test_degenerate_grid_matches_direct_solve():
    grid = SweepGrid((1.2,), (0.15,), (0.7,), (FULL,))
    [record] = run_sweep(grid, BASE, CFG)
    rabi = ReferenceRabi()
    params = default_params(
        g=rabi.coupling_for(0.15), gamma_c=0.6, pump=0.7
    )
    direct = observables_of(steady_state(params, FULL, CFG), params)
    assert record.observables == direct
    assert record.converged


def test_sweep_rerun_is_identical():
    grid = small_grid()
    first = run_sweep(grid, BASE, CFG)
    second = run_sweep(grid, BASE, CFG)
    assert first == second
    assert SweepTable(first).csv_rows() == SweepTable(second).csv_rows()


def test_worker_counts_give_identical_output():
    # Three variants, so that pool tasks hold groups with warm guesses.
    grid = SweepGrid((1.0, 2.0, 4.0), (0.1,), (1.0,),
                     (FULL, NO_INVERSION, FACTORIZED))
    serial = run_sweep(grid, BASE, CFG, workers=1)
    parallel = run_sweep(grid, BASE, CFG, workers=2)
    assert serial == parallel
    serial_text = "\n".join(SweepTable(serial).csv_rows())
    parallel_text = "\n".join(SweepTable(parallel).csv_rows())
    assert serial_text == parallel_text


@pytest.mark.parametrize("cpus, pools", [
    (64, [3]), (2, [2]), (1, []), (None, []),
])
def test_worker_count_is_bounded_by_points_and_cpus(monkeypatch, cpus, pools):
    # The executor starts every worker it is asked for at once, so an
    # oversized --workers must not reach it, nor more workers than lines.
    # The fake pool records its size and maps in this process.
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
    # Six points on three lines: a task is a line, so at most three workers.
    grid = SweepGrid((1.0, 2.0), (0.1,), (1.0, 2.0, 3.0), (FULL,))
    records = run_sweep(grid, BASE, CFG, workers=10**6)
    assert started == pools
    assert records == run_sweep(grid, BASE, CFG, workers=1)
    # A count below 1 is refused, not run serially.
    for workers in (0, -3):
        with pytest.raises(ValueError, match=f"at least 1, got {workers}$"):
            run_sweep(grid, BASE, CFG, workers=workers)
    assert started == pools


def test_lines_are_solved_in_ascending_gamma_cav(monkeypatch):
    # Each line (here g 0.1 and g 0.2) is solved in ascending gamma_cav,
    # whatever the axis listing, each point's variants in grid order. Its
    # first solve is steady_state's, cold; the solves after it are one
    # continue_line chain, each from the previous certified root. Where
    # the chain stops (here at full, gamma_cav 1.0 on the g 0.1 line, refused
    # on purpose), steady_state solves that point cold, and so the point
    # after the refusal; a chain starts again from that point's root.
    rabi = ReferenceRabi()
    refused_g = rabi.coupling_for(0.1)
    calls = []

    def refused(params, toggles):
        return toggles == FULL and params.gamma_c == 0.5 and params.g == refused_g

    def chain(points, cfg, guess):
        cut = next((k for k, point in enumerate(points) if refused(*point)),
                   len(points))
        roots = continue_line(points[:cut], cfg, guess)
        for (params, _), root in zip(points, roots):
            calls.append(("chain", params.g, 2 * params.gamma_c, guess, root))
            guess = root
        return roots

    def solve(params, toggles, cfg):
        state = (None if refused(params, toggles)
                 else steady_state(params, toggles, cfg))
        calls.append(("steady_state", params.g, 2 * params.gamma_c, None,
                      None if state is None else state.to_array()))
        if state is None:
            raise NotConverged(cfg.max_time, DynamicState.vacuum(), 1.0)
        return state

    monkeypatch.setattr(sweep, "continue_line", chain)
    monkeypatch.setattr(sweep, "steady_state", solve)
    grid = SweepGrid((2.0, 0.5, 1.0), (0.1, 0.2), (1.0,),
                     (FULL, NO_INVERSION))
    records = run_sweep(grid, BASE, CFG, rabi=rabi)
    assert [r.gamma_cav for r in records] == [2.0] * 4 + [0.5] * 4 + [1.0] * 4
    assert [r.converged for r in records] == [True] * 8 + [False] + [True] * 3
    lines = [calls[:6], calls[6:]]
    for line, g_multiple in zip(lines, (0.1, 0.2)):
        assert {g for _, g, _, _, _ in line} == {rabi.coupling_for(g_multiple)}
        assert [gamma_cav for _, _, gamma_cav, _, _ in line] == [
            0.5, 0.5, 1.0, 1.0, 2.0, 2.0]
        assert line[0][0] == "steady_state"
        for (*_, previous), (seam, _, _, guess, _) in zip(line, line[1:]):
            if seam == "chain":
                assert guess.tobytes() == previous.tobytes()
    assert [seam for seam, *_ in calls] == [
        "steady_state", "chain", "steady_state", "steady_state", "chain",
        "chain", "steady_state"] + ["chain"] * 5


def test_a_certified_line_takes_two_eigen_decompositions(monkeypatch):
    # A sweep_dip-shaped line, 8 lifetimes x 2 variants: the cold first solve
    # certifies its root alone and the chain certifies the other 15 in one
    # stack.
    shapes = []
    eig = np.linalg.eig

    def counting(a):
        shapes.append(a.shape)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting)
    grid = SweepGrid.from_lifetimes(np.geomspace(0.2, 10.0, 8).tolist(),
                                    (0.2,), (1e5,), (FULL, NO_INVERSION))
    records = run_sweep(grid, default_params(g=0.1, gamma_c=0.5, pump=1e5),
                        CFG)
    assert len(records) == 16
    assert all(r.converged for r in records)
    assert shapes == [(1, 10, 10), (15, 10, 10)]


def test_a_chain_stack_judges_its_windows_in_one_stacked_call(monkeypatch):
    # The same line: inside _certify the cold root's closure is called ten
    # times, rhs(root) and nine window samples, and each chained root's only
    # once, for rhs(root); the chain's 135 window samples are one
    # stacked_rhs call.
    calls, stacks, stacked = [0], [], []
    make_rhs, certify = solver.make_rhs, solver._certify
    stacked_rhs = solver.stacked_rhs

    def counting(params, toggles):
        rhs, jac = make_rhs(params, toggles)

        def counted(t, y):
            calls[0] += 1
            return rhs(t, y)

        return counted, jac

    def recording(flows, y0, roots, n, cfg, points=None):
        before = calls[0]
        certified, eigen = certify(flows, y0, roots, n, cfg, points)
        stacks.append((len(roots), int(certified.sum()), calls[0] - before))
        return certified, eigen

    def counting_stack(points, ys):
        stacked.append(ys.shape)
        return stacked_rhs(points, ys)

    monkeypatch.setattr(solver, "make_rhs", counting)
    monkeypatch.setattr(solver, "_certify", recording)
    monkeypatch.setattr(solver, "stacked_rhs", counting_stack)
    grid = SweepGrid.from_lifetimes(np.geomspace(0.2, 10.0, 8).tolist(),
                                    (0.2,), (1e5,), (FULL, NO_INVERSION))
    run_sweep(grid, default_params(g=0.1, gamma_c=0.5, pump=1e5), CFG)
    assert stacks == [(1, 1, 10), (15, 15, 15)]
    assert stacked == [(15, STATE_DIM, 9)]


@pytest.mark.parametrize("workers", [1, 2])
def test_gamma_cav_listing_does_not_change_the_records(workers):
    # Lines are solved in ascending gamma_cav, not in listed order, so a
    # point's record is bitwise the same whichever way the axis is listed;
    # solved in listed order, 9 of this grid's 12 points differ.
    lifetimes, g_values = (0.2, 1.0, 10.0), (0.15, 0.2)
    variants = (FULL, NO_INVERSION)
    base = default_params(g=0.1, gamma_c=0.5, pump=1e5)

    def by_point(listed):
        grid = SweepGrid.from_lifetimes(listed, g_values, (1e5,), variants)
        return {(r.gamma_cav, r.g_over_omega_r0, r.toggles): r
                for r in run_sweep(grid, base, CFG, workers=workers)}

    forward, backward = by_point(lifetimes), by_point(lifetimes[::-1])
    assert len(forward) == 12
    assert forward == backward


def test_a_variant_listed_twice_is_solved_once():
    # Listed twice on one lifetime of fig3's line, `full` was solved twice,
    # the second time warm-started from its own root, and its two rows
    # differed in two_photon and g2_zero. Solved once, both rows are the
    # `full` row of the grid that lists it once, as a repeated lifetime's
    # rows are.
    base = default_params(g=0.1, gamma_c=0.5, pump=1e5)

    def rows(variants):
        grid = SweepGrid.from_lifetimes((3.0,), (0.2,), (1e5,), variants)
        return SweepTable(run_sweep(grid, base, CFG)).csv_rows()

    first, no_inversion, again = rows((FULL, NO_INVERSION, FULL))
    assert again == first
    assert rows((FULL, NO_INVERSION)) == [first, no_inversion]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

def test_the_shipped_figures_match_the_committed_map(tmp_path):
    # The map itself: fig2-fig5 swept as scripts/run_figures.py sweeps them
    # match the CSVs kept in tests/data/figures, every token exactly and
    # every number within the gate. Other bytes, which another BLAS build
    # may give, are reported in a warning, not refused.
    for name in NAMES:
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--config", str(CONFIGS / f"{name}.cfg"),
                     "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        reference = (FIGURES / f"{name}.csv").read_text(encoding="utf-8")
        worst = map_difference(text, reference)
        assert worst <= RTOL, f"{name}: largest scaled difference {worst:.3g}"
        if text != reference:
            warnings.warn(f"{name}: other bytes than the committed map, "
                          f"largest scaled difference {worst:.3g}")


# CI's sweep across the lasing threshold.
THRESHOLD_TEXT = textwrap.dedent("""\
    [model]
    g_multiple_of_omega_r0 = 0.20
    gamma_c_per_ps = 0.05
    pump_per_ps = 1e5
    [grid]
    cavity_lifetime_ps = 15.5, 16, 16.5, 17, 18, 20, 22, 25, 28, 30
    g_multiples = 0.20
""")


def three_variant_run(name):
    """A shipped figure config, or the CI threshold grid, with all three
    variants."""
    text = (THRESHOLD_TEXT if name == "threshold"
            else (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8"))
    text = re.sub(r"(?m)^variants = .*\n", "", text).replace(
        "[grid]\n", "[grid]\nvariants = full, no_inversion, factorized\n")
    run = parse_config(text)
    assert len(run.grid.toggle_variants) == 3
    return run


@pytest.mark.parametrize("name", ["fig3", "threshold"])
def test_stacked_verdicts_equal_the_per_sample_loop(name, monkeypatch):
    # Every stack the sweep certifies, a cold solve's stack of one judged
    # through its closure or a line's chain judged in one stacked_rhs call,
    # gets the verdicts that judging each root alone, one window sample at
    # a time, gives.
    stacks = []
    certify = solver._certify

    def recording(flows, y0, roots, n, cfg, points=None):
        certified, eigen = certify(flows, y0, roots, n, cfg, points)
        stacks.append((flows, y0, roots.copy(), n, cfg, certified.tolist()))
        return certified, eigen

    monkeypatch.setattr(solver, "_certify", recording)
    run = three_variant_run(name)
    run_sweep(run.grid, run.params, run.integration, run.rabi)
    assert max(len(roots) for _, _, roots, *_ in stacks) > 1
    verdicts = []
    for flows, y0, roots, n, cfg, certified in stacks:
        assert certified == reference_verdicts(flows, y0, roots, n, cfg)
        verdicts += certified
    assert all(verdicts) == (name == "fig3")


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "threshold"])
def test_line_sweep_equals_cold_point_solves(name):
    # Each solve of a line after its first starts from the previous solve's
    # root; each must match its own solve from vacuum, converged flags and
    # the states of refused points included.
    run = three_variant_run(name)
    records = run_sweep(run.grid, run.params, run.integration, run.rabi)
    refused = []
    for record in records:
        params = replace(run.params,
                         g=run.rabi.coupling_for(record.g_over_omega_r0),
                         gamma_c=0.5 * record.gamma_cav, pump=record.pump)
        try:
            state = steady_state(params, record.toggles, run.integration)
            converged = True
        except NotConverged as err:
            state, converged = err.last_state, False
            refused.append((round(record.cavity_lifetime, 9), record.toggles))
        assert record.converged == converged
        assert gate_scaled_difference(
            record.observables, observables_of(state, params)) < 1e-12
    if name == "threshold":
        assert refused == [
            (16.0, FULL), (16.0, FACTORIZED), (16.5, FULL),
            (16.5, FACTORIZED), (20.0, NO_INVERSION),
        ]
    else:
        assert not refused


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5", "threshold"])
def test_line_chain_equals_point_by_point_solves(name, monkeypatch):
    # A line's warm-started solves are one continue_line chain, certified in
    # stacks; every record and every solved state, refused points' included,
    # is bitwise what one point at a time gives, each a chain of one or a
    # cold solve. Every steady_state call is cold: a line's first point,
    # the point after a refused one and each point where the chain stops,
    # which the shipped figures never reach.
    run = three_variant_run(name)
    expected, expected_states = point_by_point_sweep(
        run.grid, run.params, run.integration, run.rabi)
    states, cold = [], []

    def recording(state, params):
        states.append(state)
        return observables_of(state, params)

    def solve(params, toggles, cfg):
        cold.append((round(0.5 / params.gamma_c, 9), toggles))
        return steady_state(params, toggles, cfg)

    monkeypatch.setattr(sweep, "observables_of", recording)
    monkeypatch.setattr(sweep, "steady_state", solve)
    records = run_sweep(run.grid, run.params, run.integration, run.rabi)
    assert SweepTable(records).csv_rows() == SweepTable(expected).csv_rows()
    assert [r.converged for r in records] == [r.converged for r in expected]
    assert [s.to_array().tobytes() for s in states] == [
        s.to_array().tobytes() for s in expected_states]
    lifetimes = sorted({round(r.cavity_lifetime, 9) for r in records},
                       reverse=True)
    first = [(lifetimes[0], run.grid.toggle_variants[0])]
    lines = len(run.grid.g_values) * len(run.grid.pump_values)
    if name == "threshold":
        # The chain stops at seven points. At factorized 22, 18 and 17 ps
        # the cold solve certifies; the other four are refused, and so is
        # full at 16 ps, a cold solve after the refusal at 16.5 ps. The
        # points after the five refusals are solved cold too.
        assert cold == first + [
            (22.0, FACTORIZED), (20.0, NO_INVERSION), (20.0, FACTORIZED),
            (18.0, FACTORIZED), (17.0, FACTORIZED), (16.5, FULL),
            (16.5, NO_INVERSION), (16.5, FACTORIZED), (16.0, FULL),
            (16.0, NO_INVERSION), (16.0, FACTORIZED), (15.5, FULL),
        ]
    else:
        assert cold == first * lines


def test_no_point_is_continued_twice_from_one_warm_start(monkeypatch):
    # On the three-variant threshold grid a line's chain stops at seven
    # points, each continued from the certified root before it and not
    # certified. The sweep solves each of them cold next, from vacuum and
    # up the pump ladder, so each is continued from that root once; retried
    # from the same warm start, each was continued from it twice.
    owners, starts, solved, cold = {}, [], [], []
    make_rhs, continue_to_root = solver.make_rhs, solver._continue_to_root

    def owned(params, toggles):
        flow = make_rhs(params, toggles)
        owners[id(flow[0])] = (params, toggles, flow)
        return flow

    def counted(rhs, jac, y0, n, cfg, h):
        params, toggles, _ = owners[id(rhs)]
        starts.append((params, toggles, y0.tobytes()))
        return continue_to_root(rhs, jac, y0, n, cfg, h)

    def recording(state, params):
        solved.append((state, params))
        return observables_of(state, params)

    def solve(params, toggles, *args, **kwargs):
        cold.append((params, toggles))
        return steady_state(params, toggles, *args, **kwargs)

    monkeypatch.setattr(solver, "make_rhs", owned)
    monkeypatch.setattr(solver, "_continue_to_root", counted)
    monkeypatch.setattr(sweep, "observables_of", recording)
    monkeypatch.setattr(sweep, "steady_state", solve)
    run = three_variant_run("threshold")
    records = run_sweep(run.grid, run.params, run.integration, run.rabi)
    converged = {(r.gamma_cav, r.toggles): r.converged for r in records}
    line = list(itertools.product(sorted(run.grid.gamma_cav_values),
                                  run.grid.toggle_variants))
    vacuum = DynamicState.vacuum().to_array()
    counts = []
    for before, (state, _), (_, toggles), (_, params) in zip(
            line, solved, line[1:], solved[1:]):
        if converged[before] and (params, toggles) in cold:
            n = STATE_DIM if toggles.include_doublets else SINGLET_DIM
            start = vacuum.copy()
            start[:n] = state.to_array()[:n]
            counts.append(starts.count((params, toggles, start.tobytes())))
    assert counts == [1] * 7


def test_non_convergence_is_captured_not_raised():
    cfg = IntegrationConfig(max_time=0.5, steady_window=0.2)
    grid = SweepGrid((1.0,), (0.1,), (1.0,), (FULL,))
    [record] = run_sweep(grid, BASE, cfg)
    assert not record.converged
    # The carried state is the best available estimate, not NaN.
    assert math.isfinite(record.observables.photon_number)


def fabricated(g2, rate):
    obs = Observables(
        photon_number=0.1,
        two_photon=0.02 if g2 is None else g2 * 0.01,
        g2_zero=g2,
        output_rate=rate,
    )
    return SweepRecord(
        gamma_cav=1.0, g_over_omega_r0=0.2,
        pump=1.0, toggles=FULL, observables=obs, converged=True,
    )


def test_csv_schema_and_tokens():
    table = SweepTable((
        fabricated(g2=0.25, rate=0.125),
        fabricated(g2=None, rate=0.0),
    ))
    assert table.header() == ",".join(CSV_COLUMNS)
    assert table.header().split(",")[0] == "gamma_cav_per_ps"
    rows = table.csv_rows()
    assert len(rows) == 2
    first = rows[0].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert first[4] == "true"
    assert first[5] == "true"
    assert float(first[8]) == 0.25
    second = rows[1].split(",")
    assert second[8] == "undefined"
    # repr round-trip keeps full precision.
    assert float(first[0]) == 1.0


def test_jsonl_rows_are_strict_json():
    nan_obs = Observables(
        photon_number=float("nan"), two_photon=float("nan"),
        g2_zero=None, output_rate=float("nan"),
    )
    bad = SweepRecord(
        gamma_cav=1.0, g_over_omega_r0=0.2,
        pump=1.0, toggles=FACTORIZED, observables=nan_obs, converged=False,
    )
    table = SweepTable((fabricated(g2=2.0, rate=0.5), bad))
    rows = table.jsonl_rows()
    parsed = [json.loads(row) for row in rows]
    assert parsed[0]["g2_zero"] == 2.0
    assert parsed[0]["include_doublets"] is True
    assert parsed[1]["g2_zero"] is None
    assert parsed[1]["n_photon"] is None
    assert parsed[1]["converged"] is False
    for row in parsed:
        assert set(row) == set(CSV_COLUMNS)


def test_jsonl_keys_follow_csv_columns():
    table = SweepTable((fabricated(g2=0.25, rate=0.125),))
    row = json.loads(table.jsonl_rows()[0])
    assert tuple(row) == CSV_COLUMNS
