"""Sweep grids, record schema, determinism, and parallel equivalence."""

import json
import math

import pytest

from qdcavity import (
    IntegrationConfig,
    Observables,
    ReferenceRabi,
    SweepGrid,
    SweepRecord,
    SweepTable,
    ValidationError,
    default_params,
    observables_of,
    regime_classify,
    run_sweep,
    steady_state,
)
from qdcavity.dynamics import TOGGLE_VARIANTS
from qdcavity.sweep import CSV_COLUMNS

FULL = TOGGLE_VARIANTS["full"]
FACTORIZED = TOGGLE_VARIANTS["factorized"]

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


def test_grid_points_lexicographic():
    grid = SweepGrid(
        gamma_cav_values=(1.0, 2.0),
        g_values=(0.1, 0.2),
        pump_values=(3.0,),
        toggle_variants=(FULL, FACTORIZED),
    )
    points = list(grid.points())
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
    grid = small_grid()
    serial = run_sweep(grid, BASE, CFG, workers=1)
    parallel = run_sweep(grid, BASE, CFG, workers=2)
    assert serial == parallel
    serial_text = "\n".join(SweepTable(serial).csv_rows())
    parallel_text = "\n".join(SweepTable(parallel).csv_rows())
    assert serial_text == parallel_text


def test_non_convergence_is_captured_not_raised():
    cfg = IntegrationConfig(max_time=0.5, steady_window=0.2)
    grid = SweepGrid((1.0,), (0.1,), (1.0,), (FULL,))
    [record] = run_sweep(grid, BASE, cfg)
    assert not record.converged
    # The carried state is the best available estimate, not NaN.
    assert math.isfinite(record.observables.photon_number)


def fabricated(g2, rate, pump=1.0):
    obs = Observables(
        photon_number=0.1,
        two_photon=0.02 if g2 is None else g2 * 0.01,
        g2_zero=g2,
        output_rate=rate,
    )
    return SweepRecord(
        gamma_cav=1.0, g_over_omega_r0=0.2,
        pump=pump, toggles=FULL, observables=obs, converged=True,
    )


def test_regime_classification():
    records = [
        fabricated(g2=0.5, rate=0.5),
        fabricated(g2=0.01, rate=0.01),
        fabricated(g2=0.01, rate=1e-5),
        fabricated(g2=None, rate=0.5),
    ]
    assert regime_classify(records) == ["strong", "purcell", "weak", "purcell"]


def test_regime_classification_rejects_mixed_pumps():
    records = [fabricated(g2=0.5, rate=0.5, pump=1.0),
               fabricated(g2=0.5, rate=0.5, pump=2.0)]
    with pytest.raises(ValueError):
        regime_classify(records)


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
