"""Configuration parsing with line-numbered errors, and the CLI surface."""

import dataclasses
import errno
import functools
import json
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from qdcavity import (
    ConfigError,
    REFERENCE_COUPLING_RAD_PER_PS,
    cli,
    oracle,
    solver,
)
from qdcavity.cli import main
from qdcavity.config import (
    DEFAULT_AGREEMENT_BAND,
    MAX_GRID_POINTS,
    RunConfig,
    load_config,
    parse_config,
)
from qdcavity.dynamics import ARRAY_FIELDS, TOGGLE_VARIANTS
from qdcavity.errors import (
    NonFiniteState,
    OracleError,
    SingularSteadyState,
    StiffnessFailure,
)
from qdcavity.model import ReferenceRabi, default_params
from qdcavity.solver import (
    IntegrationConfig,
    settling_trajectory,
    steady_state,
)
from qdcavity.sweep import CSV_COLUMNS, SweepGrid

MINIMAL = textwrap.dedent("""\
    [model]
    g_rad_per_ps = 0.05
    gamma_c_per_ps = 0.5
    pump_per_ps = 1.0
""")


def config_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_minimal_config_defaults():
    config = parse_config(MINIMAL)
    assert config.params.g == 0.05
    assert config.params.gamma_c == 0.5
    assert config.params.pump == 1.0
    assert config.params.gamma_deph == 0.01
    assert config.params.gamma_nr == 0.03
    assert config.params.gamma_nl == 0.01
    assert config.params.detuning == 0.0
    assert config.params == default_params(g=0.05, gamma_c=0.5, pump=1.0)
    assert config.toggles == TOGGLE_VARIANTS["full"]
    assert config.integration.rel_tol == 1e-9
    assert config.integration == IntegrationConfig()
    assert config.grid is None
    assert config.output_path == "qdcavity_out.csv"
    assert config.output_format == "csv"
    assert config.oracle_n_max == 8
    assert config.oracle_band == DEFAULT_AGREEMENT_BAND == 0.25


def test_parse_coupling_as_reference_multiple():
    text = textwrap.dedent("""\
        [model]
        g_multiple_of_omega_r0 = 0.2
        gamma_c_per_ps = 0.5
        pump_per_ps = 1.0
    """)
    config = parse_config(text)
    assert config.params.g == 0.2 * REFERENCE_COUPLING_RAD_PER_PS


def test_parse_custom_coupling_scale():
    text = textwrap.dedent("""\
        [model]
        g_multiple_of_omega_r0 = 2.0
        coupling_scale_rad_per_ps = 0.1
        gamma_c_per_ps = 0.5
        pump_per_ps = 1.0
    """)
    config = parse_config(text)
    assert config.params.g == 0.2
    assert config.rabi.coupling_scale == 0.1


def test_exactly_one_coupling_form():
    both = MINIMAL + "g_multiple_of_omega_r0 = 0.2\n"
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(both)
    neither = textwrap.dedent("""\
        [model]
        gamma_c_per_ps = 0.5
        pump_per_ps = 1.0
    """)
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(neither)


def test_missing_required_keys():
    with pytest.raises(ConfigError, match="gamma_c_per_ps"):
        parse_config("[model]\ng_rad_per_ps = 0.05\npump_per_ps = 1.0\n")
    with pytest.raises(ConfigError, match="pump_per_ps"):
        parse_config("[model]\ng_rad_per_ps = 0.05\ngamma_c_per_ps = 0.5\n")


def test_scan_errors_carry_line_numbers():
    cases = (
        ("[model]\nbogus_key = 1\n", 2, "unknown key"),
        ("[model]\nomega_r0_per_ps = 0.025\n", 2, "unknown key"),
        ("[nonsense]\n", 1, "unknown section"),
        ("[model]\npump_per_ps = 1\npump_per_ps = 2\n", 3, "duplicate"),
        (
            "[model]\ng_rad_per_ps = 0.05\ngamma_c_per_ps = 0.5\n"
            "pump_per_ps = abc\n",
            4, "not a number",
        ),
        ("[model]\npump_per_ps =\n", 2, "empty value"),
        ("pump_per_ps = 1\n", 1, "before any"),
        ("[model\n", 1, "unterminated"),
        ("[model]\njust words\n", 2, "key = value"),
        # A typed value is checked as it is scanned: each of these files
        # also lacks [model], a cross-key error found only after the scan.
        ("[oracle]\nn_max = 65\n", 2, "n_max must be in [1, 64]"),
        ("[output]\nformat = xml\n", 2, "format must be csv or jsonl"),
        ("[grid]\nvariants = full, bogus\n", 2, "variant 'bogus'"),
        ("[oracle]\nagreement_band_rel = -1\n", 2, "must be positive"),
        ("[grid]\ng_multiples = lin(0.1, 1)\n", 2, "lin() takes"),
    )
    for text, line, fragment in cases:
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.line == line, text
        assert str(info.value).startswith(f"line {line}:"), text
        assert fragment in str(info.value), text


def test_model_validation_errors_point_at_the_key():
    text = textwrap.dedent("""\
        [model]
        g_rad_per_ps = 0.05
        gamma_c_per_ps = -0.5
        pump_per_ps = 1.0
    """)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.line == 3
    assert "gamma_c" in str(info.value)


def test_integration_section_round_trip_and_validation():
    text = MINIMAL + textwrap.dedent("""\
        [integration]
        rel_tol = 1e-8
        max_time_ps = 500
    """)
    config = parse_config(text)
    assert config.integration.rel_tol == 1e-8
    assert config.integration.max_time == 500.0
    assert config.integration.abs_tol == 1e-12
    bad = MINIMAL + "[integration]\nrel_tol = 2.0\n"
    with pytest.raises(ConfigError, match="rel_tol"):
        parse_config(bad)


def test_grid_lists_and_range_expressions():
    text = MINIMAL + textwrap.dedent("""\
        [grid]
        cavity_lifetime_ps = geom(0.2, 10, 5)
        g_multiples = lin(0.1, 0.2, 3)
        pump_per_ps = 0.5, 2.0
        variants = full, factorized
    """)
    grid = parse_config(text).grid
    assert grid is not None
    assert len(grid.gamma_cav_values) == 5
    assert grid.gamma_cav_values[0] == 1.0 / 0.2
    assert grid.gamma_cav_values[-1] == pytest.approx(0.1, rel=1e-12)
    assert grid.g_values == (0.1, 0.15000000000000002, 0.2) or \
        grid.g_values == pytest.approx((0.1, 0.15, 0.2))
    assert grid.pump_values == (0.5, 2.0)
    assert grid.toggle_variants == (
        TOGGLE_VARIANTS["full"], TOGGLE_VARIANTS["factorized"],
    )


def test_grid_requires_exactly_one_axis_form():
    both = MINIMAL + textwrap.dedent("""\
        [grid]
        gamma_cav_per_ps = 1.0
        cavity_lifetime_ps = 1.0
        g_multiples = 0.2
    """)
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(both)
    neither = MINIMAL + "[grid]\ng_multiples = 0.2\n"
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(neither)
    no_multiples = MINIMAL + "[grid]\ngamma_cav_per_ps = 1.0\n"
    with pytest.raises(ConfigError, match="g_multiples"):
        parse_config(no_multiples)


def test_grid_inherits_pump_and_variant():
    text = MINIMAL + textwrap.dedent("""\
        [grid]
        gamma_cav_per_ps = 1.0, 2.0
        g_multiples = 0.2
    """)
    grid = parse_config(text).grid
    assert grid.pump_values == (1.0,)
    assert grid.toggle_variants == (TOGGLE_VARIANTS["full"],)


def test_grid_point_overflow_is_a_config_error(tmp_path, capsys):
    # Scale and multiple are each finite, their product is not.
    text = textwrap.dedent("""\
        [model]
        coupling_scale_rad_per_ps = 1e308
        g_multiple_of_omega_r0 = 0.2
        gamma_c_per_ps = 0.5
        pump_per_ps = 1.0
        [grid]
        gamma_cav_per_ps = 1.0
        g_multiples = 10
    """)
    with pytest.raises(ConfigError, match="g: must be finite") as info:
        parse_config(text)
    assert info.value.line == 6
    path = config_file(tmp_path, text)
    out = str(tmp_path / "out.csv")
    assert main(["sweep", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1


def test_grid_point_subnormal_rate_is_a_config_error(tmp_path, capsys):
    # 5e-324 is a positive axis value, but the point's gamma_c, half of it,
    # rounds to 0.
    text = MINIMAL + textwrap.dedent("""\
        [grid]
        gamma_cav_per_ps = 1.0, 5e-324
        g_multiples = 0.2
    """)
    with pytest.raises(ConfigError, match="grid point: gamma_c: must be > 0"
                       ) as info:
        parse_config(text)
    assert info.value.line == 5
    path = config_file(tmp_path, text)
    out = str(tmp_path / "out.csv")
    assert main(["sweep", "--config", path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: line 5: grid point: gamma_c: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("lifetimes, named", [
    ("inf", "inf"), ("1e-310", "1e-310"), ("geom(1e-320, 1, 3)", "1e-320"),
])
def test_lifetime_without_a_finite_rate_is_named(tmp_path, capsys, lifetimes,
                                                  named):
    # The reciprocal of inf is 0 and that of 1e-310 overflows; the error
    # names the lifetime, at the [grid] line, not the rate it gives.
    text = MINIMAL + "[grid]\ncavity_lifetime_ps = " + lifetimes + (
        "\ng_multiples = 0.2\n")
    with pytest.raises(ConfigError, match=f"cavity lifetime {named} ps: "
                       ) as info:
        parse_config(text)
    assert info.value.line == 5
    path = config_file(tmp_path, text)
    assert main(["sweep", "--config", path,
                 "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line 5: cavity lifetime {named} ps")
    assert err.count("\n") == 1


@pytest.mark.parametrize("grid, line", [
    # One axis count above the bound, refused before its array is built.
    ("gamma_cav_per_ps = lin(0.1, 1, 10000000000000)\ng_multiples = 0.2\n", 6),
    # Two valid axes whose product, 10^10 points, is above the bound.
    ("gamma_cav_per_ps = lin(0.1, 1, 100000)\n"
     "g_multiples = lin(0.1, 1, 100000)\n", 5),
], ids=["axis", "product"])
def test_oversized_grid_is_refused_at_once(tmp_path, capsys, grid, line):
    assert MAX_GRID_POINTS == 10**6
    path = config_file(tmp_path, MINIMAL + "[grid]\n" + grid)
    start = time.perf_counter()
    code = main(["sweep", "--config", path, "--out", str(tmp_path / "o.csv")])
    elapsed = time.perf_counter() - start
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}: ")
    assert err.count("\n") == 1
    assert elapsed < 0.5


def test_geom_expression_errors():
    bad_count = MINIMAL + "[grid]\ncavity_lifetime_ps = geom(1, 2)\ng_multiples = 0.2\n"
    with pytest.raises(ConfigError, match="geom"):
        parse_config(bad_count)
    bad_sign = MINIMAL + "[grid]\ncavity_lifetime_ps = geom(-1, 2, 3)\ng_multiples = 0.2\n"
    with pytest.raises(ConfigError, match="positive"):
        parse_config(bad_sign)


@pytest.mark.parametrize("section", [
    "[grid]\ncavity_lifetime_ps = lin(one, 2, 3)\ng_multiples = 0.2\n",
    "[grid]\ngamma_cav_per_ps = geom(0.1, 2, 2.5)\ng_multiples = 0.2\n",
    "[grid]\ncavity_lifetime_ps = lin(1, 2, 0)\ng_multiples = 0.2\n",
    "[grid]\ngamma_cav_per_ps = geom(0.1, 2, 0)\ng_multiples = 0.2\n",
    "[oracle]\nn_max = 8.5\n",
], ids=["lin-word", "geom-fraction", "lin-count-0", "geom-count-0",
        "n_max-fraction"])
def test_cli_bad_value_is_a_one_line_config_error(tmp_path, capsys, section):
    # The value on line 6 is refused at parse time: exit 1 and one stderr
    # line naming it, never a traceback.
    path = config_file(tmp_path, MINIMAL + section)
    assert main(["simulate", "--config", path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: line 6: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_trajectory_past_the_step_budget_exits_2(tmp_path, capsys,
                                                     monkeypatch):
    # The recorded march needs more than five steps; the budget ends it
    # with exit 2 and one stderr line.
    monkeypatch.setattr(solver, "MAX_MARCH_STEPS", 5)
    path = config_file(tmp_path, MINIMAL)
    out_file = tmp_path / "traj.csv"
    code = main(["simulate", "--config", path, "--trajectory",
                 "--out", str(out_file)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "after 5 steps" in err
    assert "Traceback" not in err
    assert not out_file.exists()


def test_unknown_toggle_variant_is_line_numbered():
    text = MINIMAL + "[toggles]\nvariant = bogus\n"
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert info.value.line == 6
    assert "bogus" in str(info.value)


def test_output_and_oracle_sections():
    text = MINIMAL + textwrap.dedent("""\
        [output]
        path = results/run.jsonl
        format = jsonl

        [oracle]
        n_max = 12
        agreement_band_rel = 0.3
    """)
    config = parse_config(text)
    assert config.output_path == "results/run.jsonl"
    assert config.output_format == "jsonl"
    assert config.oracle_n_max == 12
    assert config.oracle_band == 0.3
    with pytest.raises(ConfigError, match="format"):
        parse_config(MINIMAL + "[output]\nformat = xml\n")
    with pytest.raises(ConfigError, match="n_max"):
        parse_config(MINIMAL + "[oracle]\nn_max = 0\n")
    with pytest.raises(ConfigError, match="n_max") as info:
        parse_config(MINIMAL + "[oracle]\nn_max = 65\n")
    assert info.value.line == 6
    with pytest.raises(ConfigError, match="agreement_band_rel"):
        parse_config(MINIMAL + "[oracle]\nagreement_band_rel = -1\n")


def test_comments_and_blank_lines_are_ignored():
    text = textwrap.dedent("""\

        # leading comment
        [model]  # trailing section comment
        g_rad_per_ps = 0.05  # coupling
        gamma_c_per_ps = 0.5

        pump_per_ps = 1.0
    """)
    config = parse_config(text)
    assert config.params.pump == 1.0


SHIPPED_CONFIGS = sorted(
    (Path(__file__).resolve().parent.parent / "configs").glob("*.cfg")
)


def test_shipped_configs_load_with_a_grid():
    assert SHIPPED_CONFIGS
    for path in SHIPPED_CONFIGS:
        assert load_config(path).grid is not None, path.name


def _run_config(g_multiple, gamma_c, pump, variant="full", grid=None,
                path="qdcavity_out.csv", n_max=8):
    return RunConfig(
        params=default_params(
            g=g_multiple * REFERENCE_COUPLING_RAD_PER_PS, gamma_c=gamma_c,
            pump=pump,
        ),
        rabi=ReferenceRabi(),
        toggles=TOGGLE_VARIANTS[variant],
        integration=IntegrationConfig(),
        grid=grid,
        output_path=path,
        output_format="csv",
        oracle_n_max=n_max,
        oracle_band=0.25,
    )


def _variants(*names):
    return tuple(TOGGLE_VARIANTS[name] for name in names)


def _assert_fields_equal(got, want, name):
    for field in dataclasses.fields(RunConfig):
        assert getattr(got, field.name) == getattr(want, field.name), \
            (name, field.name)


def test_shipped_configs_parse_to_fixed_run_configs():
    lifetimes = tuple(np.geomspace(0.2, 10, 50).tolist())
    expected = {
        "fig2.cfg": _run_config(0.2, 0.2, 1.0, grid=SweepGrid(
            (0.3, 0.4, 2.2, 8.0), (0.2,),
            tuple(np.geomspace(1e-2, 1e5, 36).tolist()), _variants("full"),
        ), path="fig2_moments_vs_pump.csv"),
        "fig3.cfg": _run_config(0.2, 0.5, 1e5, grid=SweepGrid.from_lifetimes(
            lifetimes, (0.2,), (1e5,), _variants("full", "no_inversion"),
        ), path="fig3_lifetime_scan_toggle.csv"),
        "fig4.cfg": _run_config(0.2, 0.5, 1e5, grid=SweepGrid.from_lifetimes(
            lifetimes, (0.1, 0.14, 0.18, 0.2), (1e5,), _variants("full"),
        ), path="fig4_lifetime_vs_coupling.csv"),
        "fig5.cfg": _run_config(0.2, 0.5, 1e5, grid=SweepGrid(
            (0.3, 2.2, 8.0), tuple(np.linspace(0.02, 0.3, 29).tolist()), (1e5,),
            _variants("full", "no_inversion"),
        ), path="fig5_coupling_scan.csv"),
    }
    assert [path.name for path in SHIPPED_CONFIGS] == sorted(expected)
    for path in SHIPPED_CONFIGS:
        _assert_fields_equal(load_config(path), expected[path.name], path.name)


def test_benchmark_configs_parse_to_fixed_run_configs():
    # The config texts the benchmark sends in the first unit of each of its
    # streams, checked against RunConfigs built from the pool entries.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import bench_workloads as bw
    finally:
        sys.path.pop(0)
    (dip,) = bw.Stream("sweep_dip", 1).unit(0)
    _assert_fields_equal(parse_config(dip.config_text), _run_config(
        bw.DIP_G_MULTIPLE, 0.5, bw.DIP_PUMP, grid=SweepGrid.from_lifetimes(
            [e["lifetime_ps"] for e in dip.expected["entries"]],
            (bw.DIP_G_MULTIPLE,), (bw.DIP_PUMP,), _variants(*bw.DIP_VARIANTS),
        )), dip.name)
    (par,) = bw.Stream(bw.POOL_PROBE, 1).unit(0)
    _assert_fields_equal(parse_config(par.config_text), _run_config(
        bw.PAR_G_MULTIPLE, 0.2, 1.0, grid=SweepGrid(
            bw.PAR_GAMMA_CAV, (bw.PAR_G_MULTIPLE,),
            [e["pump_per_ps"] for e in par.expected["entries"]],
            _variants("full"),
        )), par.name)
    requests = bw.Stream("single_point", 1).unit(0)
    assert len(requests) == len(bw.CYCLE)
    for request in requests:
        entry = request.expected
        _assert_fields_equal(parse_config(request.config_text), _run_config(
            entry["g_multiple"], entry["gamma_c"], entry["pump"],
            variant=entry["variant"], n_max=entry.get("n_max_start", 8),
        ), request.name)


def test_cli_simulate_prints_observables(tmp_path, capsys):
    path = config_file(tmp_path, MINIMAL)
    assert main(["simulate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "n_photon=" in out
    assert "g2_zero=" in out
    assert "converged=" in out
    assert "true" in out


def test_cli_simulate_config_error(tmp_path, capsys):
    path = config_file(tmp_path, "[model]\ngamma_c_per_ps = -1\n")
    assert main(["simulate", "--config", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_simulate_infinite_residual_is_a_config_error(tmp_path, capsys):
    text = MINIMAL + "[integration]\nsteady_state_residual = inf\n"
    path = config_file(tmp_path, text)
    assert main(["simulate", "--config", path]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "line 6:" in err
    assert "steady_state_residual" in err


def test_cli_simulate_missing_file(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep", "oracle-compare"])
def test_cli_non_utf8_config_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe[model]\n")
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error:")


@pytest.mark.parametrize("extra", [[], ["--trajectory"]],
                         ids=["simulate", "trajectory"])
def test_cli_simulate_not_converged(tmp_path, capsys, extra):
    # A refused point prints the same report with or without --trajectory,
    # and writes no trajectory.
    text = MINIMAL + "[integration]\nmax_time_ps = 1.0\n"
    path = config_file(tmp_path, text)
    out_file = tmp_path / "traj.csv"
    argv = ["simulate", "--config", path, "--out", str(out_file)]
    assert main(argv) == 2
    plain = capsys.readouterr().out
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == plain
    assert not out_file.exists()
    assert "last_residual=" in captured.out
    assert "converged=" in captured.out
    assert "false" in captured.out
    assert "not converged" in captured.err


@pytest.mark.parametrize("variant", ["full", "no_inversion"])
def test_cli_refused_point_at_an_unstable_root_prints_finite_numbers(
        tmp_path, capsys, variant):
    # At a 1000 ps cavity lifetime the last root found is unstable; the
    # report carries that root, not its overflowing linearised flow, so no
    # nan or inf is printed.
    text = textwrap.dedent(f"""\
        [model]
        g_multiple_of_omega_r0 = 0.20
        gamma_c_per_ps = 0.0005
        pump_per_ps = 1e5
        [toggles]
        variant = {variant}
    """)
    assert main(["simulate", "--config", config_file(tmp_path, text)]) == 2
    out = capsys.readouterr().out
    assert "converged=              false\n" in out
    assert "last_residual=" in out
    assert not re.search("nan|inf", out)


def test_cli_simulate_trajectory_output(tmp_path, capsys):
    path = config_file(tmp_path, MINIMAL)
    out_file = tmp_path / "traj.csv"
    code = main([
        "simulate", "--config", path, "--trajectory", "--out", str(out_file),
    ])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "t_ps," + ",".join(ARRAY_FIELDS)
    assert len(lines) > 2
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert len(first) == 11
    # Every row parses back bitwise to the recorded arrays, and the last
    # one is the certified state.
    config = load_config(path)
    state = steady_state(config.params, config.toggles, config.integration)
    trajectory = settling_trajectory(
        config.params, config.toggles, config.integration
    )
    rows = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
    assert rows[:, 0].tobytes() == trajectory.times.tobytes()
    assert rows[:, 1:].tobytes() == trajectory.states.tobytes()
    assert rows[-1, 1:].tobytes() == state.to_array().tobytes()


SWEEP_TEXT = MINIMAL + textwrap.dedent("""\
    [grid]
    cavity_lifetime_ps = 0.5, 2.0
    g_multiples = 0.2
""")


def test_cli_sweep_writes_csv_and_plot_template(tmp_path, capsys):
    path = config_file(tmp_path, SWEEP_TEXT)
    out_file = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", path, "--out", str(out_file), "--workers", "1",
    ])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("gamma_cav_per_ps,")
    assert len(lines) == 3
    plot = tmp_path / "sweep.gp"
    assert plot.exists()
    assert "sweep.csv" in plot.read_text()
    assert "wrote 2 records" in capsys.readouterr().out


def test_gnuplot_template_columns_match_csv_columns():
    template = cli._GNUPLOT_TEMPLATE
    comment = " ".join(line.removeprefix("#")
                       for line in template.splitlines()[1:]
                       if line.startswith("#"))
    numbered = [item.split() for item in
                comment.removeprefix(" Columns:").split(",")]
    assert numbered == [[str(k), name]
                        for k, name in enumerate(CSV_COLUMNS, 1)]
    plotted = [(CSV_COLUMNS[int(x) - 1], CSV_COLUMNS[int(y) - 1])
               for x, y in re.findall(r"using (\d+):(\d+)", template)]
    assert plotted == [("cavity_lifetime_ps", "g2_zero"),
                       ("cavity_lifetime_ps", "output_rate_per_ps")]


@pytest.mark.parametrize("out", ["--out", "[output]"])
def test_cli_sweep_refuses_a_csv_its_plot_template_would_overwrite(
        tmp_path, capsys, monkeypatch, out):
    def solve(*args, **kwargs):
        raise AssertionError("a point was solved before the output check")

    monkeypatch.setattr(cli, "run_sweep", solve)
    out_file = tmp_path / "sweep.gp"
    text = SWEEP_TEXT + f"[output]\npath = {out_file}\n"
    argv = ["sweep", "--config", config_file(tmp_path, text)]
    if out == "--out":
        argv = ["sweep", "--config", config_file(tmp_path, SWEEP_TEXT),
                "--out", str(out_file)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"output error: {out_file}: ")
    assert not out_file.exists()
    # A jsonl sweep writes no template, so the same path is its output.
    monkeypatch.undo()
    assert main(argv + ["--format", "jsonl"]) == 0
    assert len(out_file.read_text().splitlines()) == 2


def test_cli_sweep_worker_counts_byte_identical(tmp_path, capsys):
    path = config_file(tmp_path, SWEEP_TEXT)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(["sweep", "--config", path, "--out", str(serial),
                 "--workers", "1"]) == 0
    assert main(["sweep", "--config", path, "--out", str(parallel),
                 "--workers", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_cli_sweep_jsonl_format(tmp_path, capsys):
    path = config_file(tmp_path, SWEEP_TEXT)
    out_file = tmp_path / "sweep.jsonl"
    code = main([
        "sweep", "--config", path, "--out", str(out_file),
        "--format", "jsonl", "--workers", "1",
    ])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        row = json.loads(line)
        assert row["g_over_omega_r0"] == 0.2


LONG_NAME = "a" * 300 + ".csv"
# How OSError names the failure of a path check on LONG_NAME.
TOO_LONG = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"


@pytest.mark.parametrize("command", [
    ["simulate", "--trajectory"],
    ["sweep", "--format", "csv"],
    ["sweep", "--format", "jsonl"],
    # The last --out wins: taken.csv is free, but its plot template's path,
    # taken.gp, is a directory.
    ["sweep", "--format", "csv", "--out", "taken.csv"],
    # plain is a regular file, so nothing can be written under it.
    ["sweep", "--format", "csv", "--out", "plain/s.csv"],
    ["simulate", "--trajectory", "--out", "plain/sub/t.csv"],
    # A name longer than the file system takes fails the checks themselves.
    ["sweep", "--format", "csv", "--out", LONG_NAME],
    ["simulate", "--trajectory", "--out", LONG_NAME],
])
def test_cli_unwritable_out_is_an_output_error(tmp_path, capsys, monkeypatch,
                                               command):
    def solve(*args, **kwargs):
        raise AssertionError("a point was solved before the output check")

    for name in ("run_sweep", "settling_trajectory", "steady_state"):
        monkeypatch.setattr(cli, name, solve)
    monkeypatch.chdir(tmp_path)
    path = config_file(tmp_path, SWEEP_TEXT)
    Path("taken").mkdir()
    Path("taken.gp").mkdir()
    Path("plain").write_text("")
    argv = command[:1] + ["--config", path, "--out", "taken"] + command[1:]
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert err.startswith("output error: ")
    taken = ("taken.gp" if "taken.csv" in command
             else "plain" if command[-1].startswith("plain/")
             else TOO_LONG if command[-1] == LONG_NAME else "taken")
    assert err.startswith(f"output error: {taken}: ")
    if taken == "plain":
        assert err == "output error: plain: is not a directory\n"
    assert captured.out == ""
    assert sorted(os.listdir()) == ["plain", "run.cfg", "taken", "taken.gp"]
    assert Path("plain").read_text() == ""


@pytest.mark.parametrize("command", [
    ["simulate", "--trajectory"],
    ["sweep", "--format", "csv"],
    ["sweep", "--format", "jsonl"],
], ids=["trajectory", "csv", "jsonl"])
def test_cli_write_failure_after_the_solve_is_an_output_error(
        tmp_path, capsys, monkeypatch, command):
    # The out path passes its checks, and the disk fills while the solved
    # result is written.
    def full_disk(path, text):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_write_text", full_disk)
    path = config_file(tmp_path, SWEEP_TEXT)
    out_file = tmp_path / "out.csv"
    argv = command[:1] + ["--config", path, "--out", str(out_file)] + command[1:]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"output error: [Errno {errno.ENOSPC}] No space left on device\n")
    assert captured.out == ""
    assert not out_file.exists()


def test_cli_sweep_requires_grid(tmp_path, capsys):
    path = config_file(tmp_path, MINIMAL)
    assert main(["sweep", "--config", path]) == 1
    assert "grid" in capsys.readouterr().err


ORACLE_TEXT = textwrap.dedent("""\
    [model]
    g_multiple_of_omega_r0 = 0.1
    gamma_c_per_ps = 1.0
    pump_per_ps = 0.001
""")


def test_cli_oracle_compare_within_band(tmp_path, capsys):
    path = config_file(tmp_path, ORACLE_TEXT)
    assert main(["oracle-compare", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "quantity" in out
    assert "photon_rel_diff=" in out
    assert "within_band=" in out
    assert "true" in out


def test_cli_oracle_compare_band_violation(tmp_path, capsys):
    text = ORACLE_TEXT + "[oracle]\nagreement_band_rel = 1e-6\n"
    path = config_file(tmp_path, text)
    assert main(["oracle-compare", "--config", path]) == 3
    out = capsys.readouterr().out
    assert "within_band=" in out
    assert "false" in out


@pytest.mark.parametrize("target, error", [
    ("steady_state", StiffnessFailure("step size fell below the floor")),
    ("steady_state", NonFiniteState("n_p became NaN")),
    ("steady_observables_auto", SingularSteadyState("singular factor")),
    ("steady_observables_auto", OracleError("steady state asymmetric")),
])
def test_cli_oracle_compare_solver_failures_exit_2(
    tmp_path, capsys, monkeypatch, target, error
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, fail)
    path = config_file(tmp_path, ORACLE_TEXT)
    assert main(["oracle-compare", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert str(error) in err


LONG_LIFETIME = textwrap.dedent("""\
    [model]
    g_multiple_of_omega_r0 = 0.20
    gamma_c_per_ps = 0.0005
    pump_per_ps = 1e5
    [toggles]
    variant = {}
""")

# Each refusal reason once: at a 1000 ps cavity lifetime the last root found
# is unstable in full and no_inversion (there the ladder reaches no root past
# rung 23, so the target pump's own root is reported) and stable but too slow
# to settle in factorized; the last point reaches no root at all.
REFUSALS = [
    (LONG_LIFETIME.format("full"),
     "unstable root, growth rate +0.0654/ps; last residual 9.685e-14"),
    (LONG_LIFETIME.format("no_inversion"),
     "unstable root, growth rate +0.0436/ps; last residual 4.007e-12"),
    (LONG_LIFETIME.format("factorized"),
     "stable root not certified, slowest rate -0.000996/ps; "
     "last residual 4.714e-08"),
    (textwrap.dedent("""\
        [model]
        g_rad_per_ps = 2.4
        gamma_c_per_ps = 0.00691
        pump_per_ps = 3.24e5
        gamma_nr_per_ps = 0.557
        [toggles]
        variant = no_inversion
    """), "no root reached, vacuum reported; last residual 4.582e+05"),
]


def test_cli_oracle_compare_refused_hierarchy_point_exits_2(
    tmp_path, capsys, monkeypatch
):
    # A point the hierarchy refuses is refused before any reference solve.
    # oracle-compare and simulate print the same one stderr line, which says
    # why.
    def fail(*args, **kwargs):
        raise AssertionError("the reference model was solved")

    monkeypatch.setattr(cli, "steady_observables_auto", fail)
    for text, reason in REFUSALS:
        path = config_file(tmp_path, text)
        assert main(["oracle-compare", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"not converged: {reason}\n"
        assert main(["simulate", "--config", path]) == 2
        captured = capsys.readouterr()
        assert "converged=              false\n" in captured.out
        assert captured.err == f"not converged: {reason}\n"


def test_cli_oracle_compare_without_photons_prints_undefined_g2(
    tmp_path, capsys
):
    # At g = 0 neither model holds a photon, so g2(0) is undefined in both
    # columns and its row has no relative difference.
    text = MINIMAL.replace("g_rad_per_ps = 0.05", "g_rad_per_ps = 0")
    assert main(["oracle-compare", "--config", config_file(tmp_path, text)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"{'g2_zero':<20}{'undefined':>16}{'undefined':>16}{'':>12}" in lines
    assert "photon_rel_diff=        0.000000e+00" in lines
    assert "within_band=            true" in lines


def _defective_state(defect):
    """A DensityMatrix factory that plants a defect in the solved state."""
    real = oracle.DensityMatrix

    def build(space, values):
        entries = oracle.charge_sector(space)
        rows, cols = np.divmod(entries, space.dim)
        k = np.flatnonzero(rows < cols)[0]
        partner = np.flatnonzero(entries == cols[k] * space.dim + rows[k])[0]
        values = values.copy()
        if defect == "asymmetric":
            values[k] += 1e-6
        elif defect == "trace":
            values *= 2.0
        else:
            values[[k, partner]] += 1.0
        return real(space, values)

    return build


@pytest.mark.parametrize("defect, message", [
    ("asymmetric", "hermiticity violated by 1.000e-06"),
    ("trace", "trace deviates from 1 by 1.000e+00"),
    ("indefinite", "negative eigenvalue"),
])
def test_cli_oracle_compare_malformed_reference_state_exits_2(
    tmp_path, capsys, monkeypatch, defect, message
):
    monkeypatch.setattr(oracle, "DensityMatrix", _defective_state(defect))
    path = config_file(tmp_path, ORACLE_TEXT)
    assert main(["oracle-compare", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert err.startswith("reference model failed: ")
    assert message in err


def test_cli_oracle_compare_truncation_at_the_cap_exits_4(tmp_path, capsys):
    # The first `cap` entry of the perfbench single_point pool: the top
    # Fock level still holds population at n_max = 32 and 64.
    text = textwrap.dedent("""\
        [model]
        g_multiple_of_omega_r0 = 10.78801666820234
        gamma_c_per_ps = 0.05142511214117223
        pump_per_ps = 10.82299305592718
        [toggles]
        variant = no_inversion
        [oracle]
        n_max = 32
    """)
    path = config_file(tmp_path, text)
    assert main(["oracle-compare", "--config", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("truncation failure: top Fock level n=64 ")


def test_cli_usage_errors_return_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["bogus-command"]) == 1
    assert main(["simulate"]) == 1  # --config is required
    # Only sweep writes a table, so only sweep takes --format.
    path = config_file(tmp_path, MINIMAL)
    capsys.readouterr()
    assert main(["simulate", "--config", path, "--format", "csv"]) == 1
    assert "--format" in capsys.readouterr().err


def test_cli_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return cli.build_parser()

    monkeypatch.setattr(cli, "_parser", functools.cache(counting_build_parser))
    path = config_file(tmp_path, SWEEP_TEXT)
    trajectory = tmp_path / "traj.csv"
    assert main(["simulate", "--config", path, "--trajectory",
                 "--out", str(trajectory)]) == 0
    assert main(["sweep", "--config", path,
                 "--out", str(tmp_path / "sweep.csv")]) == 0
    assert main(["simulate", "--config", path, "--format", "csv"]) == 1
    # A flag of one call does not carry over to the next.
    capsys.readouterr()
    assert main(["simulate", "--config", path,
                 "--out", str(tmp_path / "plain.csv")]) == 0
    assert "trajectory written" not in capsys.readouterr().out
    assert not (tmp_path / "plain.csv").exists()
    assert built == [1]


def test_cli_help_returns_0(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


@pytest.mark.parametrize("command, ignored", [
    ("simulate", True),
    ("sweep", False),
    ("oracle-compare", True),
])
def test_cli_workers_help_says_where_it_is_ignored(tmp_path, capsys, command,
                                                   ignored):
    # So does --out's: oracle-compare writes no file, and simulate writes
    # one only with --trajectory.
    out_help = {
        "simulate": "--out OUT override the configured output path, which "
                    "only --trajectory writes",
        "sweep": "--out OUT override the configured output path",
        "oracle-compare": "--out OUT accepted and ignored; oracle-compare "
                          "writes no file",
    }
    assert main([command, "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert ("accepted and ignored; only sweep runs worker processes"
            in help_text) is ignored
    assert out_help[command] + " --workers" in help_text
    assert cli.build_parser().parse_args(
        [command, "--config", "x.cfg", "--workers", "8"]
    ).workers == 8
    # Fewer than one worker is a usage error (exit 1), ignored or not.
    for workers in ("0", "-3"):
        out = tmp_path / "out.csv"
        assert main([command, "--config", config_file(tmp_path, SWEEP_TEXT),
                     "--out", str(out), "--workers", workers]) == 1
        assert (f"argument --workers: must be at least 1, got {workers}"
                in capsys.readouterr().err)
        assert not out.exists()


SRC =Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: these tests import scipy themselves.
_LEAN_CHILD = """\
import json
import sys
import qdcavity
from qdcavity import cli
run, sweep, oracle, out = sys.argv[1:]
codes = [
    cli.main(["simulate", "--config", run]),
    cli.main(["simulate", "--config", run, "--trajectory", "--out", out]),
    cli.main(["sweep", "--config", sweep, "--out", out]),
    cli.main(["oracle-compare", "--config", oracle]),
]
loaded = sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""

_ORACLE_CHILD = """\
import sys
from qdcavity import cli, solver
code = cli.main(["oracle-compare", "--config", sys.argv[1]])
import scipy.integrate
assert solver.solve_ivp is scipy.integrate.solve_ivp
sys.exit(code)
"""


def _fresh_python(script, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("command, model", [
    ("simulate", "g_rad_per_ps = 1e300\ngamma_c_per_ps = 0.5\npump_per_ps = 1\n"),
    ("oracle-compare",
     "g_rad_per_ps = 0.05\ngamma_c_per_ps = 0.5\npump_per_ps = 1e300\n"),
], ids=["simulate", "oracle-compare"])
def test_overflowing_input_exits_2_with_one_stderr_line(tmp_path, command,
                                                        model):
    # The solve overflows on the way to its verdict; numpy's warnings about
    # it must not reach stderr next to the one-line message.
    path = config_file(tmp_path, "[model]\n" + model)
    result = subprocess.run(
        [sys.executable, "-m", "qdcavity.cli", command, "--config", path,
         "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr.count("\n") == 1, result.stderr
    assert result.stderr.startswith("not converged")


def test_simulate_and_sweep_never_import_scipy(tmp_path):
    # Nor does oracle-compare: the package runs on numpy alone.
    run = config_file(tmp_path, MINIMAL)
    sweep = config_file(tmp_path, SWEEP_TEXT, name="sweep.cfg")
    oracle = config_file(tmp_path, ORACLE_TEXT, name="oracle.cfg")
    lean = _fresh_python(_LEAN_CHILD, run, sweep, oracle,
                         str(tmp_path / "out.csv"))
    assert lean.returncode == 0, lean.stderr
    report = json.loads(lean.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0, 0], "scipy": []}
    # The tracer's solve_ivp hook resolves in a clean process.
    hooked = _fresh_python(_ORACLE_CHILD, oracle)
    assert hooked.returncode == 0, hooked.stdout + hooked.stderr
    assert "within_band=" in hooked.stdout
