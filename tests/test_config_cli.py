"""Configuration parsing with line-numbered errors, and the CLI surface."""

import functools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qdcavity import ConfigError, REFERENCE_COUPLING_RAD_PER_PS, cli, oracle
from qdcavity.cli import main
from qdcavity.config import (
    DEFAULT_AGREEMENT_BAND,
    load_config,
    parse_config,
)
from qdcavity.dynamics import ARRAY_FIELDS
from qdcavity.errors import (
    NonFiniteState,
    OracleError,
    SingularSteadyState,
    StiffnessFailure,
)
from qdcavity.model import default_params
from qdcavity.solver import IntegrationConfig

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
    assert config.toggles.variant_name == "full"
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
    assert tuple(t.variant_name for t in grid.toggle_variants) == (
        "full", "factorized",
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
    assert tuple(t.variant_name for t in grid.toggle_variants) == ("full",)


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


def test_geom_expression_errors():
    bad_count = MINIMAL + "[grid]\ncavity_lifetime_ps = geom(1, 2)\ng_multiples = 0.2\n"
    with pytest.raises(ConfigError, match="geom"):
        parse_config(bad_count)
    bad_sign = MINIMAL + "[grid]\ncavity_lifetime_ps = geom(-1, 2, 3)\ng_multiples = 0.2\n"
    with pytest.raises(ConfigError, match="positive"):
        parse_config(bad_sign)


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


def test_cli_simulate_not_converged(tmp_path, capsys):
    text = MINIMAL + "[integration]\nmax_time_ps = 1.0\n"
    path = config_file(tmp_path, text)
    assert main(["simulate", "--config", path]) == 2
    captured = capsys.readouterr()
    assert "last_residual=" in captured.out
    assert "converged=" in captured.out
    assert "false" in captured.out
    assert "not converged" in captured.err


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


@pytest.mark.parametrize("command", [
    ["simulate", "--trajectory"],
    ["sweep", "--format", "csv"],
    ["sweep", "--format", "jsonl"],
])
def test_cli_unwritable_out_is_an_output_error(tmp_path, capsys, command):
    path = config_file(tmp_path, SWEEP_TEXT)
    out_dir = tmp_path / "taken"
    out_dir.mkdir()
    argv = command[:1] + ["--config", path, "--out", str(out_dir)] + command[1:]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert err.startswith("output error: ")


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


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: these tests import scipy themselves.
_LEAN_CHILD = """\
import json
import sys
import qdcavity
from qdcavity import cli
run, sweep, out = sys.argv[1:]
codes = [
    cli.main(["simulate", "--config", run]),
    cli.main(["simulate", "--config", run, "--trajectory", "--out", out]),
    cli.main(["sweep", "--config", sweep, "--out", out]),
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


def test_simulate_and_sweep_never_import_scipy(tmp_path):
    run = config_file(tmp_path, MINIMAL)
    sweep = config_file(tmp_path, SWEEP_TEXT, name="sweep.cfg")
    lean = _fresh_python(_LEAN_CHILD, run, sweep, str(tmp_path / "out.csv"))
    assert lean.returncode == 0, lean.stderr
    report = json.loads(lean.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0], "scipy": []}
    # The oracle's function-local imports, and the tracer's solve_ivp hook,
    # resolve in a clean process.
    oracle = _fresh_python(_ORACLE_CHILD, config_file(tmp_path, ORACLE_TEXT,
                                                      name="oracle.cfg"))
    assert oracle.returncode == 0, oracle.stdout + oracle.stderr
    assert "within_band=" in oracle.stdout
