"""Command-line surface: simulate | sweep | oracle-compare.

Exit codes: 0 success, 1 configuration or output error, 2 steady state
not reached (the hierarchy did not converge or its integration failed, or
the reference model has no unique, well-formed steady state), 3 reference-
model disagreement beyond the configured band, 4 photon-space truncation
still too small at its cap.

``main`` parses the arguments, loads the configuration and runs the command
that ``build_parser`` attached to them; each command does only its own work.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .dynamics import ARRAY_FIELDS, DynamicState
from .errors import (
    ConfigError,
    NotConverged,
    OracleError,
    SolverError,
    TruncationTooSmall,
)
from .observables import PHOTON_FLOOR, Observables, observables_of
from .oracle import steady_observables_auto
from .solver import settling_trajectory, steady_state
from .sweep import SweepTable, run_sweep

_GNUPLOT_TEMPLATE = """\
# Plot template for {csv_name}
# Columns: 1 gamma_cav_per_ps, 2 cavity_lifetime_ps, 3 g_over_omega_r0,
# 4 pump_per_ps, 5 include_doublets, 6 include_inversion_term, 7 n_photon,
# 8 two_photon, 9 g2_zero, 10 output_rate_per_ps, 11 converged
set datafile separator ","
set datafile missing "undefined"
set logscale x
set xlabel "cavity lifetime (ps)"
set ylabel "g2(0)"
plot "{csv_name}" every ::1 using 2:9 with points pt 7 title "g2(0)"
pause -1 "g2(0) versus lifetime; press enter for the output rate"
set ylabel "photon output rate (1/ps)"
plot "{csv_name}" every ::1 using 2:10 with points pt 7 title "output rate"
pause -1
"""


def _print_kv(key: str, value) -> None:
    print(f"{key + '=':<24}{value}")


def _text(x, spec: str, missing: str = "undefined") -> str:
    return missing if x is None else format(x, spec)


def _print_observables(obs: Observables, converged: bool) -> None:
    _print_kv("n_photon", f"{obs.photon_number:.12g}")
    _print_kv("two_photon", f"{obs.two_photon:.12g}")
    _print_kv("g2_zero", _text(obs.g2_zero, ".12g"))
    _print_kv("output_rate_per_ps", f"{obs.output_rate:.12g}")
    _print_kv("converged", "true" if converged else "false")
    if not obs.physical:
        _print_kv("note", "negative moment, truncated-hierarchy artifact")


def _refused(err: NotConverged) -> int:
    print(f"not converged: {err.reason}; last residual {err.residual:.3e}",
          file=sys.stderr)
    return 2


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def _refuse_output(out_path: Path, plot: bool = False) -> bool:
    """Print one output error and return True when out_path, or with plot
    its .gp plot template, cannot be written as a file: it is a directory,
    its nearest existing ancestor is not one, or the checks themselves fail,
    as on a name too long for the file system. Checked before any solve,
    so that no solve is thrown away for it."""
    paths = (out_path, out_path.with_suffix(".gp")) if plot else (out_path,)
    try:
        taken = [path for path in paths if path.is_dir()]
        # The nearest existing ancestor: the parents end at "." or the root.
        ancestor = next(path for path in out_path.parents if path.exists())
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return True
    if plot and out_path.suffix == ".gp":
        # Its plot template, out_path.with_suffix(".gp"), would overwrite it.
        problem = (f"{out_path}: a csv sweep needs a suffix other than .gp, "
                   "which its plot template takes")
    elif taken:
        problem = f"{taken[0]}: is a directory"
    elif not ancestor.is_dir():
        problem = f"{ancestor}: is not a directory"
    else:
        return False
    print(f"output error: {problem}", file=sys.stderr)
    return True


def _write_trajectory(path: Path, trajectory) -> None:
    lines = ["t_ps," + ",".join(ARRAY_FIELDS)]
    for t, row in zip(trajectory.times.tolist(), trajectory.states.tolist()):
        lines.append(repr(t) + "," + ",".join(map(repr, row)))
    _write_text(path, "\n".join(lines) + "\n")


def cmd_simulate(args, config) -> int:
    out_path = Path(args.out or config.output_path)
    if args.trajectory and _refuse_output(out_path):
        return 1
    try:
        if args.trajectory:
            trajectory = settling_trajectory(
                config.params, config.toggles, config.integration
            )
            _write_trajectory(out_path, trajectory)
            print(f"trajectory written to {out_path}")
            state = DynamicState.from_array(trajectory.states[-1])
        else:
            state = steady_state(config.params, config.toggles, config.integration)
    except NotConverged as err:
        _print_observables(
            observables_of(err.last_state, config.params), converged=False
        )
        _print_kv("last_residual", f"{err.residual:.6e}")
        return _refused(err)
    except SolverError as err:
        print(f"integration failed: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return 1
    _print_observables(observables_of(state, config.params), converged=True)
    return 0


def cmd_sweep(args, config) -> int:
    if config.grid is None:
        print("config error: sweep requires a [grid] section", file=sys.stderr)
        return 1
    fmt = args.format or config.output_format
    out_path = Path(args.out or config.output_path)
    if _refuse_output(out_path, plot=fmt == "csv"):
        return 1
    records = run_sweep(
        config.grid,
        config.params,
        config.integration,
        rabi=config.rabi,
        workers=args.workers,
    )
    table = SweepTable(records)
    try:
        if fmt == "csv":
            _write_text(
                out_path, "\n".join([table.header()] + table.csv_rows()) + "\n"
            )
            plot_path = out_path.with_suffix(".gp")
            _write_text(
                plot_path, _GNUPLOT_TEMPLATE.format(csv_name=out_path.name)
            )
            print(f"plot template written to {plot_path}")
        else:
            _write_text(out_path, "\n".join(table.jsonl_rows()) + "\n")
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return 1
    failed = sum(1 for r in records if not r.converged)
    print(f"wrote {len(records)} records to {out_path}"
          + (f" ({failed} not converged)" if failed else ""))
    return 0


def _relative_difference(value: float, reference: float) -> float:
    if abs(value) <= PHOTON_FLOOR and abs(reference) <= PHOTON_FLOOR:
        return 0.0
    return abs(value - reference) / max(abs(reference), PHOTON_FLOOR)


def cmd_oracle_compare(args, config) -> int:
    try:
        state = steady_state(config.params, config.toggles, config.integration)
    except NotConverged as err:
        return _refused(err)
    except SolverError as err:
        print(f"integration failed: {err}", file=sys.stderr)
        return 2
    cluster = observables_of(state, config.params)
    try:
        reference, n_max_used = steady_observables_auto(
            config.params, n_max=config.oracle_n_max
        )
    except TruncationTooSmall as err:
        print(f"truncation failure: {err}", file=sys.stderr)
        return 4
    except OracleError as err:
        print(f"reference model failed: {err}", file=sys.stderr)
        return 2
    print(f"{'quantity':<20}{'hierarchy':>16}{'reference':>16}{'rel_diff':>12}")
    rows = (
        ("n_photon", cluster.photon_number, reference.photon_number),
        ("two_photon", cluster.two_photon, reference.two_photon),
        ("g2_zero", cluster.g2_zero, reference.g2_zero),
        ("output_rate_per_ps", cluster.output_rate, reference.output_rate),
    )
    for name, ours, theirs in rows:
        diff = (None if None in (ours, theirs)
                else _relative_difference(ours, theirs))
        print(f"{name:<20}{_text(ours, '.6g'):>16}{_text(theirs, '.6g'):>16}"
              f"{_text(diff, '.3e', missing=''):>12}")
    _print_kv("oracle_n_max", n_max_used)
    photon_diff = _relative_difference(
        cluster.photon_number, reference.photon_number
    )
    _print_kv("photon_rel_diff", f"{photon_diff:.6e}")
    _print_kv("agreement_band", f"{config.oracle_band:.6g}")
    if photon_diff <= config.oracle_band:
        _print_kv("within_band", "true")
        return 0
    _print_kv("within_band", "false")
    return 3


def _workers(text: str) -> int:
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {workers}")
    return workers


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdcavity",
        description="Steady states, sweeps and reference-model checks for a "
                    "pumped emitter-cavity system",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, run, out_help in (
        ("simulate", cmd_simulate,
         "override the configured output path, which only --trajectory "
         "writes"),
        ("sweep", cmd_sweep, "override the configured output path"),
        ("oracle-compare", cmd_oracle_compare,
         "accepted and ignored; oracle-compare writes no file"),
    ):
        sub = commands.add_parser(name)
        sub.set_defaults(run=run)
        sub.add_argument("--config", required=True, help="configuration file")
        sub.add_argument("--out", help=out_help)
        sub.add_argument(
            "--workers", type=_workers, default=1,
            help="worker processes, at most one per grid line and CPU"
                 if name == "sweep"
                 else "accepted and ignored; only sweep runs worker processes",
        )
        if name == "sweep":
            sub.add_argument(
                "--format", choices=("csv", "jsonl"),
                help="override the configured output format",
            )
        if name == "simulate":
            sub.add_argument(
                "--trajectory", action="store_true",
                help="write the integration path to the output file",
            )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: building costs several times a parse.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for non-convergence
        # here, so usage problems map to the configuration-error code.
        code = exc.code or 0
        return 0 if code == 0 else 1
    # No numpy overflow warning may join a failure's one stderr line.
    with np.errstate(all="ignore"):
        try:
            config = load_config(args.config)
        except (ConfigError, OSError, UnicodeDecodeError) as err:
            print(f"config error: {err}", file=sys.stderr)
            return 1
        return args.run(args, config)


if __name__ == "__main__":
    sys.exit(main())
