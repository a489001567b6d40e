"""Compare figure CSVs with the map kept in tests/data/figures.

    python tests/figure_map.py DIR [DIR ...]

compares DIR/fig2.csv .. DIR/fig5.csv, as scripts/run_figures.py writes
them, with the committed files of the same name: every true, false and
undefined token exactly, and every number within the correctness gate's
1e-6, each observable on its own scale. Identical bytes are reported, not
required: bits may differ across BLAS builds. Prints one line per file and
exits 1 if any differs beyond the gate.
"""

import csv
import io
import sys
from pathlib import Path

import numpy as np

from qdcavity import Observables
from qdcavity.sweep import CSV_COLUMNS

from helpers import gate_scaled_difference

FIGURES = Path(__file__).resolve().parent / "data" / "figures"
NAMES = ("fig2", "fig3", "fig4", "fig5")
# perfbench's gate on values printed at full precision, as the CSVs are.
RTOL = 1e-6
TOKENS = ("true", "false", "undefined")


def map_difference(text: str, reference: str) -> float:
    """Largest difference of a figure CSV from its reference: the grid
    values relative to themselves and each row's observables on
    gate_scaled_difference's scales. Raises ValueError unless both have the
    schema's header, the same number of rows and fields, and the same token
    wherever either has one."""
    rows, refs = (list(csv.reader(io.StringIO(t))) for t in (text, reference))
    if not rows or rows[0] != refs[0] or refs[0] != list(CSV_COLUMNS):
        raise ValueError(f"header {rows[:1]} against {refs[:1]}")
    if len(rows) != len(refs):
        raise ValueError(f"{len(rows)} rows against {len(refs)}")
    differences = [0.0]
    for row, ref in zip(rows[1:], refs[1:]):
        if len(row) != len(ref) or any(
                a != b for a, b in zip(row, ref)
                if a in TOKENS or b in TOKENS):
            raise ValueError(f"{row} against {ref}")
        grid = (abs(float(a) - float(b)) / abs(float(b))
                for a, b in zip(row[:4], ref[:4]))
        observables = (
            Observables(*(None if v == "undefined" else float(v)
                          for v in r[6:10]))
            for r in (row, ref))
        differences += [*grid, gate_scaled_difference(*observables)]
    # NaN, where a difference cannot be taken, is the largest.
    return float(np.max(differences))


def main(dirs) -> int:
    failed = 0
    for directory in map(Path, dirs):
        for name in NAMES:
            path = directory / f"{name}.csv"
            text = path.read_text(encoding="utf-8")
            reference = (FIGURES / f"{name}.csv").read_text(encoding="utf-8")
            try:
                worst = map_difference(text, reference)
            except ValueError as err:
                print(f"{path}: differs from the committed map: {err}")
                failed += 1
                continue
            same = "identical bytes" if text == reference else "other bytes"
            beyond = "" if worst <= RTOL else f", beyond the gate's {RTOL:g}"
            print(f"{path}: {same}, largest scaled difference {worst:.3g}"
                  + beyond)
            if beyond:
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
