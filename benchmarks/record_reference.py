"""Record the reference values the output checks compare against.

Run from the repository root, on the program version whose outputs are
the reference (the committed file was recorded from hbvp 0.1.0):

    python3 benchmarks/record_reference.py

It solves F4, F5 and F6 at N = 256 for every ladder eps and keeps y at
t = j/16, and it runs the two default sweeps and keeps their eps, error,
discrepancy and ratio columns.  The result is `benchmarks/reference.json`.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hbvp  # noqa: E402
from hbvp import cli  # noqa: E402

import checks  # noqa: E402
from workloads import LADDER_EPS, LADDER_EPS_AT_512  # noqa: E402

REFERENCE_DEGREE = 256
WORK = os.path.join(ROOT, ".bench_work", "reference")


def run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(list(argv) + ["--out", WORK])
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}: {err.getvalue()}")


def main() -> None:
    assert LADDER_EPS_AT_512 in LADDER_EPS
    solve = {}
    for fam in checks.REFERENCE_FAMILIES:
        solve[fam] = {}
        for eps in LADDER_EPS:
            run(["solve", "--gallery", fam, "--eps", repr(eps),
                 "--degree", str(REFERENCE_DEGREE)])
            solve[fam][repr(eps)] = [[y.real, y.imag]
                                     for y in checks.solution_points(WORK)]
    sweep = {}
    for fam in ("F1_smooth_perturb", "F6_holder_rough"):
        run(["sweep", "--gallery", fam])
        with open(os.path.join(WORK, "sweep_plot.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        sweep[fam] = {name: [float(row[col]) for row in rows[1:]]
                      for col, name in enumerate(rows[0])}
    payload = {
        "source": f"hbvp {hbvp.__version__}: solve at N = "
                  f"{REFERENCE_DEGREE} for each ladder eps; sweeps at their "
                  f"defaults",
        "solve": solve,
        "sweep": sweep,
    }
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
