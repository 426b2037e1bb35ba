"""Tests of the benchmark itself (about a minute):

    python3 -m pytest benchmarks/test_bench.py
"""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import checks
import tracer
from workloads import build_ops

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("grid.holder_seminorm.pairs", "chebyshev.bary_matrix.cells",
         "solver.dense_n3", "grid.product.capped", "solver.retries",
         "solver.rejected", "grid.holder_norm.calls")


def traced_pass(workload, seed, result):
    """One untraced and one traced pass in a fresh worker process."""
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    "--mode", "run", "--workload", workload, "--seed",
                    str(seed), "--seconds", "0", "--trace", "1",
                    "--result", str(result)],
                   cwd=ROOT, check=True, timeout=170,
                   env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                            OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"))
    with open(result) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", ["solve_ladder", "sweep_F6"])
def test_counters_repeat_and_tracing_keeps_artifacts(workload, tmp_path):
    first = traced_pass(workload, 7, tmp_path / "a.json")
    second = traced_pass(workload, 7, tmp_path / "b.json")
    for run in (first, second):
        assert run["artifacts_identical"]
        assert all(r["outcome"] in ("ok", "known_reject")
                   for r in run["ops"] + run["traced_ops"])
    counts = {k: v for k, v in first["layers"].items()
              if k in EXACT or k.endswith(".calls")}
    assert counts == {k: second["layers"][k] for k in counts}
    layers = first["layers"]
    op_s = sum(r["s"] for r in first["traced_ops"])
    self_s = sum(layers[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert self_s == pytest.approx(op_s, rel=0.03)
    if workload == "solve_ladder":
        assert layers.get("grid.holder_seminorm.calls", 0) == 0
        assert layers["solver.rejected"] >= 1
        assert layers["grid.product.capped"] > 0
    else:
        assert layers["grid.holder_seminorm.s"] > 0.5 * op_s


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                           "sweep_F1", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("family", ["F1_smooth_perturb", "F2_boundary_perturb"])
@pytest.mark.parametrize("eps", [0.0, 0.2, 0.3375])
def test_closed_forms_solve_their_problems(family, eps):
    y = lambda t: checks.closed_form(family, eps, t)  # noqa: E731
    h = 1e-4
    for t in (0.1, 0.5, 0.9):
        ypp = (y(t + h) - 2 * y(t) + y(t - h)) / h ** 2
        a0 = 1 + eps if family == "F1_smooth_perturb" else 1.0
        assert ypp + a0 * y(t) == pytest.approx(math.exp(t), abs=1e-6)
    assert y(1.0) == pytest.approx(1.0, abs=1e-14)
    dy0 = (y(h) - y(-h)) / (2 * h)
    left = y(0.0) + (eps * dy0 if family == "F2_boundary_perturb" else 0.0)
    assert left == pytest.approx(0.0, abs=1e-8)


def test_checks_catch_a_wrong_solution(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hbvp import cli
    op = next(o for o in build_ops("solve_ladder", 1)
              if o.family == "F5_multipoint_integral" and o.degree == 64)
    assert cli.main(list(op.argv) + ["--out", str(tmp_path)]) == 0
    assert checks.check(op, 0, "", "", str(tmp_path)) == "ok"
    path = tmp_path / "solution.csv"
    lines = path.read_text().splitlines()
    t, re, im = lines[len(lines) // 2].split(",")
    lines[len(lines) // 2] = ",".join([t, repr(float(re) * (1 + 1e-6)), im])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check(op, 0, "", "", str(tmp_path))
    with pytest.raises(checks.CheckFailed):
        checks.check(op, 2, "", "error: solve rejected: ...", str(tmp_path))
