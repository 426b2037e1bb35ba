"""Benchmark for hbvp: workloads of `hbvp` commands run through
`hbvp.cli.main`, with every op's output checked.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: solve_ladder, sweep_F1,
sweep_F6, verify_all (see workloads.py and README.md).

--trace 0 prints the end-to-end metrics: `setup_s` (median of three or
more fresh processes that import hbvp and finish the first op), and
`items_per_s`, `op_ms_p50` and `peak_rss_mb` (the first of those
processes goes on to time whole passes for S seconds).  --trace 1 prints
the per-layer metrics, per pass, of S seconds of traced passes made after
S seconds of untraced passes in the same process, and the tracing
overhead.

Each measurement runs in a fresh child process (worker.py) on one
thread: OPENBLAS/OMP/MKL thread counts are pinned to 1 and HBVP_JOBS is
unset.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics; the full record, with machine
facts and per-op times, goes to .bench_work/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(ROOT, ".bench_work", "results")
# setup_s is the median over fresh processes, the measuring one included:
# at least SETUP_RUNS, more while their set-up time sums below SETUP_S
SETUP_RUNS = 3
SETUP_MAX_RUNS = 9
SETUP_S = 2.0
DEADLINE_S = 170.0
TAIL_BEYOND = 10

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

PER_LAYER = (
    "cli.self_s",
    "analysis.self_s", "analysis.two_sided_sweep.s",
    "analysis.discrepancy.calls", "analysis.discrepancy.s",
    "analysis.limit_conditions_report.s", "analysis.main_theorem_suite.s",
    "analysis.theorem2_equivalence_check.s", "analysis.write.bytes",
    "solver.self_s", "solver.solve_bvp_direct.calls",
    "solver.solve_bvp_direct.s", "solver.fundamental_matrix.calls",
    "solver.fundamental_matrix.s", "solver.characteristic_matrix.s",
    "solver.apply_L.s", "solver.retries", "solver.rejected",
    "solver.dense_n3",
    "problem.self_s", "problem.instantiate.calls", "problem.instantiate.s",
    "problem.apply_B.calls", "problem.apply_B.s", "problem.boundary_matrix.s",
    "grid.self_s", "grid.holder_norm.calls", "grid.holder_seminorm.calls",
    "grid.holder_seminorm.s", "grid.holder_seminorm.pairs", "grid.sup_norm.s",
    "grid.product.calls", "grid.product.s", "grid.product.capped",
    "grid.eval_at.calls", "grid.eval_at.s", "grid.eval_at.points",
    "chebyshev.self_s", "chebyshev.bary_matrix.calls",
    "chebyshev.bary_matrix.s", "chebyshev.bary_matrix.cells",
    "chebyshev.diff_matrix.calls",
    "expr.self_s", "expr.evaluate.calls", "expr.evaluate.s",
    "expr.evaluate.points", "expr.diff_t.calls",
    "trace.op_s", "trace.items_per_s", "trace.untraced_items_per_s",
    "trace.overhead_frac", "trace.spans",
)


END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_ms_p50": "ms",
                    "peak_rss_mb": "MB"}


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("items_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "frac"
    return "count"


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HBVP_JOBS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_child(mode: str, args, tag: str, deadline: float) -> dict:
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-{tag}.json")
    if os.path.exists(path):
        os.remove(path)
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", path]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} child exceeded the time limit") from err
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    with open(path) as fh:
        return json.load(fh)


def throughput(records) -> float:
    return sum(r["items"] for r in records) / sum(r["s"] for r in records)


def tail(times_ms):
    """Highest percentile with at least TAIL_BEYOND ops beyond it."""
    n = len(times_ms)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(times_ms)[n - TAIL_BEYOND - 1]


def end_to_end(setups, run) -> dict:
    ops = run["ops"]
    times_ms = [1e3 * r["s"] for r in ops]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "items_per_s": throughput(ops),
        "op_ms_p50": statistics.median(times_ms),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run) -> dict:
    layers = run["layers"]
    traced = throughput(run["traced_ops"])
    untraced = throughput(run["ops"])
    derived = {
        "trace.op_s": (sum(r["s"] for r in run["traced_ops"])
                       / run["traced_passes"]),
        "trace.items_per_s": traced,
        "trace.untraced_items_per_s": untraced,
        "trace.overhead_frac": untraced / traced - 1.0,
    }
    return {name: derived.get(name, layers.get(name, 0)) for name in PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "hbvp", "cli.py")):
        print(f"error: no hbvp sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)

    try:
        if args.trace:
            setups = []
            run = run_child("run", args, "trace1", deadline)
        else:
            run = run_child("run", args, "trace0", deadline)
            setups = [run]
            while len(setups) < SETUP_RUNS or (
                    len(setups) < SETUP_MAX_RUNS
                    and sum(s["setup_s"] for s in setups) < SETUP_S):
                setups.append(run_child("setup", args, f"setup{len(setups)}",
                                        deadline))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    checked = ([s["ops"][0] for s in setups[1:]] + run["warmup"]
               + run["ops"] + run.get("traced_ops", []))
    failures = [r for r in checked if r["outcome"].startswith("failed")]
    timed = run["ops"] + run.get("traced_ops", [])
    failed = sum(r["outcome"].startswith("failed") for r in timed)
    correct = not failures and run.get("artifacts_identical", True)
    metrics = per_layer(run) if args.trace else end_to_end(setups, run)

    workload = WORKLOADS[args.workload]
    times_ms = [1e3 * r["s"] for r in run["ops"]]
    op_tail = tail(times_ms)
    facts = run["machine"]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "item": workload.item, "passes": run["passes"], "ops": len(times_ms),
        "op_ms_tail": (None if op_tail is None else
                       {"percentile": op_tail[0], "value": op_tail[1],
                        "samples": len(times_ms)}),
        "fail_frac": failed / len(timed),
        "known_rejects": sum(r["outcome"] == "known_reject" for r in timed),
        "artifacts_identical": run.get("artifacts_identical"),
        "failures": [f"{r['op']}: {r['outcome']}" for r in failures],
        "machine": facts, "metrics": metrics,
    }
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}-summary.json"),
              "w") as fh:
        json.dump(summary, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {len(times_ms)} ops "
          f"in {run['passes']} passes; items are {workload.item}")
    print(f"machine: nproc {facts['nproc']}, {facts['cpu']}, Python "
          f"{facts['python']}, numpy {facts['numpy']}, {facts['blas']}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit(name)}")
    if op_tail is not None:
        print(f"  op_ms_tail p{op_tail[0]:.1f} {op_tail[1]:.6g} ms "
              f"(n={len(times_ms)})")
    print(f"  fail_frac {summary['fail_frac']:.6g} ({failed}/{len(timed)}), "
          f"known rejections {summary['known_rejects']}")
    for line in summary["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": bool(correct), "attempted": len(timed), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
