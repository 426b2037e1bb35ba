"""Benchmark child process: runs one workload through `hbvp.cli.main`.

Started by `run.py`, one fresh process per measurement, on one thread:

    python3 benchmarks/worker.py --mode setup|run --workload NAME \\
        --seed N --seconds S --trace 0|1 --result PATH

Both modes time importing hbvp, building the workload's ops and finishing
the first op with cold caches (the set-up time); `setup` stops there.
`run` warms up on further ops (up to WARMUP_S seconds), then times whole
passes until their op time reaches S seconds.  With --trace 1 it then
does the same again with every layer traced, reports the layers per
pass, and compares each traced op's artifacts with the untraced ones.  Every
op's output is checked outside the timed region.  The result is a JSON
file at PATH.
"""
from time import perf_counter

STARTED = perf_counter()   # before numpy or hbvp are imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# Untimed warm-up after the first op: the next ops of a pass, until this
# much op time or the end of the pass, so that the ladder's first timed
# pass does not pay for cold per-degree caches.
WARMUP_S = 1.5


def _import_cli():
    """hbvp.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    from hbvp import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hbvp imported from {cli.__file__}, not {SRC}")
    return cli


class Runner:
    """Runs ops, checks their outputs and keeps per-op records."""

    def __init__(self, cli, workload: str):
        import checks
        self.cli = cli
        self.check = checks.check
        self.failure = checks.CheckFailed
        self.outroot = os.path.join(WORK, "out", workload)

    def run(self, index: int, op) -> dict:
        out = os.path.join(self.outroot, str(index))
        shutil.rmtree(out, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                rc = self.cli.main(list(op.argv) + ["--out", out])
            except Exception as exc:   # any escape is a failed op
                rc = None
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            end = perf_counter()
        try:
            outcome = self.check(op, rc, stdout.getvalue(), stderr.getvalue(),
                                 out)
        except (self.failure, OSError, KeyError, ValueError, IndexError) as err:
            outcome = f"failed: {type(err).__name__}: {err}"
        return {"op": op.label, "s": end - start, "end": end,
                "items": op.items, "rc": rc, "outcome": outcome,
                "digest": _digest(out)}


def _digest(path: str) -> str:
    h = hashlib.sha256()
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            h.update(name.encode() + b"\0")
            with open(os.path.join(path, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS", "HBVP_JOBS")},
    }


def run_passes(runner: Runner, ops, seconds: float) -> tuple:
    """Whole passes until their summed op time reaches `seconds`."""
    records, passes, op_s = [], 0, 0.0
    while passes == 0 or op_s < seconds:
        for i, op in enumerate(ops):
            rec = runner.run(i, op)
            op_s += rec["s"]
            records.append(rec)
        passes += 1
    return records, passes


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    cli = _import_cli()
    from workloads import build_ops
    ops = build_ops(args.workload, args.seed)
    runner = Runner(cli, args.workload)
    first = runner.run(0, ops[0])
    result = {"workload": args.workload, "seed": args.seed,
              "setup_s": first["end"] - STARTED}
    if args.mode == "setup":
        result["ops"] = [first]
    else:
        warmup = [first]
        while len(warmup) < len(ops) and sum(r["s"] for r in warmup) < WARMUP_S:
            warmup.append(runner.run(len(warmup), ops[len(warmup)]))
        records, passes = run_passes(runner, ops, args.seconds)
        result.update(warmup=warmup, ops=records, passes=passes,
                      ops_per_pass=len(ops), machine=machine_facts())
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            try:
                origin = perf_counter()
                traced, traced_passes = run_passes(runner, ops, args.seconds)
            finally:
                tracer.uninstall()
            tracer.write_spans(os.path.join(
                WORK, "trace", f"{args.workload}-seed{args.seed}.jsonl"),
                origin)
            last = [r["digest"] for r in records[-len(ops):]]
            result.update(
                traced_ops=traced, traced_passes=traced_passes,
                layers={k: (v // traced_passes
                            if isinstance(v, int) and v % traced_passes == 0
                            else v / traced_passes)
                        for k, v in tracer.metrics().items()},
                artifacts_identical=all(r["digest"] == last[i % len(ops)]
                                        for i, r in enumerate(traced)))
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    os.makedirs(os.path.dirname(os.path.abspath(args.result)), exist_ok=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
