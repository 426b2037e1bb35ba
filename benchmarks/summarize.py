"""Median and quartile spread of every metric over the recorded runs.

    python3 benchmarks/summarize.py [--write benchmarks/baseline.json]

Reads the run summaries that run.py leaves in .bench_work/results/ and
prints, per workload and metric, the number of runs, the median, the
first and third quartiles and their distance as a share of the median
(the spread the bounds in BENCHMARK.json are judged against).  With
--write it also stores them, with the machine facts, as a baseline.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(os.path.dirname(HERE), ".bench_work", "results")


def load() -> tuple[dict, dict]:
    values = defaultdict(lambda: defaultdict(list))
    machine = {}
    for path in sorted(glob.glob(os.path.join(RESULTS, "*-summary.json"))):
        with open(path) as fh:
            run = json.load(fh)
        machine = run["machine"]
        key = f"{run['workload']} trace={run['trace']}"
        values[key]["seed"].append(run["seed"])
        for name, value in run["metrics"].items():
            values[key][name].append(value)
        if run["op_ms_tail"] is not None:
            values[key]["op_ms_tail"].append(run["op_ms_tail"]["value"])
    return values, machine


def stats(vals: list) -> dict:
    med = statistics.median(vals)
    q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                 else (vals[0],) * 3)
    return {"runs": len(vals), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", metavar="PATH")
    args = p.parse_args(argv)
    values, machine = load()
    table = {key: {name: (sorted(vals) if name == "seed" else stats(vals))
                   for name, vals in metrics.items()}
             for key, metrics in sorted(values.items())}
    for key, metrics in table.items():
        print(key)
        for name, s in metrics.items():
            if name == "seed":
                print(f"  seeds {s}")
                continue
            print(f"  {name:40s} n={s['runs']:2d} median {s['median']:<12.6g}"
                  f" IQR [{s['q1']:.6g}, {s['q3']:.6g}]"
                  f" spread {100 * s['spread']:.2f}%")
    if args.write:
        with open(args.write, "w") as fh:
            json.dump({"machine": machine, "workloads": table}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
