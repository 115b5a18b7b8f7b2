#!/usr/bin/env python3
"""Measures the run-to-run spread of every end-to-end metric.

    python3 perfbench/steadiness.py [--workloads a,b] [--seeds 1-10]
                                    [--out perfbench/steadiness.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, with the
run length from BENCHMARK.json, and reports for each metric the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median next
to the metric's bound. The recorded file is the evidence the bounds rest on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "hardware_threads": os.cpu_count(),
              "workloads": {}}
    for workload in args.workloads.split(","):
        values = {}
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", "0"]
            start = time.time()
            load = os.getloadavg()[0]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            wall = time.time() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": round(wall, 2),
                         "load_1m": round(load, 2),
                         "correct": result["correct"],
                         "attempted": result["attempted"],
                         "failed": result["failed"]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f}s correct={result['correct']}",
                  file=sys.stderr, flush=True)
        metrics = {}
        for name, vals in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": round(spread, 5), "bound": bounds[name],
                             "values": vals}
            flag = "" if spread < bounds[name] / 3 else (
                "  <- above bound/3" if spread < bounds[name] else "  <- ABOVE BOUND")
            print(f"  {workload:16s} {name:12s} median {med:12.6g} "
                  f"spread {spread:7.4f} bound {bounds[name]}{flag}",
                  file=sys.stderr)
        report["workloads"][workload] = {"runs": runs, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
