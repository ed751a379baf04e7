#!/usr/bin/env python3
"""Record a benchmark baseline and check its run-to-run spread.

Run from the root of a source checkout:

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For every workload in BENCHMARK.json it makes --runs untraced runs
(seeds 1, 2, ...), then one traced run with seed 1. It
writes the median, quartiles and spread of every end-to-end metric.
The spread is the distance between the first and third quartile, as a
share of the median. It also writes the traced per-layer snapshot and
the host facts. It prints each spread next to a third of the metric's
bound and exits 1 if a run fails or a spread (except setup_s) reaches
a third of its bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return result, p.stdout


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    names = [w["name"] for w in SPEC["workloads"]]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    doc = {"host": {"cpus": os.cpu_count(), "cpu_model": cpu_model()},
           "workloads": {}}
    steady = True
    for w in names:
        values = {}
        for i in range(args.runs):
            seed = 1 + i
            result, out = run(w, seed, args.seconds, 0)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            doc["host"]["build"] = re.search(r"^build (\w+)", out, re.M).group(1)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        e2e = {k: summary(v) for k, v in values.items()}
        for k, s in e2e.items():
            third = bounds[k] / 3
            ok = k == "setup_s" or (s["spread"] is not None and
                                    s["spread"] < third)
            steady = steady and ok
            print(f"  {w:14s} {k:16s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f}  (bound/3 {third:.4f}) "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
        traced, out = run(w, 1, args.seconds, 1)
        doc["workloads"][w] = {
            "seeds": list(range(1, 1 + args.runs)),
            "end_to_end": e2e,
            "traced_seed": 1,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
            "not_applicable": re.findall(r"^n/a \(reported as 0\) (.*)$",
                                         out, re.M),
        }
        print(f"  {w}: tracing overhead "
              f"{traced['metrics']['trace.overhead_s']['value']:.4f} s",
              flush=True)
    doc["recorded_utc"] = time.strftime("%Y-%m-%d %H:%M", time.gmtime())
    doc["seconds"] = args.seconds
    doc["runs"] = args.runs
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
