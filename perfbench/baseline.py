#!/usr/bin/env python3
"""Measure the benchmark's baseline and run-to-run spread.

Runs every workload of BENCHMARK.json once per seed through
perfbench/run.py, in two independent sets of ten seeds, and reports for
each end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
next to the metric's bound. Every end-to-end metric, setup_s included,
is checked: its spread in each set must stay within its bound, and the
second set's median may not be worse than the first's by more than it.
It also makes one traced run per workload and set, for the per-layer
figures and trace.overhead_frac.

  python3 perfbench/baseline.py --out perfbench/baseline.json

Set k uses seeds 10k+1 .. 10k+10, so the sets share no seed. Runs are
made one at a time: they measure host time and must not overlap.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEEDS_PER_SET = 10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s" % " ".join(cmd))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("outputs failed their checks: %s" % " ".join(cmd))
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=None, help="write the summary here as JSON")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    report = {"run_seconds": seconds, "seeds_per_set": SEEDS_PER_SET, "sets": [],
              "claim": None}
    for k in range(SETS):
        seeds = list(range(k * SEEDS_PER_SET + 1, (k + 1) * SEEDS_PER_SET + 1))
        per_workload = {}
        for w in workloads:
            values = {}
            for seed in seeds:
                res = run_once(w, seed, seconds, 0)
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print("set %d %s seed %d: %s" % (k + 1, w, seed, " ".join(
                    "%s=%.6g" % (n, m["value"]) for n, m in res["metrics"].items())),
                    flush=True)
            entry = {"seeds": seeds,
                     "end_to_end": {n: summarize(v) for n, v in values.items()}}
            res = run_once(w, seeds[0], seconds, 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer"] = {n: m["value"] for n, m in res["metrics"].items()}
            per_workload[w] = entry
        report["sets"].append(per_workload)

    ok = True
    print("\nworkload     metric           set  median        q1            q3"
          "            spread  bound")
    for w in workloads:
        for name, bound in bounds.items():
            for k, s in enumerate(report["sets"]):
                st = s[w]["end_to_end"][name]
                flag = ""
                if st["spread"] > bound:
                    flag, ok = "  OVER BOUND", False
                elif st["spread"] > bound / 3:
                    flag = "  over bound/3"
                print("%-12s %-16s %d    %-13.6g %-13.6g %-13.6g %.4f  %.2f%s" % (
                    w, name, k + 1, st["median"], st["q1"], st["q3"], st["spread"],
                    bound, flag))
            meds = [s[w]["end_to_end"][name]["median"] for s in report["sets"]]
            if meds[0]:
                higher = any(m["name"] == name and m["better"] == "higher"
                             for m in bench["end_to_end"])
                worse = (meds[0] - meds[1]) / meds[0] if higher else \
                        (meds[1] - meds[0]) / meds[0]
                if worse > bound:
                    print("%-12s %-16s set 2 median worse than set 1 by %.4f > %.2f" % (
                        w, name, worse, bound))
                    ok = False
        for k, s in enumerate(report["sets"]):
            print("%-12s trace.overhead_frac set %d: %.4f" % (
                w, k + 1, s[w]["per_layer"]["trace.overhead_frac"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    print("all spreads within bounds" if ok else "SOME SPREADS EXCEED THEIR BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
