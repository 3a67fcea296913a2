#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage (from the repository root):

  python3 perfbench/run.py --workload <paper_fig2|churn|scale_1000> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the simulator library
compiled from src/ plus ag_perfbench) in Release mode under .bench_build/;
later calls rebuild incrementally. Build output goes to stderr, so the
last line of stdout is ag_perfbench's JSON result. A traced run (--trace 1)
also writes its spans to .bench_build/trace-<workload>-<seed>.jsonl.

--selftest builds and runs the benchmark's self-tests and checks that the
metric catalogue ag_perfbench prints matches BENCHMARK.json.

Exits nonzero without printing a result when the build fails, for
example in a directory that lacks the simulator sources.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(targets):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def selftest():
    if not build(["ag_perfbench", "perfbench_selftest"]):
        return 1
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode != 0:
        return 1
    out = subprocess.run([os.path.join(BUILD, "ag_perfbench"), "--catalogue"],
                         capture_output=True, text=True, check=True).stdout
    printed = json.loads(out)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    ok = True
    for scope in ("end_to_end", "per_layer"):
        if printed[scope] != declared[scope]:
            sys.stderr.write("perfbench: BENCHMARK.json %s differs from the "
                             "catalogue (ag_perfbench --catalogue)\n" % scope)
            ok = False
    print("perfbench: catalogue matches BENCHMARK.json" if ok else "perfbench: FAILED")
    return 0 if ok else 1


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    if not build(["ag_perfbench"]):
        return 1
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        def value(flag):
            return args[args.index(flag) + 1] if flag in args[:-1] else "default"
        trace_out = os.path.join(ROOT, ".bench_build", "trace-%s-%s.jsonl" %
                                 (os.path.basename(value("--workload")), value("--seed")))
        args += ["--trace-out", trace_out]
    return subprocess.run([os.path.join(BUILD, "ag_perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
