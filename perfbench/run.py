#!/usr/bin/env python3
"""Build rasim-perfbench from this checkout and run one workload.

    python3 perfbench/run.py --workload cosim-mesh8 --seed 1 \\
        --seconds 15 --trace 0 [key=value ...]

Run it from the root of the repository. The first run configures and
builds perfbench/ (the simulator library from src/ plus the benchmark
binary) into .bench_build/perfbench; later runs only check that the
build is up to date. The workload runs in its own process. Its last
line of standard output, one JSON object with the keys correct,
attempted, failed and metrics, is checked against BENCHMARK.json's
metric lists and printed as this script's last line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Relative to ROOT, where the workload runs: the remote workload's Unix
# socket lives here, and socket paths are limited to 107 bytes.
OUT = os.path.join(".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "rasim-perfbench")
# The workload process's own limit; a run that needs longer is broken.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at src/ (run from a full checkout)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")


def pin_to_one_cpu():
    """Keep the workload and all its threads on one CPU.

    remote-lane4's client and server threads hand every quantum to each
    other; on one CPU each handoff is a plain context switch, instead of
    a cross-CPU wakeup whose latency depends on where the threads land.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json asks this mode to print."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("overrides", nargs="*",
                    help="config overrides, e.g. network.kernel=soa")
    args = ap.parse_args()
    for kv in args.overrides:
        if "=" not in kv:
            fail("override %r is not key=value" % kv)

    build()
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT] + args.overrides
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT,
                              preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("workload exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys %s" % sorted(result))
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("printed metrics %s do not match BENCHMARK.json %s"
             % (sorted(got.items()), sorted(want.items())))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
