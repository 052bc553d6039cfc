#!/usr/bin/env python3
"""Build and run one workload of the asyncmg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
library and the benchmark binary into .bench_build/ (Release); later calls
only re-check the build. Worker logs, traces and per-run result files go to
.bench_out/. The last line of standard output is the result JSON; the exit
code is 0 only when every answer was correct. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("warm_mix", "cold_mix", "async_multadd", "cluster_bsp")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build the benchmark binary and the worker daemon.
    Build output goes to stderr so stdout keeps only the benchmark's lines."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from the root of a full checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
         "asyncmg_perfbench", "asyncmg_workerd"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           cwd=ROOT)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def run(args):
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "asyncmg_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workerd", os.path.join(BUILD_DIR, "asyncmg_workerd"),
           "--out-dir", OUT_DIR]
    if args.smoke:
        cmd.append("--smoke")
    # Own process group, so a timeout also ends the worker daemons the
    # benchmark binary forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if (not isinstance(result, dict) or
            sorted(result) != ["attempted", "correct", "failed", "metrics"]):
        sys.stderr.write(out)
        fail("asyncmg_perfbench exited with %d and printed no result"
             % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny problems and one set-up repetition")
    args = p.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    build()
    sys.exit(run(args))


if __name__ == "__main__":
    main()
