#!/usr/bin/env python3
"""Builds the psibench benchmark from source and runs one workload.

    python3 psibench/run.py --workload serve --seed 1 --seconds 24 --trace 0
    python3 psibench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/psibench
(default .bench_build/psibench); build output goes to stderr, so the last
line of stdout is the benchmark's result object. Traced runs write their
span file under .bench_build/spans/. Exits non-zero if the sources are
missing, the build fails, any answer is wrong, or the run overruns.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("psibench: no library sources at %s" % os.path.join(ROOT, "src"))
    out = os.path.join(build_dir(), "psibench")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target"] + targets,
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("psibench: build step failed: %s" % " ".join(step))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="24")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        out = build(["psibench_test"])
        sys.exit(subprocess.run([os.path.join(out, "psibench_test")]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    out = build(["psibench"])
    span_dir = os.path.join(build_dir(), "spans")
    os.makedirs(span_dir, exist_ok=True)
    cmd = [os.path.join(out, "psibench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds,
           "--trace", args.trace, "--span-dir", span_dir]
    proc = subprocess.Popen(cmd)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("psibench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
