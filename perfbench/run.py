#!/usr/bin/env python3
"""End-to-end benchmark of the RNE serving stack.

    python3 perfbench/run.py --workload zipf-reload|inproc-batch \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the library, rne_tool, rne_server
and the benchmark binary from source into $CARGO_TARGET_DIR (default
.bench_build) with CMake, then replaces itself with that binary, whose last
stdout line is the result object. See perfbench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("zipf-reload", "inproc-batch")


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j",
                      str(os.cpu_count() or 1), "--target", "perfbench",
                      "perfbench_selftest", "rne_tool", "rne_server"])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step), 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no repository sources next to perfbench/ (missing %s)"
                 % needed, 2)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    work_dir = os.path.join(build_dir, "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    binary = os.path.join(build_dir, "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary, "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", repr(args.seconds),
                      "--trace", str(args.trace),
                      "--bin-dir", os.path.join(build_dir, "rne_tools"),
                      "--work-dir", work_dir])


if __name__ == "__main__":
    main()
