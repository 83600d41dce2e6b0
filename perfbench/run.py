#!/usr/bin/env python3
"""Build and run the proving-service benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload prove-small --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the
zkspeed libraries from this source tree) into .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to stderr, so the
benchmark's JSON result stays the last line of stdout. With --trace 1 the
span ring is also written to .bench_build/perfbench/spans-<workload>-<seed>.json
(Chrome trace-event JSON, loadable in Perfetto).

Workloads and metrics are described in perfbench/METRICS.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("prove-small", "prove-large", "verify-batch")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"source tree incomplete: {needed} missing under {ROOT}")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j",
           str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
