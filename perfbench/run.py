#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload q5-sf3k --seed 1 --seconds 15 --trace 0

Run it from the repository root. The first run configures and builds the
perfbench/ CMake project (the gcsm library from src/ plus the gcsm_perfbench
program) into .bench_build/perfbench; later runs rebuild only what changed.
The program's stdout passes through unchanged and its last line is the result
JSON; build output goes to .bench_build/perfbench/build.log. Workloads and
metrics are described in perfbench/METRICS.md.
"""
import argparse
import fcntl
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
STATE_DIR = os.path.join(".bench_build", "perfbench-state")
BINARY = os.path.join(BUILD_DIR, "gcsm_perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the program; returns False (with the log tail on
    stderr) when either step fails."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "gcsm_perfbench",
         "-j", jobs],
    ]
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                log.write(f"{cmd[0]}: {e}\n")
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                sys.stderr.write(f"benchmark build failed: {' '.join(cmd)}\n")
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join("src", "CMakeLists.txt")) and
            os.path.isfile(os.path.join("perfbench", "CMakeLists.txt"))):
        sys.stderr.write("run from the repository root: the benchmark builds "
                         "src/ through perfbench/CMakeLists.txt\n")
        return 2
    if not build():
        return 3
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", STATE_DIR]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"benchmark run exceeded {RUN_TIMEOUT_S} s\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
