#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads: controller_cold, controller_events, fleet_storm (see README.md).
The library under src/ and the benchmark program under perfbench/src are
compiled (Release) into .bench_build/perfbench on first use; later runs
rebuild only what changed. Build output goes to stderr. The last line of stdout is the
run's JSON result; the exit code is non-zero when the build or the run
fails, and then no result is printed.
"""

import fcntl
import os
import pathlib
import shutil
import signal
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
# The build never asks for more parallelism than the benchmark itself uses.
BUILD_JOBS = min(4, os.cpu_count() or 1)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_step(command):
    # Build chatter goes to stderr so stdout carries only the result.
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}; nothing to build")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / ".lock", "w") as lock:
        # One build at a time per checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if run_step(configure) != 0:
                log("configure failed")
                return False
        if run_step(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                     "-j", str(BUILD_JOBS)]) != 0:
            log("build failed")
            return False
    return True


def main():
    # A terminated run still reaps its child: SystemExit unwinds through
    # subprocess.run, which kills and waits for the process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = sys.argv[1:]
    if not args or args[0] in ("-h", "--help"):
        print(__doc__, file=sys.stderr)
        return 2
    if shutil.which("cmake") is None:
        log("cmake is not installed")
        return 1
    if not build():
        return 1
    return subprocess.run([str(BINARY)] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
