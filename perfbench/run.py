#!/usr/bin/env python3
"""QDockBank benchmark entry point.

    python3 perfbench/run.py --workload eval6|fold_batch|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the harness (perfbench/CMakeLists.txt,
RelWithDebInfo, the repository's default build type) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
pins the environment, runs one measurement in a fresh scratch directory under
the build directory, and prints the harness output; its last line is the
result JSON.  Exits non-zero, without a result, when the build or the run
fails.  See perfbench/NOTES.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("eval6", "fold_batch", "serve_mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(build_dir):
    """Configure once, then build incrementally; returns the binary path."""
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=log, stderr=log, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def pinned_env(workdir):
    env = dict(os.environ)
    # Budgets come from bench_profile() in the harness; drop every knob that
    # could change what the library does or where it writes.
    for key in ("QDB_FULL", "QDB_FAULT_SEED", "QDB_FLIGHT_DUMP", "OMP_NUM_THREADS"):
        env.pop(key, None)
    env["QDB_LOG"] = "off"
    env["QDB_TUNER_CACHE"] = os.path.join(workdir, "tuner.json")
    env["TMPDIR"] = workdir
    return env


def valid_result(line):
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    return (isinstance(doc, dict)
            and set(doc) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(doc["attempted"], int) and doc["attempted"] >= 1
            and isinstance(doc["failed"], int) and isinstance(doc["metrics"], dict))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = build_root()
    try:
        binary = build(os.path.join(root, "perfbench"))
    except (subprocess.SubprocessError, OSError) as exc:
        print("perfbench: build failed: %s" % exc, file=sys.stderr)
        return 2

    runs = os.path.join(root, "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            env=pinned_env(workdir), stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        print("perfbench: harness exited %d without a valid result" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
