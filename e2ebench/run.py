#!/usr/bin/env python3
"""End-to-end benchmark of libflipper.

Builds the benchmark program, prepares the seeded inputs and oracles,
runs one workload and prints its result.

Run from the repository root:

    python3 e2ebench/run.py --workload mine_medline --seed 1 \
        --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Any build failure,
oracle mismatch or counter drift exits non-zero without that line.
See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("mine_medline", "serve_quest_uncached", "serve_hot_refresh")
WORK_DIR = os.path.join(".bench_build", "e2ebench")
BUILD_TIMEOUT_S = 800
PREPARE_TIMEOUT_S = 150
# Beyond --seconds: set-up, warm-up and the traced run's solo pass.
RUN_SLACK_S = 120


def fail(message, code=1):
    print("e2ebench: error: " + message, file=sys.stderr)
    sys.exit(code)


def call(command, timeout, **kwargs):
    """Runs `command`, killing and reaping it if it outlives `timeout`."""
    try:
        return subprocess.run(command, timeout=timeout, check=False, **kwargs)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(command)))


def build(bench_dir):
    build_dir = os.path.join(WORK_DIR, "build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configured = call(["cmake", "-S", bench_dir, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"],
                          BUILD_TIMEOUT_S, stdout=sys.stderr)
        if configured.returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    built = call(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S,
                 stdout=sys.stderr)
    if built.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "e2ebench")


def check_counters(bench_dir, workload, seed, data_dir):
    """The exact miner counters must repeat across runs: compare them
    with the recorded reference when it has this workload and seed."""
    with open(os.path.join(bench_dir, "reference.json")) as f:
        recorded = json.load(f)["counters"].get(workload, {}).get(str(seed))
    if recorded is None:
        return
    with open(os.path.join(data_dir, "counters.txt")) as f:
        measured = f.read().splitlines()
    if measured != recorded:
        fail("miner counters of %s seed %d differ from reference.json:\n"
             "  recorded %s\n  measured %s" % (workload, seed, recorded,
                                               measured))


def main():
    # SIGTERM unwinds like an exception, so subprocess.run kills and
    # reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join("src", "flipper.h")):
        fail("libflipper sources (src/flipper.h) not found; run from the "
             "repository root", 2)
    binary = build(bench_dir)

    # Inputs and oracles depend only on (workload, seed): cached, and
    # produced in their own process so generation never enters a metric.
    data_dir = os.path.join(WORK_DIR, "data", "%s-%d" % (args.workload,
                                                       args.seed))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--data", data_dir]
    if not os.path.isfile(os.path.join(data_dir, "DONE")):
        shutil.rmtree(data_dir, ignore_errors=True)
        prepared = call([binary, "prepare"] + common, PREPARE_TIMEOUT_S,
                        stdout=sys.stderr)
        if prepared.returncode != 0:
            fail("prepare failed")
    check_counters(bench_dir, args.workload, args.seed, data_dir)

    live_dir = os.path.join(WORK_DIR, "live-%d" % os.getpid())
    shutil.rmtree(live_dir, ignore_errors=True)
    os.makedirs(live_dir)
    command = [binary, "run"] + common + [
        "--live", live_dir, "--seconds", str(args.seconds),
        "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            WORK_DIR, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    try:
        ran = call(command, args.seconds + RUN_SLACK_S,
                   stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(live_dir, ignore_errors=True)
    if ran.returncode != 0:
        fail("run failed (exit %d)" % ran.returncode)
    lines = ran.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if result.get("correct") is not True:
        fail("run printed no correct result")
    sys.stdout.write(ran.stdout)


if __name__ == "__main__":
    main()
