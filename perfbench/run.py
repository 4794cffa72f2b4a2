#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload fig3_steady --seed 1 --seconds 10 --trace 0

The program's libraries (../src) and the benchmark (perfbench/cpp) are built
with release flags into their own tree, $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the repository's own build tree is never touched.
The first run configures and builds; later runs rebuild only what changed.

The last line of standard output is the run's JSON result. The exit code is
the benchmark's: 0 for a correct run, 1 when a correctness check failed,
2 when the sources cannot be built or the arguments are wrong. Build output
goes to standard error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig3_steady", "live_churn", "udp_loopback")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "decseq_perfbench", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step %s failed: %s" % (step[:2], error))
        if done.returncode != 0:
            fail("build step %s exited with %d" % (step[:2], done.returncode))


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    build(build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    command = [os.path.join(build_dir, "decseq_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--trace-dir", trace_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("the benchmark printed no result (exit %d)" % done.returncode)
    expected = expected_metrics(args.trace == 1)
    if expected is not None and set(result["metrics"]) != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(expected - set(result["metrics"])),
            sorted(set(result["metrics"]) - expected)))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
