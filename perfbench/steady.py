#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload W ...]

Runs BENCHMARK.json's command once per seed (first-seed, first-seed+1, ...)
for each workload, untraced, for run_seconds each, and prints per
end-to-end metric the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the spread (Q3 - Q1) / median
next to the metric's bound, and the share of failed operations. A spread
above a third of its bound is marked. Run it from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        shares = set()
        for run in range(args.runs):
            seed = args.first_seed + run
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                  check=False)
            result = json.loads(done.stdout.strip().split("\n")[-1])
            if done.returncode != 0 or not result["correct"]:
                print("%s seed %d: exit %d, correct %s" % (
                    workload, seed, done.returncode, result["correct"]))
                sys.exit(1)
            shares.add(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print("  %s seed %d done" % (workload, seed), file=sys.stderr)
        print("%s: %d runs, failed share(s) %s" % (
            workload, args.runs, sorted(shares)))
        for name, metric in bounds.items():
            q1, q2, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            mark = "" if spread <= metric["bound"] / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, spread / metric["bound"])
            print("  %-22s median %14.6g  q1 %14.6g  q3 %14.6g  spread %6.3f"
                  "  bound %.2f%s" % (name, q2, q1, q3, spread,
                                      metric["bound"], mark))
    print("largest spread/bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
