#!/usr/bin/env python3
"""Steadiness tool: run each workload repeatedly and report, per end-to-end
metric, the median, the quartiles and the spread against the metric's bound
in BENCHMARK.json.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--seconds N]
                                [--workloads a,b] [--trace]

The spread is (Q3 - Q1) / median over the runs, quartiles as Python's
statistics.quantiles(values, n=4) gives them. A metric is steady when its
spread is below a third of its bound, and a workload passes only if every
run is correct and no request failed. With --trace each seed also gets a traced
run, and the tool prints the tracing overhead on requests_per_s.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    command = ["python3", "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(command)} failed with code {done.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        results, traced = [], []
        for k in range(args.runs):
            seed = args.first_seed + k
            results.append(run_once(workload, seed, args.seconds, False))
            if args.trace:
                traced.append(run_once(workload, seed, args.seconds, True))
        correct = all(r["correct"] and r["failed"] == 0 for r in results + traced)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, all correct: {correct}, "
              f"failed share(s): {shares}, attempted min "
              f"{min(r['attempted'] for r in results)}")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median, q1, q3, s = spread(values)
            ok = s < bound / 3
            steady = steady and ok and correct
            print(f"  {name:<16} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>8.3f} {bound:>6.2f}  {'steady' if ok else 'NOT STEADY'}")
        if traced:
            plain = statistics.median(r["metrics"]["requests_per_s"]["value"] for r in results)
            under = statistics.median(r["metrics"]["trace.requests_per_s"]["value"] for r in traced)
            print(f"  tracing overhead on requests_per_s: {100 * (plain - under) / plain:+.1f}% "
                  f"({plain:.1f} untraced, {under:.1f} traced)")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
