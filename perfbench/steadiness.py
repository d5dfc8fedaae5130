#!/usr/bin/env python3
"""Steadiness report: run workloads N times and summarize each metric.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --runs 10                 # every workload
    python3 perfbench/steadiness.py --runs 5 --workloads fleet_day
    python3 perfbench/steadiness.py --runs 1                  # one-shot table
    python3 perfbench/steadiness.py --runs 10 --sets 2        # two sets

Run i of a set uses seed (first seed + i). For every workload and
end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median
against the metric's bound from BENCHMARK.json, and the sample count each
run's median came from. A spread under a third of the bound is "steady".
With --sets 2 the same seeds run twice and the second median is compared
with the first. This is the evidence the bounds in BENCHMARK.json are set
from. With --trace 1 it summarizes the per-layer metrics instead.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SAMPLES = re.compile(r"^(\S+)\s+\S+ \S+\s+\(median of (\d+)")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    samples = {}
    for line in lines[:-1]:
        match = SAMPLES.match(line)
        if match:
            samples[match.group(1)] = int(match.group(2))
    return result, samples


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    verdict_ok = True
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            values = {m["name"]: [] for m in metrics}
            counts = {}
            correct = True
            for i in range(args.runs):
                seed = args.first_seed + i
                result, samples = run_once(workload, seed, seconds, args.trace)
                correct = correct and result["correct"] and result["failed"] == 0
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                for name, n in samples.items():
                    counts.setdefault(name, []).append(n)
                print(f"  {workload} seed {seed}: " + "  ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                    for m in metrics[:4]), flush=True)
            sets.append(values)
            verdict_ok = verdict_ok and correct
            print(f"{workload}: {args.runs} runs of {seconds} s, correct={correct}")
            for m in metrics:
                name, unit = m["name"], m["unit"]
                vals = values[name]
                n = counts.get(name)
                sample_text = f"  samples/run {min(n)}-{max(n)}" if n else ""
                if len(vals) < 2:
                    print(f"  {name:<34} {vals[0]:.6g} {unit}{sample_text}")
                    continue
                med, q1, q3, rel = spread(vals)
                bound = m.get("bound")
                if bound is None:
                    print(f"  {name:<34} median {med:.6g} {unit}  "
                          f"q1 {q1:.6g}  q3 {q3:.6g}  spread {rel:.1%}")
                    continue
                status = ("steady" if rel < bound / 3 else
                          "within bound" if rel <= bound else "TOO NOISY")
                if name == "setup_s":
                    status += " (spread not gated)"
                elif rel > bound:
                    verdict_ok = False
                print(f"  {name:<14} median {med:.6g} {unit}  q1 {q1:.6g}  "
                      f"q3 {q3:.6g}  spread {rel:.1%} / bound {bound:.0%}  "
                      f"{status}{sample_text}")
        if len(sets) == 2:
            for m in metrics:
                if "bound" not in m:
                    continue
                first = statistics.median(sets[0][m["name"]])
                second = statistics.median(sets[1][m["name"]])
                change = (second - first) / first if first else 0.0
                worse = change if m["better"] == "lower" else -change
                ok = worse <= m["bound"]
                verdict_ok = verdict_ok and ok
                print(f"  {m['name']:<14} set 2 vs set 1: {change:+.1%} "
                      f"({'ok' if ok else 'WORSE THAN BOUND'})")
    print("verdict:", "steady" if verdict_ok else "NOT steady")
    return 0 if verdict_ok else 1


if __name__ == "__main__":
    sys.exit(main())
