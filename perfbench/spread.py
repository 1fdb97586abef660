#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each named workload
and prints, per metric, the median, the interquartile range as a share of
the median (statistics.quantiles(values, n=4)), and that spread against
the metric's bound. Run it from the repository root:

    python3 perfbench/spread.py --seeds 10 repro sim cert

With --compare, the seeds run twice, and the second set's median must not
be worse than the first's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} checks failed\n{out.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worse_by(metric, first, second):
    """How much worse the second median is than the first, as a share."""
    a, b = statistics.median(first), statistics.median(second)
    change = (b - a) / abs(a)
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--compare", action="store_true")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    command, seeds = bench["command"], range(args.seeds)
    steady = True
    for workload in args.workloads:
        sets = [[run(command, workload, s, bench["run_seconds"], 0) for s in seeds]
                for _ in range(2 if args.compare else 1)]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = [r[name] for r in sets[0]]
            s = spread(first)
            line = (f"{workload:12} {name:18} median {statistics.median(first):<14.6g} "
                    f"spread {s:.4f} / bound {bound}  values {[f'{v:.4g}' for v in first]}")
            ok = s < bound / 3
            if args.compare:
                w = worse_by(metric, first, [r[name] for r in sets[1]])
                line += f"  second set worse by {w:+.4f}"
                ok = ok and w <= bound
            steady = steady and ok
            print(line + ("" if ok else "  <-- NOT STEADY"), flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
