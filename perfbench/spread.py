#!/usr/bin/env python3
"""Runs the benchmark command of BENCHMARK.json on each workload with a
different seed per run, and prints every end-to-end metric per run, then
its median and interquartile spread as a share of the median (quartiles as
`statistics.quantiles(values, n=4)` gives them), beside the metric's bound.

With `--save`, the values of the set are written to a JSON file; with
`--against`, each median is also set against that earlier set's, as a share
of the earlier median, with a mark where it is worse by more than the bound.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --save set1.json
    python3 perfbench/spread.py --runs 10 --against set1.json
    python3 perfbench/spread.py --runs 1 --first-seed 42   # checked outputs
    python3 perfbench/spread.py --runs 5 --workloads spec-hot
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def worse_by(metric, median, earlier):
    """How much worse `median` is than `earlier`, as a share of `earlier`."""
    change = (median - earlier) / earlier
    return change if metric["better"] == "lower" else -change


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--save", help="write this set's values to a JSON file")
    parser.add_argument("--against", help="compare medians with a set written by --save")
    args = parser.parse_args()
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    metrics = bench["end_to_end"]
    saved = {}
    worst = (0.0, "")
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(bench["command"], workload, seed, args.seconds)
            got = {name: result["metrics"][name] for name in values}
            for name, m in got.items():
                values[name].append(m["value"])
            shown = "  ".join(f"{name} {m['value']:.6g} {m['unit']}" for name, m in got.items())
            print(f"{workload:<13} seed {seed:<3} failed {result['failed']}/{result['attempted']}  {shown}",
                  flush=True)
        saved[workload] = values
        if args.runs < 2:
            continue
        for m in metrics:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, (spread / m["bound"], f"{workload} {m['name']}"))
            line = (f"{workload:<13} {m['name']:<15} median {med:.6g} {m['unit']:<4} "
                    f"spread {spread:.3f}  bound {m['bound']}  ({spread / m['bound']:.2f} of bound)")
            before = earlier.get(workload, {}).get(m["name"])
            if before:
                worse = worse_by(m, med, statistics.median(before))
                mark = "  WORSE THAN BOUND" if worse > m["bound"] else ""
                line += f"  vs earlier set: worse by {worse:+.3f}{mark}"
            print(line, flush=True)
    if args.runs >= 2:
        print(f"largest spread, as a share of its bound: {worst[0]:.2f} ({worst[1]}; "
              "the spread of setup_s is not gated, its median is)")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
