#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json `--runs` times per workload, each
time with another seed, and does that `--sets` times. For every
workload and end-to-end metric it reports, per set, the median and the
quartiles (statistics.quantiles(values, n=4)), the spread (Q3 - Q1) as
a share of the median, and between the first two sets the gap: how
far the second median is from the first, in either direction, as a
share of the first (`worse_by` keeps the direction: the part of the
gap that counts as a regression). Every spread and gap is compared
with the metric's bound.

    python3 benchmark/spread.py --out benchmark/baseline/spread.json

`--reuse old.json` takes the measured values from an earlier evidence
file and only judges them again, for when a bound in BENCHMARK.json has
changed. Run from the repository root.
"""

import argparse
import json
import shlex
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.time() - started
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def measure(command, workload, metrics, sets, runs, seconds):
    """`sets` times `runs` runs: per set, the values of each metric, and the longest run."""
    measured, longest = [], 0.0
    for s in range(sets):
        values = {m["name"]: [] for m in metrics}
        for r in range(runs):
            got, wall = run_once(command, workload, 1 + s * runs + r, seconds)
            longest = max(longest, wall)
            for name in values:
                values[name].append(got[name])
        measured.append(values)
    return measured, longest


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return max(0.0, change if better == "lower" else -change)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--command", help="run this instead of BENCHMARK.json's command")
    parser.add_argument("--out", help="write the evidence here as JSON")
    parser.add_argument("--reuse", help="judge the values of this evidence file again; run nothing")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    command = shlex.split(args.command) if args.command else spec["command"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = spec["end_to_end"]

    evidence = {"command": command, "run_seconds": spec["run_seconds"], "runs_per_set": args.runs,
                "sets": args.sets, "workloads": {}}
    old = None
    if args.reuse:
        with open(args.reuse) as f:
            old = json.load(f)
        evidence.update({k: old[k] for k in ("command", "run_seconds", "runs_per_set", "sets")})
    verdict = True
    longest = old["longest_run_s"] if old else 0.0
    for workload in workloads:
        if old:
            rows = old["workloads"][workload]
            sets = [{name: row["sets"][s]["values"] for name, row in rows.items()}
                    for s in range(old["sets"])]
        else:
            sets, wall = measure(command, workload, metrics, args.sets, args.runs,
                                 spec["run_seconds"])
            longest = max(longest, wall)
        rows = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            per_set = []
            for values in sets:
                q1, q2, q3 = statistics.quantiles(values[name], n=4)
                per_set.append({"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
                                "values": values[name]})
            worse = gap = 0.0
            if len(per_set) > 1:
                first, second = per_set[0]["median"], per_set[1]["median"]
                worse = worse_by(first, second, m["better"])
                gap = abs(second - first) / first
            spread = max(p["spread"] for p in per_set)
            spread_ok = name == "setup_s" or spread <= bound
            ok = spread_ok and gap <= bound
            verdict &= ok
            rows[name] = {"bound": bound, "sets": per_set, "max_spread": spread, "gap": gap,
                          "worse_by": worse, "within_bound": ok,
                          "bound_over_gap": (bound / gap if gap else None),
                          "bound_over_spread": (bound / spread if spread else None)}
            print(f"{workload:<18} {name:<18} medians "
                  + " ".join(f"{p['median']:>12.4f}" for p in per_set)
                  + f"  spread {spread * 100:6.2f} %  gap {gap * 100:6.2f} %"
                  + f"  bound {bound * 100:4.0f} %  {'ok' if ok else 'OUTSIDE'}", flush=True)
        evidence["workloads"][workload] = rows
    evidence["longest_run_s"] = longest
    evidence["all_within_bounds"] = verdict
    print(f"longest run {longest:.1f} s; all within bounds: {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(evidence, f, indent=1)
            f.write("\n")
    sys.exit(0 if verdict else 1)


if __name__ == "__main__":
    main()
