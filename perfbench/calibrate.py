#!/usr/bin/env python3
"""Runs the benchmark back to back and reports its run-to-run spread.

Run from the repository root:

  python3 perfbench/calibrate.py --runs 10 --out base.json
  python3 perfbench/calibrate.py --runs 10 --out new.json \\
      --versus ../parent --versus-out base.json

Run i of every workload uses seed first_seed + i, and the workloads take
turns, so slow drift of the machine spreads over all of them. For each
workload and metric it prints the median, the interquartile range as a
share of the median (statistics.quantiles(values, n=4)) and
(max - min) / median. --out keeps every run's metrics for compare.py.

--versus DIR also runs the checkout in DIR (for example the parent commit)
on the same seeds, in pairs whose order alternates, so that drift falls on
both sides alike; its runs go to --versus-out.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, IQR / median, (max - min) / median)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med), (max(values) - min(values)) / abs(med)


def run_once(root, workload, seed, seconds, trace):
    """One run of the checkout at `root`; its metrics, or None on failure."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode in (0, 1) else {}
    if done.returncode != 0 or not result.get("correct") or \
            result.get("failed") != 0:
        print(f"{root} {workload} seed={seed}: FAILED (exit "
              f"{done.returncode})\n{done.stderr[-2000:]}", file=sys.stderr)
        return None
    print(f"{root} {workload} seed={seed} ok", file=sys.stderr)
    return {k: v["value"] for k, v in result["metrics"].items()}


def report(title, runs):
    print(f"# {title}")
    print(f"{'workload':12s} {'metric':32s} {'median':>14s} "
          f"{'iqr/med':>8s} {'range/med':>9s} {'n':>3s}")
    for w, results in runs.items():
        for metric in (results[0] if results else {}):
            values = [r[metric] for r in results]
            med, iqr, rng = spread(values)
            print(f"{w:12s} {metric:32s} {med:14.6g} {iqr:8.2%} "
                  f"{rng:9.2%} {len(values):3d}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out")
    parser.add_argument("--versus")
    parser.add_argument("--versus-out")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    roots = [ROOT] + ([os.path.abspath(args.versus)] if args.versus else [])

    runs = {root: {w: [] for w in workloads} for root in roots}
    failures = 0
    for i in range(args.runs):
        for w in workloads:
            order = roots if i % 2 == 0 else roots[::-1]
            for root in order:
                metrics = run_once(root, w, args.first_seed + i,
                                   args.seconds, args.trace)
                if metrics is None:
                    failures += 1
                else:
                    runs[root][w].append(metrics)

    outs = [args.out, args.versus_out]
    for root, out in zip(roots, outs):
        report(root, runs[root])
        if out:
            with open(out, "w") as f:
                json.dump({"root": root, "seconds": args.seconds,
                           "trace": args.trace,
                           "first_seed": args.first_seed,
                           "runs": runs[root]}, f, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
