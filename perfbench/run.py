#!/usr/bin/env python3
"""Builds perf_suite from source and runs one workload of the benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --smoke     # every workload at 1/100 scale, both modes

The build lives in .bench_build/perfbench. WAL and segment files live under
.bench_build/perfbench/work while a run lasts; --trace 1 leaves
perf_trace.json and layers.json in .bench_build/perfbench/trace/<workload>.
The last line of standard output is the run's JSON result. Exit status: 0
on a correct run, 1 on a wrong answer, 2 when the build or the run could
not complete, 3 when the run overran its time limit.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(OUT, "build", "perf_suite")
WORKLOADS = ["read_mostly", "ingest", "tiered", "analytics"]
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds perf_suite; the build log goes to stderr."""
    steps = [
        ["cmake", "-S", HERE, "-B", os.path.join(OUT, "build"),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", os.path.join(OUT, "build"), "-j", "4"],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"run.py: cannot run {cmd[0]}: {e}", file=sys.stderr)
            sys.exit(2)
        if done.returncode != 0:
            print(f"run.py: {' '.join(cmd)} failed", file=sys.stderr)
            sys.exit(2)


def suite_command(workload, seed, seconds, trace, smoke=False):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(OUT, "work"),
           "--trace-dir", os.path.join(OUT, "trace", workload)]
    return cmd + (["--smoke"] if smoke else [])


def run(cmd, capture):
    """Runs the suite, killing it (and waiting for it) past the limit.
    With `capture`, returns its stdout and stderr instead of passing them
    through."""
    pipe = subprocess.PIPE if capture else None
    with subprocess.Popen(cmd, stdout=pipe, stderr=pipe, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"run.py: {cmd[0]} overran {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            sys.exit(3)
        return proc.returncode, out, err


def smoke():
    """Every workload at 1/100 scale, untraced and traced."""
    start = time.monotonic()
    bad = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out, err = run(
                suite_command(workload, 1, 0.2, trace, True), capture=True)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if code in (0, 1) else {}
            ok = code == 0 and result.get("correct") and \
                result.get("failed") == 0
            if not ok:
                bad += 1
                print(err, file=sys.stderr)
            print(f"{workload:12s} trace={trace} "
                  f"{'ok' if ok else 'FAILED'} exit={code} "
                  f"attempted={result.get('attempted')} "
                  f"failed={result.get('failed')}")
    print(f"smoke: {8 - bad}/8 runs ok in {time.monotonic() - start:.1f} s")
    return 0 if bad == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    build()
    if args.smoke:
        return smoke()
    code, _, _ = run(suite_command(args.workload, args.seed, args.seconds,
                                   args.trace), capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
