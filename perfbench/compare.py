#!/usr/bin/env python3
"""Compares two calibrate.py outputs, metric by metric and workload by workload.

  python3 perfbench/calibrate.py --runs 10 --out base.json   # parent commit
  python3 perfbench/calibrate.py --runs 10 --out new.json    # the change
  python3 perfbench/compare.py base.json new.json

Bounds and directions come from BENCHMARK.json. Run i of both files used the
same seed, so runs pair up by index. For each end-to-end metric the verdict
is:

  unresolved  the spread (IQR / median) of either side exceeds the bound,
              unless every new run beats every base run (then better)
  worse       the new median is worse than the base median by more than
              the bound
  better      the new median is better by more than the base IQR, and the
              new run wins at least 9 in 10 of the pairs (ties count for
              neither side)
  slower      the mirror of better, inside the bound: the new median is
              worse by more than the base IQR and the new run loses at
              least 9 in 10 of the pairs. The bound tolerates it, but it is
              a measured regression, not "unchanged"
  unchanged   otherwise

A positive change is a worsening. Per-layer metrics (files made with
--trace 1) are listed with their medians, their change, and the end-to-end
metric each should move (perfbench/layer_map.json); they have no bound.
Exit status 1 when any verdict is worse.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base, new, lower_better, bound):
    """Verdict plus (median change, worst-side spread), both as shares of
    the base median; a positive change is a worsening."""
    b_med, n_med = statistics.median(base), statistics.median(new)
    sign = 1.0 if lower_better else -1.0
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    spread = max(iqr(base) / abs(b_med) if b_med else 0.0,
                 iqr(new) / abs(n_med) if n_med else 0.0)
    beats = (lambda x, y: x < y) if lower_better else (lambda x, y: x > y)
    if spread > bound:
        return ("better" if all(beats(x, y) for x in new for y in base)
                else "unresolved"), change, spread
    if change > bound:
        return "worse", change, spread
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if beats(n, b))
    losses = sum(1 for b, n in pairs if beats(b, n))
    decided = wins + losses
    base_iqr = iqr(base) / abs(b_med) if b_med else 0.0
    if -change > base_iqr and decided > 0 and wins >= 0.9 * decided:
        return "better", change, spread
    if change > base_iqr and decided > 0 and losses >= 0.9 * decided:
        return "slower", change, spread
    return "unchanged", change, spread


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layer_map.json")) as f:
        moves = json.load(f)
    with open(sys.argv[1]) as f:
        base = json.load(f)["runs"]
    with open(sys.argv[2]) as f:
        new = json.load(f)["runs"]
    bounded = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    unmapped = sorted(set(layers) - set(moves))
    if unmapped:
        sys.exit(f"layer_map.json lacks {', '.join(unmapped)}")

    worse = 0
    print(f"{'workload':12s} {'metric':30s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in base:
        if workload not in new or not base[workload] or not new[workload]:
            continue
        for metric in base[workload][0]:
            b = [r[metric] for r in base[workload]]
            n = [r[metric] for r in new[workload] if metric in r]
            if not n:
                continue
            if metric in bounded:
                m = bounded[metric]
                v, change, spread = verdict(b, n, m["better"] == "lower",
                                            m["bound"])
                worse += v == "worse"
                print(f"{workload:12s} {metric:30s} "
                      f"{statistics.median(b):12.6g} "
                      f"{statistics.median(n):12.6g} {change:+8.2%} "
                      f"{spread:7.2%} {m['bound']:6.0%}  {v}")
            elif metric in layers:
                b_med, n_med = statistics.median(b), statistics.median(n)
                sign = 1.0 if layers[metric]["better"] == "lower" else -1.0
                change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
                print(f"{workload:12s} {metric:30s} {b_med:12.6g} "
                      f"{n_med:12.6g} {change:+8.2%} {'':7s} {'':6s}  "
                      f"per-layer -> {moves[metric] or '(none)'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
