"""Compare benchmark result files written by ``run.py --out``.

    python3 bench/compare.py BASE.jsonl [CHANGE.jsonl]

With one file: per workload and end-to-end metric, the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) of the untraced
runs, and the spread (third minus first quartile, over the median) next to
the metric's bound from BENCHMARK.json.  A spread under a third of the bound
is marked steady.

With two files: both sides' medians and quartiles and a verdict per
workload and metric, with the bounds of BENCHMARK.json:
  * unresolved: either side's spread exceeds the bound, unless every change
    run reads better (then better) or worse (then worse) than every base run;
  * worse: the change's median is worse than the base median by more than
    the bound;
  * better: the change's median is better by more than the base spread, and
    the change wins at least nine tenths of the paired runs (paired by seed,
    else by position; ties count for neither);
  * unchanged: otherwise.
A pair is only fair when its two runs were made close together in time:
run base and change one seed at a time, swapping which side runs first
(see README.md).
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_results(path):
    """workload -> list of (seed, {metric: value}) for untraced runs."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            values = {k: m["value"]
                      for k, m in rec["result"]["metrics"].items()}
            runs.setdefault(rec["workload"], []).append((rec["seed"], values))
    return runs


def stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(base, change, better):
    """Relative amount by which change is worse than base (negative when
    it is better)."""
    rel = (change - base) / base
    return rel if better == "lower" else -rel


def pairs(base_runs, change_runs):
    base_by_seed = dict(base_runs)
    matched = [(base_by_seed[s], v) for s, v in change_runs
               if s in base_by_seed]
    if matched:
        return matched
    return [(b, c) for (_, b), (_, c) in zip(base_runs, change_runs)]


def verdict(metric, base_runs, change_runs):
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    a = [v[name] for _, v in base_runs]
    b = [v[name] for _, v in change_runs]
    med_a, _, _, spread_a = stats(a)
    med_b, _, _, spread_b = stats(b)

    def is_better(x, y):  # is change value y better than base value x
        return y < x if better == "lower" else y > x

    all_better = all(is_better(x, y) for x in a for y in b)
    all_worse = all(is_better(y, x) for x in a for y in b)
    if max(spread_a, spread_b) > bound:
        return "better" if all_better else "worse" if all_worse \
            else "unresolved"
    rel = worse_by(med_a, med_b, better)
    if rel > bound:
        return "worse"
    pr = [(x[name], y[name]) for x, y in pairs(base_runs, change_runs)]
    wins = sum(1 for x, y in pr if is_better(x, y))
    if -rel > spread_a and pr and wins >= 0.9 * len(pr):
        return "better"
    return "unchanged"


def fmt(values):
    med, q1, q3, spread = stats(values)
    return "%11.5g [%.5g, %.5g]" % (med, q1, q3), spread


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base = load_results(argv[0])
    change = load_results(argv[1]) if len(argv) == 2 else None
    for workload in sorted(base):
        runs = base[workload]
        print("%s (%d runs%s)" % (workload, len(runs), "" if change is None
                                  else " vs %d" % len(change.get(workload,
                                                                 []))))
        for m in metrics:
            name = m["name"]
            a = [v[name] for _, v in runs]
            text_a, spread_a = fmt(a)
            if change is None:
                print("  %-16s %s  spread %.3f  bound %.2f  %s"
                      % (name, text_a, spread_a, m["bound"],
                         "steady" if spread_a < m["bound"] / 3 else
                         "NOT steady"))
                continue
            if not change.get(workload):
                print("  %-16s %s  (no change runs)" % (name, text_a))
                continue
            b = [v[name] for _, v in change[workload]]
            text_b, _ = fmt(b)
            rel = worse_by(statistics.median(a), statistics.median(b),
                           m["better"])
            print("  %-16s %s -> %s  worse by %+.3f  %s"
                  % (name, text_a, text_b, rel,
                     verdict(m, runs, change[workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
