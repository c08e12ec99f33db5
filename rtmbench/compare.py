#!/usr/bin/env python3
"""Compares the benchmark results of a parent commit and a change.

    python3 rtmbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a results directory as run.py writes it
(.bench_build/results in the checkout): <workload>/seed<N>-trace0.json.
Runs of the two sides are paired by seed. For each workload and each
end-to-end metric of BENCHMARK.json it prints both sides' median and
quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

  gain           at least 10 pairs, the change won at least 9 in 10 of
                 them, the medians differ by more than the parent's
                 interquartile range, and the change's failure share is
                 not above the parent's
  regression     the change's median is worse than the parent's by more
                 than the metric's bound
  unresolved     the parent's own spread is wider than the bound and not
                 every change run beats every parent run
  no regression  otherwise

It also prints each side's failure share (failed over attempted). The
exit code is 1 when any metric regressed.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(results):
    """{workload: {seed: result}} for the untraced runs under results."""
    runs = {}
    for path in glob.glob(os.path.join(results, "*", "seed*-trace0.json")):
        with open(path) as f:
            saved = json.load(f)
        runs.setdefault(saved["workload"], {})[saved["seed"]] = saved["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


MIN_PAIRS = 10


def verdict(parent, change, pairs, better, bound, fails_more):
    """Classifies one metric; pairs holds (parent, change) values and
    fails_more is whether the change's failure share is the higher."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and sign * (cm - pm) > p3 - p1 and not fails_more):
        return "gain", wins
    if sign * (pm - cm) > bound * abs(pm):
        return "regression", wins
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm and (p3 - p1) / abs(pm) > bound and not every_better:
        return "unresolved", wins
    return "no regression", wins


def failure_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(argv[1]), load(argv[2])
    regressed = False
    for workload in sorted(set(parent) | set(change)):
        ps, cs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(ps) & set(cs))
        print("%s: %d parent runs, %d change runs, %d pairs"
              % (workload, len(ps), len(cs), len(seeds)))
        if not ps or not cs:
            print("  (needs runs on both sides)")
            continue
        pf, cf = failure_share(ps.values()), failure_share(cs.values())
        print("  %-18s %-6s %30s %30s %6s  %s"
              % ("metric", "unit", "parent q1/median/q3",
                 "change q1/median/q3", "won", "verdict"))
        for m in metrics:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in ps.values()]
            cv = [r["metrics"][name]["value"] for r in cs.values()]
            pairs = [(ps[s]["metrics"][name]["value"],
                      cs[s]["metrics"][name]["value"]) for s in seeds]
            v, wins = verdict(pv, cv, pairs, m["better"], m["bound"],
                              cf > pf)
            regressed |= v == "regression"
            print("  %-18s %-6s %30s %30s %6s  %s"
                  % (name, m["unit"],
                     "%.4g/%.4g/%.4g" % quartiles(pv),
                     "%.4g/%.4g/%.4g" % quartiles(cv),
                     "%d/%d" % (wins, len(pairs)), v))
        print("  failure share: parent %.4f, change %.4f (%+.4f)"
              % (pf, cf, cf - pf))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
