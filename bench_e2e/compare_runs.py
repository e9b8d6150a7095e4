#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs, metric by metric.

    python3 bench_e2e/compare_runs.py --base A1.out A2.out ... --head B1.out ...
                                      [--claim <metric>@<workload>] ...

Each file is the saved standard output of run.py or of the bench_e2e binary.
Every "RESULT {json}" line in it is one run of one workload.  The bounds and
directions come from the end_to_end list of BENCHMARK.json.

For each (workload, metric) it prints both sides' medians and quartiles and
one verdict:

  within bound  the head median is not worse than the base median by more
                than the bound (a share of the base median);
  regressed     it is worse by more than the bound;
  unresolved    a side's spread (quartile distance / median) exceeds the
                bound and the two sides' ranges overlap, so the runs cannot
                tell.  If every head run is better than every base run, the
                verdict is "within bound" instead.

A metric is marked "identical" when every run equals its paired run on the
other side, as the quality metrics do for two sets run with the same seeds.

--claim applies the pair rule for a claimed gain.  Runs pair up in the
order given (base i with head i, so interleave them when you make them).
The head must win at least 9 of every 10 pairs, with ties counting for
neither side, and the median gap must exceed the base's quartile distance.

Exit status: 1 if a metric regressed or a claim is not met, else 0.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(paths):
    """{workload: {metric: [values in file order]}}"""
    runs = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                if not line.startswith("RESULT "):
                    continue
                r = json.loads(line[len("RESULT "):])
                per = runs.setdefault(r["workload"], {})
                for name, m in r["metrics"].items():
                    per.setdefault(name, []).append(m["value"])
    return runs


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_by(base_med, head_med, better):
    """Signed share by which head is worse than base (negative: better)."""
    if base_med == 0:
        return 0.0
    gap = (head_med - base_med) / abs(base_med)
    return gap if better == "lower" else -gap


def all_better(base, head, better):
    if better == "lower":
        return max(head) < min(base)
    return min(head) > max(base)


def verdict(base, head, bound, better):
    overlap = min(base) <= max(head) and min(head) <= max(base)
    if max(spread(base), spread(head)) > bound and overlap:
        return "within bound" if all_better(base, head, better) else "unresolved"
    w = worse_by(statistics.median(base), statistics.median(head), better)
    return "regressed" if w > bound else "within bound"


def claim(base, head, better):
    """(met, explanation) under the pair rule."""
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs
               if (h < b if better == "lower" else h > b))
    q1, base_med, q3 = quartiles(base)
    head_med = statistics.median(head)
    gap = base_med - head_med if better == "lower" else head_med - base_med
    met = len(pairs) > 0 and wins >= 0.9 * len(pairs) and gap > q3 - q1
    return met, (f"{wins}/{len(pairs)} pairs won, median gap {gap:.6g} "
                 f"vs base IQR {q3 - q1:.6g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    ap.add_argument("--claim", action="append", default=[],
                    metavar="METRIC@WORKLOAD")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        metrics = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base, head = load_runs(args.base), load_runs(args.head)
    status = 0
    print(f"{'workload':18s} {'metric':18s} {'base q1/median/q3':>34s} "
          f"{'head q1/median/q3':>34s} {'gain':>8s}  verdict")
    for wl in sorted(set(base) & set(head)):
        for name, m in metrics.items():
            b, h = base[wl].get(name), head[wl].get(name)
            if not b or not h:
                continue
            v = verdict(b, h, m["bound"], m["better"])
            if b == h:
                v += ", identical"
            status |= v.startswith("regressed")
            bq, hq = quartiles(b), quartiles(h)
            change = worse_by(bq[1], hq[1], m["better"])
            print(f"{wl:18s} {name:18s} "
                  f"{'%.4g/%.4g/%.4g' % bq:>34s} {'%.4g/%.4g/%.4g' % hq:>34s} "
                  f"{-change:+8.2%}  {v} (n={len(b)}/{len(h)}, "
                  f"bound {m['bound']:.0%})")
    for c in args.claim:
        name, _, wl = c.partition("@")
        if name not in metrics or wl not in base or wl not in head:
            print(f"claim {c}: no such metric or workload in both sets")
            status = 1
            continue
        met, why = claim(base[wl][name], head[wl][name],
                         metrics[name]["better"])
        print(f"claim {c}: {'MET' if met else 'NOT MET'} ({why})")
        status |= not met
    sys.exit(status)


if __name__ == "__main__":
    main()
