#!/usr/bin/env python3
"""Compare two sets of bench_e2e results files.

    python3 bench/e2e/compare.py --base a1.json a2.json ... --new b1.json ...

Each file is what `bench_e2e --out FILE` writes (one run, one or all
workloads). For every workload x metric present on both sides it prints
each side's median and quartiles (statistics.quantiles, n=4) and the
change of the medians. Metrics with a bound in BENCHMARK.json are
flagged:

  REGRESSED   the new median is worse than the base median by more
              than the bound (a share of the base median);
  improved    better by more than the bound;
  unresolved  either side's quartile spread, as a share of its median,
              exceeds the bound, so a move cannot be told from noise;
              unless every new run reads better than every base run;
  ok          within the bound.

Exits 1 if any metric regressed or any run's outputs were incorrect.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
DEFAULT_BENCH = os.path.join(ROOT, "BENCHMARK.json")


def load_runs(paths):
    """{workload: {metric: [values]}}, {metric: unit}, incorrect runs."""
    values, units, incorrect = {}, {}, []
    for path in paths:
        with open(path) as f:
            run = json.load(f)
        for workload, result in run["workloads"].items():
            if not result.get("correct", False):
                incorrect.append(f"{path}:{workload}")
            for section in ("metrics", "extras"):
                for name, m in result.get(section, {}).items():
                    if m["value"] is None:
                        continue
                    values.setdefault(workload, {}).setdefault(name, []).append(
                        m["value"])
                    units[name] = m["unit"]
    return values, units, incorrect


def summary(v):
    med = statistics.median(v)
    if len(v) < 2:
        return med, med, med
    q = statistics.quantiles(v, n=4)
    return med, q[0], q[2]


def spread(v):
    med, q1, q3 = summary(v)
    return (q3 - q1) / abs(med) if med else 0.0


def classify(base, new, bound, better):
    if better is None or bound is None:
        return "-"
    sign = 1 if better == "higher" else -1
    b_med, n_med = statistics.median(base), statistics.median(new)
    change = (n_med - b_med) / abs(b_med) if b_med else 0.0
    if spread(base) > bound or spread(new) > bound:
        if sign > 0 and min(new) > max(base):
            return "improved"
        if sign < 0 and max(new) < min(base):
            return "improved"
        return "unresolved"
    if sign * change < -bound:
        return "REGRESSED"
    if sign * change > bound:
        return "improved"
    return "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--bench", default=DEFAULT_BENCH,
                    help="BENCHMARK.json with bounds (default: repo root)")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    base, units, bad_base = load_runs(args.base)
    new, _, bad_new = load_runs(args.new)
    regressed = False
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}  "
              f"(base n={len(args.base)}, new n={len(args.new)})")
        print(f"  {'metric':32s} {'base median [q1, q3]':>34s} "
              f"{'new median [q1, q3]':>34s} {'change':>8s}  status")
        for name in sorted(set(base[workload]) & set(new[workload])):
            b, n = base[workload][name], new[workload][name]
            m = spec.get(name, {})
            status = classify(b, n, m.get("bound"), m.get("better"))
            regressed = regressed or status == "REGRESSED"
            bm, bq1, bq3 = summary(b)
            nm, nq1, nq3 = summary(n)
            change = (nm - bm) / abs(bm) if bm else 0.0
            unit = units.get(name, "")
            print(f"  {name:32s} {bm:12.5g} [{bq1:9.4g}, {bq3:9.4g}] "
                  f"{nm:12.5g} [{nq1:9.4g}, {nq3:9.4g}] {change:+8.1%}  "
                  f"{status} {unit}")
    for label, bad in (("base", bad_base), ("new", bad_new)):
        for run in bad:
            print(f"INCORRECT outputs in {label} run {run}")
    return 1 if regressed or bad_base or bad_new else 0


if __name__ == "__main__":
    sys.exit(main())
