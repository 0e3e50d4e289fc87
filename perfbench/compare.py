"""Compare two commits' benchmark results, one row per workload x metric.

Usage, from the root of a checkout::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out FILE`` appended (untraced
runs; traced records are ignored).  Runs pair up by workload and seed,
so run both commits with the same seeds, alternating which side goes
first; a file that holds one workload and seed twice is refused.  Each
row gives both sides' median and quartiles, the change's win fraction
over the pairs (ties count for neither side), and a verdict:

* ``unresolved`` — fewer than ten pairs;
* ``improved`` — the change wins at least 9/10 of the pairs and the
  medians differ by more than the parent's quartile spread;
* ``unresolved`` — the parent's own spread (quartile distance / median)
  exceeds the metric's bound, and not every change run beats every
  parent run;
* ``worse`` — the change's median is worse than the parent's by more
  than the bound;
* ``no worse`` — otherwise.

Bounds and directions come from ``BENCHMARK.json``.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Fewer paired runs than this give no verdict.
MIN_PAIRS = 10


def load_runs(path):
    """{(workload, seed): {metric: value}} of a result file's runs."""
    runs = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            key = (record["workload"], record["seed"])
            if key in runs:
                raise SystemExit(f"{path}: workload {key[0]} seed {key[1]} "
                                 f"appears twice; use distinct seeds")
            runs[key] = {
                name: metric["value"]
                for name, metric in record["metrics"].items()}
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, pairs, better, bound):
    """Classify one workload x metric; returns (verdict, win fraction)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = (q3 - q1) / abs(parent_median) if parent_median else 0.0
    gain = sign * (change_median - parent_median)
    all_better = min(sign * value for value in change) > \
        max(sign * value for value in parent)
    if len(pairs) < MIN_PAIRS:
        return "unresolved", win_frac
    if win_frac >= 0.9 and gain > q3 - q1:
        return "improved", win_frac
    if spread > bound and not all_better:
        return "unresolved", win_frac
    if -gain > bound * abs(parent_median):
        return "worse", win_frac
    return "no worse", win_frac


def compare(parent_path, change_path, benchmark=None):
    """Rows (dicts) for every workload x end-to-end metric."""
    if benchmark is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
    parent = load_runs(parent_path)
    change = load_runs(change_path)
    rows = []
    for workload in [entry["name"] for entry in benchmark["workloads"]]:
        seeds = sorted(seed for name, seed in parent if name == workload)
        paired = [seed for seed in seeds if (workload, seed) in change]
        if not paired:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            old = [parent[(workload, seed)][name] for seed in seeds]
            new = [change[(workload, seed)][name]
                   for seed in sorted(seed for w, seed in change
                                      if w == workload)]
            pairs = [(parent[(workload, seed)][name],
                      change[(workload, seed)][name]) for seed in paired]
            result, win_frac = verdict(old, new, pairs, metric["better"],
                                       metric["bound"])
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"],
                "parent": (statistics.median(old), *quartiles(old)),
                "change": (statistics.median(new), *quartiles(new)),
                "pairs": len(pairs), "win_frac": win_frac,
                "verdict": result,
            })
    return rows


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(*argv)
    print(f"{'workload':<16} {'metric':<12} {'parent p50 [q1, q3]':<30} "
          f"{'change p50 [q1, q3]':<30} {'wins':>9}  verdict")
    for row in rows:
        sides = ["{:.4g} [{:.4g}, {:.4g}]".format(*row[side])
                 for side in ("parent", "change")]
        print(f"{row['workload']:<16} {row['metric']:<12} {sides[0]:<30} "
              f"{sides[1]:<30} {row['win_frac']:>5.0%} /{row['pairs']:<2} "
              f"{row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
