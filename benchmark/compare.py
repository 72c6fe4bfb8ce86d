"""Compare two sets of benchmark results, metric by metric.

    python3 benchmark/compare.py benchmark/results/set-a.jsonl benchmark/results/set-b.jsonl

Each file holds the JSON lines that ``run.py --record`` (or ``sweep.py``)
appends. For every workload and every end-to-end metric of
BENCHMARK.json, this prints each side's median and quartiles over its
untraced runs, their spread (quartile distance over median), and a mark:

- ``agreeing``: B's median is not worse than A's by more than the bound;
- ``regressed``: B's median is worse by more than the bound;
- ``unresolved``: a side's spread exceeds the bound, so the medians
  cannot be told apart, unless every run of B is worse (``regressed``)
  or better (``agreeing``) than every run of A.

Exits 0 when every metric agrees and the failed shares match, 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """Untraced results by workload: list of result dicts."""
    by_workload = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                entry = json.loads(line)
                if entry["trace"] == 0:
                    by_workload.setdefault(entry["workload"], []).append(entry["result"])
    return by_workload


def summary(values):
    """(median, q1, q3, spread) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med


def mark(metric, a_values, b_values):
    sign = 1.0 if metric["better"] == "lower" else -1.0
    med_a, *_, spread_a = summary(a_values)
    med_b, *_, spread_b = summary(b_values)
    worse = sign * (med_b - med_a) / med_a
    if max(spread_a, spread_b) > metric["bound"]:
        if min(sign * b for b in b_values) > max(sign * a for a in a_values):
            return "regressed", worse
        if max(sign * b for b in b_values) < min(sign * a for a in a_values):
            return "agreeing", worse
        return "unresolved", worse
    return ("regressed" if worse > metric["bound"] else "agreeing"), worse


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed, attempted


def fmt(med, q1, q3, spread):
    return f"{med:10.4f} [{q1:.4f}, {q3:.4f}] {100 * spread:5.1f}%"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs=2, metavar="FILE", help="result files A and B")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, side_b = (load(path) for path in args.files)

    ok = True
    print(f"{'workload/metric':30s} {'A median [q1, q3] spread':>38s}"
          f" {'B median [q1, q3] spread':>38s} {'B vs A':>8s}  mark")
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = side_a.get(workload, []), side_b.get(workload, [])
        if not (runs_a and runs_b):
            print(f"{workload}: no results on a side")
            ok = False
            continue
        for metric in spec["end_to_end"]:
            a, b = ([r["metrics"][metric["name"]]["value"] for r in rs] for rs in (runs_a, runs_b))
            verdict, worse = mark(metric, a, b)
            ok = ok and verdict == "agreeing"
            print(f"{workload + '/' + metric['name']:30s} {fmt(*summary(a)):>38s}"
                  f" {fmt(*summary(b)):>38s} {100 * worse:+7.1f}%"
                  f"  {verdict} (bound {100 * metric['bound']:.0f}%)")
        (failed_a, attempted_a), (failed_b, attempted_b) = (failed_share(rs)
                                                            for rs in (runs_a, runs_b))
        print(f"{workload + '/failed':30s} {failed_a} of {attempted_a} ({len(runs_a)} runs)"
              f"  {failed_b} of {attempted_b} ({len(runs_b)} runs)")
        if failed_a * attempted_b != failed_b * attempted_a:
            print(f"{workload}: failed shares differ")
            ok = False
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
