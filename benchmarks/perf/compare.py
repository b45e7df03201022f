"""Judge a change against its parent from alternating benchmark runs.

Usage (from the repository root)::

    python3 benchmarks/perf/compare.py --parent P1.json ... \
        --change C1.json ...
    python3 benchmarks/perf/compare.py --spread R1.json ...

Inputs are ``bench.py --out`` files of ``--trace 0`` runs.  Parent run
``i`` pairs with change run ``i``; each workload needs at least
``MIN_PAIRS`` pairs, run alternately (parent first in one pair, change
first in the next).  For every workload and end-to-end metric of
``BENCHMARK.json`` the comparison prints both sides' medians and
quartiles, the share of pairs the change won (ties count for neither)
and a verdict:

* ``better`` — the change won at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``worse`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the parent's own spread (IQR over median) is wider
  than the bound and not every change run beats every parent run;
* ``unchanged`` — otherwise.

More failed ops over all runs is always ``worse``.  ``--spread``
instead reports one set's IQR over median per metric, against the
bound and a third of it.  The exit code is 1 when a verdict is
``worse`` or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9

Series = Dict[Tuple[str, str], List[float]]


def load_series(paths: Sequence[str],
                metrics: Sequence[str]) -> Series:
    """``{(workload, metric): [value per file, in order]}``, plus an
    ``error_rate`` series per workload."""
    series: Series = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            if run["trace"]:
                continue
            workload = run["workload"]
            for name in metrics:
                series.setdefault((workload, name), []).append(
                    float(run["metrics"][name]["value"])
                )
            series.setdefault((workload, "error_rate"), []).append(
                run["failed"] / run["attempted"]
            )
    return series


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, share of pairs the change won)``."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive means "the change is worse by this much".
    deltas = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(1 for d in deltas if d < 0) / len(deltas)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    shift = sign * (c_med - p_med)
    if wins >= WIN_SHARE and -shift > p_q3 - p_q1:
        return "better", wins
    if shift > bound * abs(p_med):
        return "worse", wins
    every_run_better = max(sign * c for c in change) < min(
        sign * p for p in parent
    )
    if relative_spread(parent) > bound and not every_run_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(parent: Series, change: Series,
            spec: Dict[str, object]) -> List[Dict[str, object]]:
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rows = []
    for key in sorted(parent):
        workload, metric = key
        p, c = parent[key], change.get(key, [])
        if len(p) != len(c) or len(p) < MIN_PAIRS:
            raise ValueError(
                f"{workload} {metric}: need >= {MIN_PAIRS} parent/change "
                f"pairs, got {len(p)} parent and {len(c)} change runs"
            )
        if metric == "error_rate":
            # Failures are rare events: a median would hide one.
            result = ("worse" if sum(c) > sum(p) else
                      "better" if sum(c) < sum(p) else "unchanged")
            wins = sum(1 for a, b in zip(p, c) if b < a) / len(p)
        else:
            result, wins = verdict(p, c, *rules[metric])
        rows.append({
            "workload": workload, "metric": metric,
            "parent": quartiles(p), "change": quartiles(c),
            "wins": wins, "verdict": result,
        })
    return rows


def spreads(series: Series,
            spec: Dict[str, object]) -> List[Dict[str, object]]:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return [
        {"workload": workload, "metric": metric,
         "median": statistics.median(values),
         "spread": relative_spread(values), "bound": bounds[metric],
         "runs": len(values)}
        for (workload, metric), values in sorted(series.items())
        if metric in bounds
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--spread", nargs="+", default=[])
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    if args.spread:
        failed = False
        for row in spreads(load_series(args.spread, metrics), spec):
            over = row["spread"] > row["bound"]
            # Set-up time is held to its median, not its spread.
            failed |= over and row["metric"] != "setup_s"
            note = ("over bound" if over else
                    "ok" if row["spread"] <= row["bound"] / 3
                    else "over bound/3")
            print(f"{row['workload']:15s} {row['metric']:12s} "
                  f"median {row['median']:.6g} spread {row['spread']:.4f} "
                  f"bound {row['bound']:g} ({row['runs']} runs) {note}")
        return 1 if failed else 0
    if not args.parent or not args.change:
        parser.error("give --parent and --change runs, or --spread")
    try:
        rows = compare(load_series(args.parent, metrics),
                       load_series(args.change, metrics), spec)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        p, c = row["parent"], row["change"]
        print(f"{row['workload']:15s} {row['metric']:12s} "
              f"parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}] "
              f"change {c[1]:.6g} [{c[0]:.6g}, {c[2]:.6g}] "
              f"wins {row['wins']:.0%} {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
