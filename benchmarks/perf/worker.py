"""Run one workload in this interpreter and print one JSON report line.

``bench.py`` starts this script once per workload (and a few more times
with ``--setup-only`` to sample set-up time).  The script sets the
workload up, runs one warm-up op, then runs ops back to back for
``--seconds`` with tracing off, checking every op.  Op times are
reported in reference seconds (see :mod:`speed`).  With ``--trace 1``
it then runs the layer pass: a few more ops under the timing wrappers
of :mod:`layers`, whose spans it writes to ``_out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import speed  # noqa: E402
import workloads  # noqa: E402  (needs the source path above)
from layers import SpanRecorder  # noqa: E402


#: A median of one op is not a median; ``record-explain`` ops can take
#: longer than a whole run.
MIN_OPS = 2


def closed_loop(workload, seconds: float) -> Tuple[
    List[float], List[float], List[List[str]]
]:
    """Ops back to back until ``seconds`` have passed and ``MIN_OPS``
    ops ran; a failed op still counts in the timings.  Returns each op's
    wall seconds, its speed factor (the mean of the calibrations just
    before and just after it) and its problems."""
    times: List[float] = []
    factors: List[float] = []
    checks: List[List[str]] = []
    before = speed.scale()
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        try:
            out = workload.op()
            elapsed = time.perf_counter() - start
            problems = workload.check(out)
        except Exception as exc:  # an op that raises is a failed op
            elapsed = time.perf_counter() - start
            problems = [f"{type(exc).__name__}: {exc}"]
        after = speed.scale()
        times.append(elapsed)
        factors.append((before + after) / 2)
        checks.append(problems)
        before = after
        if time.perf_counter() >= deadline and len(times) >= MIN_OPS:
            return times, factors, checks


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    if args.setup_only:
        return 0

    times, factors, checks = closed_loop(workload, args.seconds)
    is_pipeline = args.workload == "record-explain"
    if is_pipeline:
        # Calibrated step by step (see RecordExplainWorkload.op).
        op_times = [sum(steps.values())
                    for steps in workload.history[:len(times)]]
    else:
        op_times = [t * f for t, f in zip(times, factors)]
    report: Dict[str, object] = {
        "op_times": op_times,
        "wall_op_times": times,
        "checks": checks,
        "peak_rss_mb": peak_rss_mb(children=is_pipeline),
    }
    if not args.trace:
        print(json.dumps(report))
        return 0

    op_p50 = statistics.median(op_times)
    layers: Dict[str, float] = {}
    if is_pipeline:
        for step, _ in workload.steps:
            layers[f"cli.{step}_s"] = statistics.median(
                steps[step] for steps in workload.history if step in steps
            )
    recorder = SpanRecorder()
    before = speed.scale()
    metrics, layer_times, layer_checks = workload.layer_pass(recorder)
    factor = (before + speed.scale()) / 2
    # Every per-layer time is named *_s; one factor covers the pass.
    layers.update({
        name: value * factor if name.endswith("_s") else value
        for name, value in metrics.items()
    })
    if "simulator.tuples_per_op" in layers:
        layers["simulator.tuples_per_s"] = (
            layers["simulator.tuples_per_op"] / op_p50
        )
    layers["bench.instrumentation_overhead"] = (
        statistics.median(layer_times) / op_p50 - 1.0
    )
    spans_path = workloads.work_dir() / f"spans-{args.workload}.json"
    recorder.dump(str(spans_path))
    self_times: Dict[str, Dict[str, float]] = {}
    for entry in recorder.totals().values():
        row = self_times.setdefault(entry["layer"],
                                    {"calls": 0, "self_s": 0.0})
        row["calls"] += entry["calls"]
        row["self_s"] += entry["self_s"]
    report.update(
        layers=layers,
        layer_times=layer_times,
        checks=checks + layer_checks,
        layer_self=self_times,
        spans=str(spans_path.relative_to(HERE.parents[1])),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
