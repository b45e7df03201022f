"""Layered benchmark of the ROD reproduction: end to end and per layer.

Usage (from the repository root)::

    python3 benchmarks/perf/bench.py [--workload NAME] [--seed S]
        [--seconds N] [--trace 0|1] [--out FILE]

Each workload runs in its own fresh interpreter (``worker.py``), one
after another; without ``--workload`` all four run.  Set-up time is
sampled by starting the workload's set-up ``SETUP_SAMPLES`` times and
taking the median.  Times are in reference seconds: wall seconds
corrected for the machine's current speed (see ``speed.py``).  Every
metric is printed as ``workload metric value unit``; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Per-layer
metrics a layer does not reach on a workload read 0.  A run measures
for ``--seconds`` and at least two ops.  The exit code is non-zero,
with no result printed, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: Set-up samples per run; the median is reported as ``setup_s``.
SETUP_SAMPLES = 5
#: Wall-clock budget of one workload, set-up samples included.
WORKLOAD_TIMEOUT = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> Dict[str, object]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def run_bounded(cmd: List[str], deadline: float) -> str:
    """Run ``cmd`` to completion before ``deadline``; returns stdout.

    The child gets its own process group so a timeout also stops the
    interpreters it started."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(
            timeout=max(deadline - time.monotonic(), 0.0)
        )
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}")
    return stdout


def setup_command(workload: str, seed: int) -> List[str]:
    if workload == "record-explain":
        return [sys.executable, "-m", "repro", "--help"]
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--setup-only"]


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 spec: Dict[str, object]) -> Dict[str, object]:
    deadline = time.monotonic() + WORKLOAD_TIMEOUT
    samples = []
    before = speed.process_scale()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        run_bounded(setup_command(workload, seed), deadline)
        elapsed = time.perf_counter() - start
        after = speed.process_scale()
        samples.append(elapsed * (before + after) / 2)
        before = after
    stdout = run_bounded(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        deadline,
    )
    report = json.loads(stdout.strip().splitlines()[-1])
    times = report["op_times"]
    values = {
        "setup_s": statistics.median(samples),
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    extra = {
        "op_p90_s": statistics.quantiles(times, n=10)[-1]
        if len(times) > 1 else times[0],
        "op_p50_wall_s": statistics.median(report["wall_op_times"]),
        "ops": len(times),
        "setup_samples": samples,
    }
    if trace:
        layers = dict(report["layers"])
        if workload == "record-explain":
            layers["cli.startup_s"] = values["setup_s"]
        unknown = set(layers) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            raise BenchError(f"unlisted per-layer metrics: {sorted(unknown)}")
        extra.update(values, layer_self=report["layer_self"],
                     spans=report["spans"])
        values = layers
        listed = spec["per_layer"]
    else:
        listed = spec["end_to_end"]
    checks = report["checks"]
    failed = sum(1 for problems in checks if problems)
    extra["error_rate"] = failed / len(checks)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "errors": sorted({p for problems in checks for p in problems})[:10],
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in listed
        },
        "extra": extra,
    }


def print_run(run: Dict[str, object]) -> None:
    name = run["workload"]
    for metric, entry in run["metrics"].items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    extra = run["extra"]
    print(f"{name} op_p90_s {extra['op_p90_s']:.6g} s (not gated)")
    print(f"{name} op_p50_wall_s {extra['op_p50_wall_s']:.6g} s "
          "(wall clock, not gated)")
    print(f"{name} ops {extra['ops']} count (not gated)")
    print(f"{name} error_rate {extra['error_rate']:.6g} ratio")
    if run["trace"]:
        for layer, row in sorted(extra["layer_self"].items()):
            print(f"# {name} layer {layer}: self {row['self_s']:.6g} s "
                  f"over {row['calls']} calls")
        print(f"# {name} spans written to {extra['spans']}")
    for error in run["errors"]:
        print(f"# {name} FAILED: {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 runs the layer pass and reports "
                             "per-layer metrics")
    parser.add_argument("--out", help="also write the runs as JSON here")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program source at {SRC}")
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"expected one of {names}")
        seconds = (spec["run_seconds"] if args.seconds is None
                   else args.seconds)
        runs = []
        for workload in [args.workload] if args.workload else names:
            run = run_workload(workload, args.seed, seconds, args.trace,
                               spec)
            print_run(run)
            runs.append(run)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{run['workload']}.{name}": entry
                   for run in runs for name, entry in run["metrics"].items()}
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
