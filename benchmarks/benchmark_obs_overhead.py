"""Guard the null-sink contract at the wall-clock level.

The observability layer promises that a simulator run with tracing
*disabled* (the default ``NULL_TRACER``) costs the same as one with no
tracer wired at all — the hot loop only pays one hoisted boolean check.
That includes causal span tracing: span ids are allocated, and the
span fields added to ``batch.enqueued``/``batch.serviced``, only behind
the same hoisted guard.  This script times both configurations and fails
if the relative difference exceeds ``--tolerance`` (CI runs it at 5%).

A third, informational case times tracing *enabled* against a
discard-everything sink — the marginal cost of constructing every event
(spans included) with serialization and I/O excluded — and reports the
event volume, so span-emission regressions show up as a number even
though only the disabled case is gated.  A fourth, also informational,
traces to a ``JsonlSink`` on a temporary file, so the cost of encoding
and writing each event shows beside the discard-sink line, in total and
per event.

A fifth, gated case re-runs the disabled-vs-baseline comparison with a
migration controller attached: the decision-audit layer
(``repro.obs.decisions``) must stay behind the same hoisted guard, so a
controller-driven run with tracing disabled allocates **zero** decision
records (asserted by instrumenting ``DecisionRecord.__init__``, not
just timed) and stays inside the same tolerance.

Usage::

    PYTHONPATH=src python benchmarks/benchmark_obs_overhead.py \
        --tolerance 0.05

Timing uses min-of-repeats (the standard noise-robust estimator for
"how fast can this go"); all variants run the identical workload from
the identical seed, interleaved so machine drift hits them equally.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import repro.obs.decisions as decisions_mod
from repro.deploy import Deployment
from repro.dynamics.controller import LoadBalancingController
from repro.graphs.generator import monitoring_graph
from repro.obs.trace import JsonlSink, NullSink, TraceSink, Tracer


class _DiscardSink(TraceSink):
    """Enabled sink that drops every event: isolates emission cost."""

    def write(self, event) -> None:
        pass


def build_deployment() -> Deployment:
    return Deployment.plan(monitoring_graph(3, seed=7), [1.0, 1.0, 1.0])


def time_run(deployment: Deployment, tracer: Tracer | None,
             duration: float, controller: bool = False) -> float:
    kwargs = {}
    if tracer is not None:
        kwargs["tracer"] = tracer
    if controller:
        # Fresh per run: controllers carry smoothing/cooldown state.
        kwargs["controller"] = LoadBalancingController(period=1.0)
    start = time.perf_counter()
    deployment.simulate(
        rates=[120.0, 120.0, 120.0], duration=duration, **kwargs
    )
    return time.perf_counter() - start


def time_jsonl_run(deployment: Deployment, path: str,
                   duration: float) -> float:
    """``time_run`` tracing into a fresh JSONL file at ``path``."""
    with JsonlSink(path) as sink:
        return time_run(deployment, Tracer(sink), duration)


def assert_no_decision_records(deployment: Deployment,
                               duration: float) -> None:
    """Disabled tracing must allocate zero DecisionRecord objects."""
    created = {"count": 0}
    original_init = decisions_mod.DecisionRecord.__init__

    def counting_init(self, *args, **kwargs):
        created["count"] += 1
        original_init(self, *args, **kwargs)

    decisions_mod.DecisionRecord.__init__ = counting_init
    controller = LoadBalancingController(period=1.0)
    try:
        deployment.simulate(
            rates=[120.0, 120.0, 120.0], duration=duration,
            tracer=Tracer(NullSink()), controller=controller,
        )
    finally:
        decisions_mod.DecisionRecord.__init__ = original_init
    if created["count"] != 0:
        raise AssertionError(
            f"disabled-tracing run allocated {created['count']} "
            "decision record(s); the telemetry guard leaked into the "
            "hot path"
        )
    if controller.telemetry is not None:
        raise AssertionError(
            "controller.telemetry attached despite tracing disabled"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="max allowed relative slowdown (default 0.05)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats; the minimum of each is used")
    parser.add_argument("--duration", type=float, default=20.0,
                        help="simulated seconds per run")
    args = parser.parse_args(argv)

    deployment = build_deployment()
    disabled_tracer = Tracer(NullSink())

    # Warm-up: JIT-free Python still benefits (allocator, caches).
    time_run(deployment, None, args.duration)
    time_run(deployment, disabled_tracer, args.duration)

    enabled_tracer = Tracer(_DiscardSink())
    time_run(deployment, enabled_tracer, args.duration)
    time_run(deployment, None, args.duration, controller=True)
    time_run(deployment, disabled_tracer, args.duration, controller=True)

    # Correctness before timing: a disabled-tracing controller run must
    # build zero DecisionRecord objects and leave telemetry detached.
    assert_no_decision_records(deployment, args.duration)

    baseline_times = []
    disabled_times = []
    enabled_times = []
    jsonl_times = []
    ctrl_baseline_times = []
    ctrl_disabled_times = []
    # Removed at exit even if a run raises.
    tmpdir = tempfile.TemporaryDirectory()
    jsonl_path = os.path.join(tmpdir.name, "trace.jsonl")
    time_jsonl_run(deployment, jsonl_path, args.duration)
    for _ in range(args.repeats):
        baseline_times.append(time_run(deployment, None, args.duration))
        disabled_times.append(
            time_run(deployment, disabled_tracer, args.duration)
        )
        enabled_times.append(
            time_run(deployment, enabled_tracer, args.duration)
        )
        jsonl_times.append(
            time_jsonl_run(deployment, jsonl_path, args.duration)
        )
        ctrl_baseline_times.append(
            time_run(deployment, None, args.duration, controller=True)
        )
        ctrl_disabled_times.append(
            time_run(deployment, disabled_tracer, args.duration,
                     controller=True)
        )

    tmpdir.cleanup()

    baseline = min(baseline_times)
    disabled = min(disabled_times)
    enabled = min(enabled_times)
    jsonl = min(jsonl_times)
    ctrl_baseline = min(ctrl_baseline_times)
    ctrl_disabled = min(ctrl_disabled_times)
    overhead = (disabled - baseline) / baseline
    enabled_overhead = (enabled - baseline) / baseline
    ctrl_overhead = (ctrl_disabled - ctrl_baseline) / ctrl_baseline
    events_per_run = enabled_tracer.events_emitted // (args.repeats + 1)

    def per_event(seconds: float) -> str:
        return f"{(seconds - baseline) / events_per_run * 1e6:.2f} us/event"

    print(f"baseline (no tracer):     {baseline * 1e3:8.2f} ms")
    print(f"tracing disabled (null):  {disabled * 1e3:8.2f} ms")
    print(f"relative overhead:        {overhead:+8.2%} "
          f"(tolerance {args.tolerance:.0%})")
    print(f"tracing enabled (discard sink, spans included): "
          f"{enabled * 1e3:8.2f} ms ({enabled_overhead:+.2%}, "
          f"~{events_per_run} events/run, {per_event(enabled)}; "
          f"informational)")
    print(f"tracing to a JSONL file (encode and write):     "
          f"{jsonl * 1e3:8.2f} ms ({(jsonl - baseline) / baseline:+.2%}, "
          f"{per_event(jsonl)}; informational)")
    print(f"controller, no tracer:    {ctrl_baseline * 1e3:8.2f} ms")
    print(f"controller, disabled:     {ctrl_disabled * 1e3:8.2f} ms "
          f"({ctrl_overhead:+.2%}; zero decision records asserted)")
    failed = False
    if overhead > args.tolerance:
        print("FAIL: disabled tracing exceeds the overhead budget")
        failed = True
    if ctrl_overhead > args.tolerance:
        print("FAIL: disabled tracing with a controller exceeds the "
              "overhead budget")
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
