"""Trace analytics: structured breakdowns computed from JSONL traces.

Where :mod:`repro.obs.timeline` renders traces for a terminal,
``analyze`` turns them into numbers tooling can diff and report on:

* per-node breakdowns — busy/stall CPU-seconds, batches served, peak
  outstanding queue depth, mean/peak utilization;
* per-operator breakdowns — tuples in/out, work seconds, the nodes the
  operator ran on (more than one after a migration);
* the migration timeline (applied moves in simulated-time order);
* end-to-end latency percentiles rebuilt from the ``latency`` field the
  engine attaches to sink ``batch.serviced`` events.

The analyzer is **exact**, not approximate: ``busy_seconds`` per node
reproduces ``SimulationResult.node_busy`` bit for bit (the same
invariant ``timeline.busy_totals`` asserts), and the rebuilt
:class:`~repro.simulator.metrics.LatencyStats` records the same samples
in the same order as the engine did, so every aggregate —
mean/p50/p95/p99/max — matches the in-process result exactly
(``tests/test_analyze.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..simulator.metrics import LatencyStats
from .decisions import decision_snapshot
from .drift import drift_snapshot
from .index import DecisionView, FaultRecord, MigrationExplanation
from .index import Trace, as_index

__all__ = [
    "NodeBreakdown",
    "OperatorBreakdown",
    "TraceAnalysis",
    "analyze_trace",
]


@dataclass
class NodeBreakdown:
    """What one node did over the run, summed from its trace events."""

    busy_seconds: float = 0.0       # all served CPU work, stalls included
    stall_seconds: float = 0.0      # the migration-pause share of busy
    batches_serviced: int = 0
    batches_enqueued: int = 0
    tuples_processed: int = 0
    peak_outstanding: int = 0       # max simultaneously queued/served batches
    idle_transitions: int = 0

    @property
    def service_seconds(self) -> float:
        """Busy time net of migration stalls."""
        return self.busy_seconds - self.stall_seconds


@dataclass
class OperatorBreakdown:
    """One operator's activity, possibly spread over several nodes."""

    tuples_in: int = 0
    tuples_out: int = 0
    work_seconds: float = 0.0
    batches: int = 0
    nodes: List[int] = field(default_factory=list)

    def _saw_node(self, node: int) -> None:
        if node not in self.nodes:
            self.nodes.append(node)


@dataclass
class TraceAnalysis:
    """Everything :func:`analyze_trace` derives from one trace."""

    meta: Dict[str, object]
    nodes: List[NodeBreakdown]
    operators: Dict[str, OperatorBreakdown]
    migrations: List[MigrationExplanation]
    latency: LatencyStats
    sink_latency: Dict[str, LatencyStats]
    tuples_out: int
    events_by_type: Dict[str, int]
    faults: List[FaultRecord] = field(default_factory=list)
    #: Controller decision audit rows (``decision.evaluated`` events).
    decisions: List[DecisionView] = field(default_factory=list)
    #: Drift detections (``drift.detected`` event fields plus ``t``).
    drift: List[Dict[str, object]] = field(default_factory=list)
    decision_summary: Dict[str, object] = field(default_factory=dict)
    drift_summary: Dict[str, object] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def busy_totals(self) -> np.ndarray:
        """CPU-seconds served per node — equals ``SimulationResult.node_busy``."""
        return np.asarray([n.busy_seconds for n in self.nodes])

    def utilization(self) -> np.ndarray:
        """Mean utilization per node over the run horizon."""
        capacities = np.asarray(self.meta["capacities"], dtype=float)
        horizon = float(self.meta["horizon"])
        if horizon <= 0:
            return np.zeros(self.num_nodes)
        return self.busy_totals() / (capacities * horizon)

    def to_json_obj(self) -> Dict[str, object]:
        """Flat, diffable JSON view (used by run snapshots and reports)."""
        util = self.utilization()
        return {
            "meta": dict(self.meta),
            "events_by_type": dict(sorted(self.events_by_type.items())),
            "nodes": [
                {
                    "busy_seconds": n.busy_seconds,
                    "stall_seconds": n.stall_seconds,
                    "service_seconds": n.service_seconds,
                    "batches_serviced": n.batches_serviced,
                    "batches_enqueued": n.batches_enqueued,
                    "tuples_processed": n.tuples_processed,
                    "peak_outstanding": n.peak_outstanding,
                    "idle_transitions": n.idle_transitions,
                    "utilization": float(util[i]),
                }
                for i, n in enumerate(self.nodes)
            ],
            "operators": {
                name: {
                    "tuples_in": op.tuples_in,
                    "tuples_out": op.tuples_out,
                    "work_seconds": op.work_seconds,
                    "batches": op.batches,
                    "nodes": list(op.nodes),
                }
                for name, op in sorted(self.operators.items())
            },
            "migrations": [
                {
                    "t": m.t,
                    "operator": m.operator,
                    "source": m.source,
                    "target": m.target,
                    "pause": m.pause,
                }
                for m in self.migrations
            ],
            "faults": [asdict(f) for f in self.faults],
            "latency": {
                "mean": self.latency.mean(),
                "max": self.latency.maximum(),
                "tuples": self.latency.total_tuples,
                **self.latency.percentiles(),
            },
            "sink_latency": {
                sink: {"mean": stats.mean(), **stats.percentiles()}
                for sink, stats in sorted(self.sink_latency.items())
            },
            "tuples_out": self.tuples_out,
            "decisions": dict(self.decision_summary),
            "drift": dict(self.drift_summary),
        }


def analyze_trace(
    events: Trace,
    num_nodes: Optional[int] = None,
) -> TraceAnalysis:
    """Compute a :class:`TraceAnalysis` from parsed trace events.

    Works on any event list (filters applied, hand-built traces) or on
    its :class:`~repro.obs.index.RunIndex`; the run geometry comes from
    the ``sim.start`` header, inferred when absent.
    """
    index = as_index(events)
    meta = index.meta
    n = int(num_nodes if num_nodes is not None else meta["nodes"])
    nodes = [NodeBreakdown() for _ in range(n)]
    for node, (enqueued, peak) in zip(nodes, index.queues):
        node.batches_enqueued = enqueued
        node.peak_outstanding = peak
    for node, idle in zip(nodes, index.idle_transitions):
        node.idle_transitions = idle
    operators: Dict[str, OperatorBreakdown] = {}
    for _, node_index, work, name, count, out in index.work:
        node = nodes[node_index]
        node.busy_seconds += work
        if name is None:  # a migration stall
            node.stall_seconds += work
            continue
        node.batches_serviced += 1
        node.tuples_processed += count
        op = operators.get(name)
        if op is None:
            op = operators[name] = OperatorBreakdown()
        op.tuples_in += count
        op.tuples_out += out
        op.work_seconds += work
        op.batches += 1
        op._saw_node(node_index)
    latency = LatencyStats()
    sink_latency: Dict[str, LatencyStats] = {}
    tuples_out = 0
    for _, sample, out, sink in index.sink_samples:
        tuples_out += out
        # Same (value, weight) pairs in the same order as the engine
        # recorded them — aggregates match exactly.
        latency.record(sample, out)
        sink_latency.setdefault(sink, LatencyStats()).record(sample, out)
    return TraceAnalysis(
        meta=meta,
        nodes=nodes,
        operators=operators,
        migrations=index.migrations,
        latency=latency,
        sink_latency=sink_latency,
        tuples_out=tuples_out,
        events_by_type=dict(index.type_counts),
        faults=index.faults,
        decisions=index.decisions,
        drift=index.drift,
        decision_summary=decision_snapshot(index),
        drift_summary=drift_snapshot(index),
    )
