"""Critical-path latency attribution from causal span traces.

:mod:`repro.obs.analyze` can say *that* end-to-end latency rose;
this module says *where it went*.  It rebuilds the per-batch causal
forest from a traced run's ``batch.enqueued``/``batch.serviced`` pairs
(:mod:`repro.obs.spans`) and charges every second of every sink tuple's
end-to-end latency to an ``(operator, phase)`` pair:

``service``
    Time the batch spent being processed on its node (the serviced
    event's ``t - start``).
``migration-pause``
    The part of the batch's queue wait that overlapped a migration
    stall being served on its node (``node.stall`` events carry their
    service ``start`` so the pause windows are exact intervals).
``stall``
    The part of the wait that overlapped a crash window on the node
    (``fault.injected kind=node.crash`` .. ``kind=node.recover``),
    net of any overlap already charged to ``migration-pause``.
``enqueue-wait``
    The remainder of the wait — plain queueing behind other work.

Per batch, the four phases sum to exactly ``serviced.t - enqueued.t``,
and chained over a sink tuple's lineage those windows telescope to the
end-to-end latency the engine measured — so the weighted phase totals
account for (essentially all of) the latency mass, and the analyzer
reports the ``attributed_ratio`` so tooling can gate on it.

Like :mod:`repro.obs.analyze`, the reconciliation with the in-process
result is **exact**, not approximate: sink ``batch.serviced`` events
carry the identical latency float the engine recorded, consumed in the
same order, so the rebuilt :class:`~repro.simulator.metrics.LatencyStats`
matches ``SimulationResult.latency`` bit for bit
(``tests/test_spans.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..simulator.metrics import LatencyStats
from .spans import SpanRecord, spans_from_trace, validate_span_dag
from .trace import TraceEvent

__all__ = [
    "PHASES",
    "CriticalPathAnalysis",
    "analyze_critical_path",
    "render_critical_path_report",
]

#: Attribution phases, in reporting order.
PHASES: Tuple[str, ...] = (
    "enqueue-wait", "service", "migration-pause", "stall",
)

_Interval = Tuple[float, float]


def _overlap(a: float, b: float, intervals: Iterable[_Interval]) -> float:
    """Total measure of ``[a, b]`` covered by ``intervals``.

    Intervals on one node never overlap each other (a node serves one
    entry at a time; crash windows alternate crash/recover), so plain
    summation is exact.
    """
    total = 0.0
    for start, end in intervals:
        lo = a if a > start else start
        hi = b if b < end else end
        if hi > lo:
            total += hi - lo
    return total


def _intersections(
    first: Sequence[_Interval], second: Sequence[_Interval]
) -> List[_Interval]:
    """Pairwise interval intersections (small lists; O(n*m) is fine)."""
    out: List[_Interval] = []
    for a_start, a_end in first:
        for b_start, b_end in second:
            lo = max(a_start, b_start)
            hi = min(a_end, b_end)
            if hi > lo:
                out.append((lo, hi))
    return out


@dataclass
class CriticalPathAnalysis:
    """Latency mass charged to ``(operator, phase)`` pairs.

    ``attributed`` holds tuple-weighted seconds: each span's phase
    windows multiplied by the number of sink tuples that causally
    descend from it.  Dividing by ``latency.total_tuples`` turns any
    entry into mean seconds per sink tuple.
    """

    #: Rebuilt end-to-end stats — bit-identical to the engine's.
    latency: LatencyStats
    #: Sink tuples produced (== sum of sink service ``out`` counts).
    tuples_out: int = 0
    #: (operator, phase) -> tuple-weighted seconds.
    attributed: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: Total latency mass: sum of (latency * out) over sink services.
    total_latency_seconds: float = 0.0
    spans_total: int = 0
    spans_closed: int = 0
    #: Stranded batches: opened but never serviced (crashed nodes).
    unclosed_spans: int = 0
    #: Tuples riding those stranded batches.
    stranded_tuples: int = 0
    #: Lineage defects from :func:`repro.obs.spans.validate_span_dag`.
    problems: List[str] = field(default_factory=list)

    @property
    def attributed_seconds(self) -> float:
        """Total latency mass charged to (operator, phase) pairs."""
        return float(sum(self.attributed.values()))

    @property
    def attributed_ratio(self) -> float:
        """Charged mass / measured mass — 1.0 means fully explained."""
        if self.total_latency_seconds <= 0.0:
            return 1.0
        return self.attributed_seconds / self.total_latency_seconds

    def phase_totals(self) -> Dict[str, float]:
        """Tuple-weighted seconds per phase, every phase present."""
        totals = {phase: 0.0 for phase in PHASES}
        for (_, phase), seconds in self.attributed.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
        return totals

    def operator_totals(self) -> Dict[str, float]:
        """Tuple-weighted seconds per operator, all phases folded."""
        totals: Dict[str, float] = {}
        for (operator, _), seconds in self.attributed.items():
            totals[operator] = totals.get(operator, 0.0) + seconds
        return totals

    def top_operators(self, k: int = 5) -> List[Tuple[str, float]]:
        """The ``k`` operators carrying the most latency, descending."""
        ranked = sorted(
            self.operator_totals().items(),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[:k]

    def mean_seconds(self, operator: str, phase: str) -> float:
        """Mean seconds per sink tuple charged to one (op, phase)."""
        weight = self.latency.total_tuples
        if weight == 0:
            return 0.0
        return self.attributed.get((operator, phase), 0.0) / weight

    def to_json_obj(self) -> Dict[str, object]:
        """Diffable snapshot section (``critical_path.*`` keys).

        Keys are chosen to pair with the direction-aware defaults in
        :mod:`repro.obs.diff`: per-phase means and shares rising is a
        regression (more latency charged there), while
        ``attributed_ratio`` falling is (unexplained latency appeared).
        Raw counts stay out — a longer run is not a worse run.
        """
        weight = self.latency.total_tuples
        attributed = self.attributed_seconds
        phase_totals = self.phase_totals()
        operators: Dict[str, object] = {}
        for name, seconds in sorted(self.operator_totals().items()):
            operators[name] = {
                "seconds": seconds / weight if weight else 0.0,
                "share": seconds / attributed if attributed else 0.0,
                "phases": {
                    phase: self.mean_seconds(name, phase)
                    for phase in PHASES
                    if (name, phase) in self.attributed
                },
            }
        return {
            "attributed_ratio": self.attributed_ratio,
            "mean_seconds": {
                phase: total / weight if weight else 0.0
                for phase, total in phase_totals.items()
            },
            "phase_share": {
                phase: total / attributed if attributed else 0.0
                for phase, total in phase_totals.items()
            },
            "operators": operators,
            "unclosed_spans": self.unclosed_spans,
        }


def _stall_intervals(
    events: Sequence[TraceEvent],
) -> Dict[int, List[_Interval]]:
    """Per-node migration-pause service windows from ``node.stall``."""
    intervals: Dict[int, List[_Interval]] = {}
    for event in events:
        if event.type != "node.stall":
            continue
        start = event.fields.get("start")
        if start is None or event.t is None:
            continue  # pre-span trace without interval bounds
        node = int(event.fields["node"])  # type: ignore[call-overload]
        intervals.setdefault(node, []).append(
            (float(start), float(event.t))  # type: ignore[arg-type]
        )
    return intervals


def _crash_windows(
    events: Sequence[TraceEvent],
) -> Dict[int, List[_Interval]]:
    """Per-node [crash, recover) windows from fault events."""
    windows: Dict[int, List[_Interval]] = {}
    open_at: Dict[int, float] = {}
    for event in events:
        if event.type != "fault.injected":
            continue
        kind = event.fields.get("kind")
        if kind not in ("node.crash", "node.recover"):
            continue
        node = int(event.fields["node"])  # type: ignore[call-overload]
        t = 0.0 if event.t is None else float(event.t)
        if kind == "node.crash":
            open_at[node] = t
        else:
            crashed = open_at.pop(node, None)
            if crashed is not None:
                windows.setdefault(node, []).append((crashed, t))
    for node, crashed in open_at.items():
        # Never recovered: the window runs to the end of the run.
        windows.setdefault(node, []).append((crashed, math.inf))
    return windows


def analyze_critical_path(
    events: Sequence[TraceEvent],
) -> CriticalPathAnalysis:
    """Attribute end-to-end latency to operators and phases.

    Sink-tuple weights propagate rootward over the span forest: a sink
    span weighs its ``out`` count, every other span weighs the sum of
    its children.  Because span ids are allocated in creation order
    (``parent < span`` always), a single descending-id pass suffices;
    phase seconds then accumulate in ascending id order.
    """
    spans = spans_from_trace(events)
    problems = validate_span_dag(spans)
    stalls = _stall_intervals(events)
    crashes = _crash_windows(events)
    # migration-pause and stall can overlap when a crash interrupts an
    # in-flight stall; charge the overlap once (to migration-pause).
    double_counted: Dict[int, List[_Interval]] = {
        node: _intersections(stalls.get(node, ()), crashes.get(node, ()))
        for node in set(stalls) | set(crashes)
    }

    # Rebuild the engine's LatencyStats: identical floats, identical
    # order (sink services appear in the trace in completion order).
    latency = LatencyStats()
    tuples_out = 0
    total_mass = 0.0
    for event in events:
        if event.type != "batch.serviced":
            continue
        f = event.fields
        if f.get("sink") is None:
            continue
        sample = float(f.get("latency", 0.0))  # type: ignore[arg-type]
        out = int(f.get("out", 0))  # type: ignore[call-overload]
        latency.record(sample, out)
        tuples_out += out
        total_mass += sample * out

    # Sink-tuple weight per span, propagated leafward -> rootward.
    weight: Dict[int, int] = {span_id: 0 for span_id in spans}
    for span_id in sorted(spans, reverse=True):
        record = spans[span_id]
        if record.closed and record.is_sink:
            weight[span_id] += record.out
        parent = record.parent
        if parent is not None and parent in weight:
            weight[parent] += weight[span_id]

    attributed: Dict[Tuple[str, str], float] = {}

    def charge(operator: str, phase: str, seconds: float) -> None:
        if seconds:
            key = (operator, phase)
            attributed[key] = attributed.get(key, 0.0) + seconds

    unclosed = 0
    stranded = 0
    for span_id, record in spans.items():
        if not record.closed:
            unclosed += 1
            stranded += record.count
            continue
        w = weight[span_id]
        if w == 0:
            continue  # no sink tuple descends from this span
        charge(record.operator, "service", w * record.service_seconds)
        wait_start, wait_end = record.open_t, record.start
        if wait_end <= wait_start:
            continue
        node = record.node
        pause = _overlap(wait_start, wait_end, stalls.get(node, ()))
        crash = _overlap(wait_start, wait_end, crashes.get(node, ()))
        crash -= _overlap(wait_start, wait_end,
                          double_counted.get(node, ()))
        # The remainder definition keeps the three wait phases summing
        # to exactly (start - open_t), preserving telescoping.
        remainder = (wait_end - wait_start) - pause - crash
        charge(record.operator, "migration-pause", w * pause)
        charge(record.operator, "stall", w * crash)
        charge(record.operator, "enqueue-wait", w * remainder)

    return CriticalPathAnalysis(
        latency=latency,
        tuples_out=tuples_out,
        attributed=attributed,
        total_latency_seconds=total_mass,
        spans_total=len(spans),
        spans_closed=sum(1 for r in spans.values() if r.closed),
        unclosed_spans=unclosed,
        stranded_tuples=stranded,
        problems=problems,
    )


def _table(rows: Sequence[Sequence[str]]) -> List[str]:
    """Aligned text table with a rule under the header row."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths).rstrip())
    return lines


def render_critical_path_report(
    analysis: CriticalPathAnalysis, top_k: int = 5
) -> str:
    """The ``repro-rod explain`` text view: phases, then top operators."""
    mean = analysis.latency.mean()
    weight = analysis.latency.total_tuples
    parts = [
        f"critical path: {analysis.tuples_out} sink tuples over "
        f"{analysis.spans_total} spans "
        f"({analysis.spans_closed} closed), "
        f"mean end-to-end latency {mean * 1e3:.3f}ms",
        f"attributed {analysis.attributed_ratio:.4%} of the latency "
        "mass to (operator, phase) pairs",
        "",
        "phase breakdown (mean per sink tuple):",
    ]
    phase_totals = analysis.phase_totals()
    attributed = analysis.attributed_seconds
    rows = [("phase", "mean", "share")]
    for phase in PHASES:
        total = phase_totals[phase]
        rows.append((
            phase,
            f"{(total / weight if weight else 0.0) * 1e3:.3f}ms",
            f"{(total / attributed if attributed else 0.0):.1%}",
        ))
    parts.extend(_table(rows))
    parts.append("")
    parts.append(f"top {top_k} critical operators:")
    op_rows = [("operator", "mean", "share") + PHASES]
    for name, seconds in analysis.top_operators(top_k):
        op_rows.append((
            name,
            f"{(seconds / weight if weight else 0.0) * 1e3:.3f}ms",
            f"{(seconds / attributed if attributed else 0.0):.1%}",
        ) + tuple(
            f"{analysis.mean_seconds(name, phase) * 1e3:.3f}ms"
            for phase in PHASES
        ))
    parts.extend(_table(op_rows))
    if analysis.unclosed_spans:
        parts.append("")
        parts.append(
            f"{analysis.unclosed_spans} span(s) never closed "
            f"({analysis.stranded_tuples} stranded tuple(s) — work lost "
            "to crashed nodes with no failover)"
        )
    if analysis.problems:
        parts.append("")
        parts.append(f"lineage problems ({len(analysis.problems)}):")
        parts.extend(f"  {problem}" for problem in analysis.problems)
    return "\n".join(parts)
