"""Causal span lineage for simulated tuple batches.

Every batch the simulator creates — a source arrival or a delivery
fanned out from a completed batch — is a *span*: one node of the causal
forest that links each sink tuple back to the source injection it
descends from.  The engine allocates the span id when it creates the
batch, and the batch's two trace events (declared in
:mod:`repro.obs.schema`) carry it:

``batch.enqueued``
    Opens the span when the batch joins its operator's queue, at the
    event timestamp.  Besides the operator/port and tuple count, it
    carries the ``span`` id, the ``birth`` time of the originating
    source tuples and — for delivery batches — the ``parent`` span id
    of the batch whose completion produced it.  Source batches have no
    parent.
``batch.serviced``
    Closes the span at completion.  Carries the serving ``node``, the
    service ``start`` time, the CPU ``work`` charged, the ``out``
    count, and — for sink completions — the ``sink`` stream name plus
    the exact end-to-end ``latency`` the engine recorded into
    ``SimulationResult.latency`` (the same float, so analyzers can
    reconcile bit-for-bit; see :mod:`repro.obs.critical_path`).

Span ids are allocated by a monotonic counter, and a child is always
created by its parent's completion, so ``parent < span`` for every
edge.  That makes the lineage graph trivially acyclic and gives a free
topological order: iterate ids descending to propagate sink weights
rootward.  A span that never closes is a stranded batch — its node
crashed (or drained past the horizon) with no failover to rescue it.

This module reconstructs (:func:`spans_from_trace`), validates
(:func:`validate_span_dag`) and slices (:func:`span_lineage`) the
forest from a recorded trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set

from .trace import TraceEvent

__all__ = [
    "SpanRecord",
    "span_lineage",
    "spans_from_trace",
    "validate_span_dag",
]


@dataclass
class SpanRecord:
    """One reconstructed span: open fields plus close fields if closed."""

    span: int
    operator: str
    port: int
    count: int
    birth: float
    open_t: float
    parent: Optional[int] = None
    # Close-side fields; ``closed`` is False for stranded batches.
    closed: bool = False
    node: int = -1
    start: float = 0.0
    end: float = 0.0
    work: float = 0.0
    out: int = 0
    sink: Optional[str] = None
    latency: Optional[float] = None

    @property
    def is_sink(self) -> bool:
        """True when this span produced sink tuples (terminal output)."""
        return self.sink is not None

    @property
    def wait_seconds(self) -> float:
        """Time spent between arrival and service start (closed spans)."""
        return self.start - self.open_t

    @property
    def service_seconds(self) -> float:
        """Time spent in service on the node (closed spans)."""
        return self.end - self.start


def spans_from_trace(events: Iterable[TraceEvent]) -> Dict[int, SpanRecord]:
    """Rebuild the span forest from trace events, keyed by span id.

    The forest comes back in ascending id order — creation order, not
    the order the batches were enqueued in — so analyzers that
    accumulate over it always add in the same order.  Tolerant of other
    events in the stream, and of batch events without a ``span`` field
    (a trace recorded before batch events carried spans reads as
    span-less); raises ``ValueError`` on structurally impossible traces
    (duplicate opens, close without an open, double close) because no
    analyzer can make sense of those.  Structural *lineage* problems —
    orphan parents, id-order violations — are the province of
    :func:`validate_span_dag`, which reports rather than raises.
    """
    spans: Dict[int, SpanRecord] = {}
    for event in events:
        f = event.fields
        if event.type == "batch.enqueued" and "span" in f:
            span_id = int(f["span"])  # type: ignore[call-overload]
            if span_id in spans:
                raise ValueError(f"span {span_id} opened twice")
            parent = f.get("parent")
            spans[span_id] = SpanRecord(
                span=span_id,
                operator=str(f["operator"]),
                port=int(f["port"]),  # type: ignore[call-overload]
                count=int(f["count"]),  # type: ignore[call-overload]
                birth=float(f["birth"]),  # type: ignore[arg-type]
                open_t=0.0 if event.t is None else float(event.t),
                parent=(
                    None if parent is None
                    else int(parent)  # type: ignore[call-overload]
                ),
            )
        elif event.type == "batch.serviced" and "span" in f:
            span_id = int(f["span"])  # type: ignore[call-overload]
            record = spans.get(span_id)
            if record is None:
                raise ValueError(f"span {span_id} closed without an open")
            if record.closed:
                raise ValueError(f"span {span_id} closed twice")
            record.closed = True
            record.node = int(f["node"])  # type: ignore[call-overload]
            record.start = float(f["start"])  # type: ignore[arg-type]
            record.end = 0.0 if event.t is None else float(event.t)
            record.work = float(f["work"])  # type: ignore[arg-type]
            record.out = int(f["out"])  # type: ignore[call-overload]
            sink = f.get("sink")
            record.sink = None if sink is None else str(sink)
            latency = f.get("latency")
            record.latency = (
                None if latency is None
                else float(latency)  # type: ignore[arg-type]
            )
    return dict(sorted(spans.items()))


def validate_span_dag(spans: Mapping[int, SpanRecord]) -> List[str]:
    """Check lineage well-formedness; return problem descriptions.

    An empty list means the forest is sound: every parent id refers to
    an existing span, every edge points strictly backward in id order
    (``parent < span``, which rules out cycles outright), and every
    closed span has coherent time bounds
    (``open_t <= start <= end``).
    """
    problems: List[str] = []
    for span_id in sorted(spans):
        record = spans[span_id]
        parent = record.parent
        if parent is not None:
            if parent not in spans:
                problems.append(
                    f"span {span_id}: orphan parent {parent} never opened"
                )
            elif parent >= span_id:
                problems.append(
                    f"span {span_id}: parent {parent} does not precede it "
                    "(lineage must point backward in id order)"
                )
        if record.closed:
            if record.start < record.open_t:
                problems.append(
                    f"span {span_id}: service started at {record.start!r} "
                    f"before its arrival at {record.open_t!r}"
                )
            if record.end < record.start:
                problems.append(
                    f"span {span_id}: closed at {record.end!r} before "
                    f"service started at {record.start!r}"
                )
            if record.is_sink and record.latency is None:
                problems.append(
                    f"span {span_id}: sink close carries no latency"
                )
    return problems


def span_lineage(
    spans: Mapping[int, SpanRecord], span_id: int
) -> Set[int]:
    """The full lineage closure of one span: ancestors + descendants.

    Returns the set of span ids on any causal path through ``span_id``
    — the slice ``repro-rod trace --span`` uses to pull one batch's
    history out of a large trace.  Raises ``KeyError`` for unknown ids.
    """
    if span_id not in spans:
        raise KeyError(f"span {span_id} does not appear in the trace")
    children: Dict[int, List[int]] = {}
    for record in spans.values():
        if record.parent is not None:
            children.setdefault(record.parent, []).append(record.span)
    closure = {span_id}
    # Ancestors: walk parent links rootward.
    cursor = spans[span_id].parent
    while cursor is not None and cursor in spans:
        if cursor in closure:  # defensive: cyclic lineage would spin
            break
        closure.add(cursor)
        cursor = spans[cursor].parent
    # Descendants: breadth-first over the child map.
    frontier = [span_id]
    while frontier:
        node = frontier.pop()
        for child in children.get(node, ()):
            if child not in closure:
                closure.add(child)
                frontier.append(child)
    return closure
