"""The read side of the trace format: one pass, shared typed views.

A :class:`RunIndex` walks a trace's events once and files them, in
trace order, into three lists: the *queue* events (batches enqueued and
serviced, plus the migration stalls nodes serve), the node busy/idle
*transitions*, and the few *control* events left (the ``sim.start``
header, faults, decisions, migrations, drift detections, ...).  A stall
is filed twice: it is served work, ordered among the batches, and a
control event that ties a pause to its decision.

Every reader builds on the typed views the index derives from those
lists on first use and keeps: the run geometry, sink samples, served
work in trace order, the span forest, stall intervals, crash windows,
faults, migrations, decision records and drift detections.  A reader
never pays for a view it does not ask for, and a command that runs
several readers builds each view once.  This module is the only code
in the package that tells events apart by type.

Readers take either an event list or an index (:func:`as_index`), so
one-off calls keep working on plain lists.  Sums that depend on order
(per-node busy seconds, timeline bins, latency samples, queue depth)
still add in trace order, so every analyzer reconciles bit for bit
with the engine's result.

An event is a trace record (:mod:`repro.obs.trace`): a plain ``dict``
holding ``type`` and ``t`` (and usually ``wall``), whose other keys are
its fields, which the views read by key.

A trace no run can have written raises
:class:`~repro.obs.trace.TraceFormatError` naming the culprit: a span
opened twice, closed twice or closed without an open, an event on a
node the ``sim.start`` header does not declare, or a field a view reads
that is missing or holds no number.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple
from typing import Union

from .trace import _RESERVED_KEYS, TraceFormatError

__all__ = [
    "DecisionView",
    "FaultRecord",
    "MigrationExplanation",
    "RunIndex",
    "SpanRecord",
    "as_index",
    "filter_events",
]

Interval = Tuple[float, float]


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


@dataclass(frozen=True)
class FaultRecord:
    """One injected (or reverted) fault event."""

    t: float
    kind: str
    node: Optional[int] = None
    operator: Optional[str] = None
    factor: Optional[float] = None
    duration: Optional[float] = None
    reverted: bool = False


@dataclass(frozen=True)
class DecisionView:
    """One ``decision.evaluated`` event read back from a trace."""

    decision: int
    t: float
    trigger: str
    controller: str
    reason: str
    actions: int
    loads: Sequence[float]
    candidates: Sequence[Mapping[str, object]]
    node: Optional[int] = None
    volume_before: Optional[float] = None
    volume_after: Optional[float] = None
    burn_rate: Optional[float] = None

    @property
    def chosen(self) -> List[Mapping[str, object]]:
        return [c for c in self.candidates if c.get("status") == "chosen"]

    @property
    def rejected(self) -> List[Mapping[str, object]]:
        return [c for c in self.candidates if c.get("status") != "chosen"]


@dataclass(frozen=True)
class MigrationExplanation:
    """One applied migration tied back to the decision that caused it."""

    t: float
    operator: str
    source: int
    target: int
    pause: float
    reason: str                       # "balance" | "failover"
    decision: Optional[DecisionView]  # None when unlinked (old trace)
    pause_served: float = 0.0         # stall seconds attributed via trace


def _clock(event: Mapping[str, Any]) -> float:
    return 0.0 if event["t"] is None else float(event["t"])


def _opt(kind: Any, value: Any) -> Any:
    return None if value is None else kind(value)


#: What reading an event's field can raise: it is missing, or it holds
#: no number.  Each view catches these around its whole loop.
_UNREADABLE = (KeyError, TypeError, ValueError, OverflowError)

#: The numeric fields the views read, and how they convert them.
_NUMBERS: Dict[str, Any] = {
    **dict.fromkeys(("nodes", "node", "span", "parent", "port", "count",
                     "out", "decision", "actions", "source", "target"), int),
    **dict.fromkeys(("step_seconds", "horizon", "work", "start", "birth",
                     "latency", "pause", "factor", "duration"), float),
}


def _unreadable(event: Mapping[str, Any], exc: Exception) -> ValueError:
    """The error for a view that could not read ``event``: it names the
    missing field, or else the first numeric field holding no number.
    A :class:`TraceFormatError` the view raised itself passes through."""
    if isinstance(exc, TraceFormatError):
        return exc
    where = f"{event.get('type')} at t={event.get('t')}"
    if isinstance(exc, KeyError):
        return TraceFormatError(f"{where} has no {exc.args[0]!r} field")
    for name, value in event.items():
        kind = _NUMBERS.get(name)
        if kind is not None:
            try:
                kind(value)
            except _UNREADABLE:
                return TraceFormatError(
                    f"{where} has a {name!r} that is not a number: {value!r}"
                )
    return TraceFormatError(f"{where} has a field that cannot be read: {exc}")


class RunIndex:
    """One pass over a trace's events, and the views built from it.

    ``meta`` overrides the run geometry; pass the full trace's
    :attr:`meta` when indexing a filtered subset that may have lost its
    ``sim.start`` header.
    """

    def __init__(
        self,
        events: Sequence[Mapping[str, Any]],
        meta: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.events = events
        queue: List[Mapping[str, Any]] = []
        transitions: List[Mapping[str, Any]] = []
        control: List[Mapping[str, Any]] = []
        serviced = busy = 0  # tallied here, so type_counts needs no walk
        for event in events:
            kind = event["type"]
            if kind == "batch.serviced":
                queue.append(event)
                serviced += 1
            elif kind == "batch.enqueued":
                queue.append(event)
            elif kind == "node.busy":
                transitions.append(event)
                busy += 1
            elif kind == "node.idle":
                transitions.append(event)
            else:
                control.append(event)
                if kind == "node.stall":
                    queue.append(event)
        self._queue = queue
        self._transitions = transitions
        self._control = control
        self._serviced = serviced
        self._busy = busy
        if meta is not None:
            self.meta = dict(meta)

    def _of_type(self, *kinds: str) -> List[Mapping[str, Any]]:
        """The control events of the given types, in trace order."""
        return [event for event in self._control if event["type"] in kinds]

    # ------------------------------------------------------------ geometry

    @cached_property
    def meta(self) -> Dict[str, Any]:
        """Run geometry from the ``sim.start`` header, inferred if absent.

        Holds ``nodes``, ``step_seconds``, ``horizon`` and
        ``capacities``.  Traces written by this package always carry
        the header; the fallback, which walks the events a second time,
        lets hand-built event lists render too.
        """
        try:
            for event in self._of_type("sim.start"):
                nodes = int(event.get("nodes", 1))
                capacities = [float(c) for c in event.get("capacities", ())]
                # A short or missing list would mis-scale every node
                # past it.
                capacities.extend([1.0] * (nodes - len(capacities)))
                return {
                    "nodes": nodes,
                    "step_seconds": float(event.get("step_seconds", 0.1)),
                    "horizon": float(event.get("horizon", 0.0)),
                    "capacities": capacities,
                }
            nodes = 0
            last_t = 0.0
            for event in self.events:
                node = event.get("node")
                if node is not None:
                    nodes = max(nodes, int(node) + 1)
                if event["t"] is not None:
                    last_t = max(last_t, float(event["t"]))
        except _UNREADABLE as exc:
            raise _unreadable(event, exc) from None
        nodes = max(nodes, 1)
        return {
            "nodes": nodes,
            "step_seconds": 0.1,
            "horizon": last_t,
            "capacities": [1.0] * nodes,
        }

    @cached_property
    def _nodes(self) -> int:
        return int(self.meta["nodes"])

    def _node(self, event: Mapping[str, Any]) -> int:
        """The event's ``node``, checked against the run geometry (the
        caller's loop turns a missing or non-numeric one into a
        :class:`TraceFormatError`)."""
        node = int(event["node"])
        if not 0 <= node < self._nodes:
            raise TraceFormatError(
                f"{event['type']} at t={event['t']} names node {node}, "
                f"but the trace declares {self._nodes} node(s)"
            )
        return node

    @cached_property
    def type_counts(self) -> Dict[str, int]:
        """Events per type: the pass's tallies plus the control events."""
        counts = Counter(event["type"] for event in self._control)
        counts["batch.serviced"] = self._serviced
        counts["batch.enqueued"] = (
            len(self._queue) - self._serviced - counts["node.stall"]
        )
        counts["node.busy"] = self._busy
        counts["node.idle"] = len(self._transitions) - self._busy
        return {kind: count for kind, count in counts.items() if count}

    # ----------------------------------------------------------- the queue

    @cached_property
    def work(self) -> List[Tuple[Optional[float], int, float,
                                 Optional[str], int, int]]:
        """Served work in trace order: ``(t, node, work, operator,
        count, out)`` per batch service and ``(t, node, work, None, 0,
        0)`` per migration stall."""
        served = []
        try:
            for event in self._queue:
                kind = event["type"]
                if kind == "batch.enqueued":
                    continue
                work = float(event.get("work", 0.0))
                if kind == "node.stall":
                    served.append(
                        (event["t"], self._node(event), work, None, 0, 0)
                    )
                else:
                    served.append((
                        event["t"], self._node(event), work,
                        str(event.get("operator", "?")),
                        int(event.get("count", 0)), int(event.get("out", 0)),
                    ))
        except _UNREADABLE as exc:
            raise _unreadable(event, exc) from None
        return served

    @cached_property
    def sink_samples(self) -> List[Tuple[Optional[float], float, int, str]]:
        """``(t, latency, out, sink)`` per sink completion, in trace
        order: the samples the engine recorded, in the order it did."""
        samples = []
        try:
            for event in self._queue:
                if event["type"] != "batch.serviced":
                    continue
                sink = event.get("sink")
                if sink is None:
                    continue
                samples.append((
                    None if event["t"] is None else float(event["t"]),
                    float(event.get("latency", 0.0)),
                    int(event.get("out", 0)), str(sink),
                ))
        except _UNREADABLE as exc:
            raise _unreadable(event, exc) from None
        return samples

    @cached_property
    def queues(self) -> List[Tuple[int, int]]:
        """Per node: batches enqueued, and the peak number outstanding
        (queued or in service) as the batch events come in trace order."""
        enqueued = [0] * self._nodes
        outstanding = [0] * self._nodes
        peak = [0] * self._nodes
        try:
            for event in self._queue:
                kind = event["type"]
                if kind == "node.stall":
                    continue
                node = self._node(event)
                if kind == "batch.enqueued":
                    enqueued[node] += 1
                    outstanding[node] += 1
                    if outstanding[node] > peak[node]:
                        peak[node] = outstanding[node]
                elif outstanding[node]:
                    outstanding[node] -= 1
        except _UNREADABLE as exc:
            raise _unreadable(event, exc) from None
        return list(zip(enqueued, peak))

    @cached_property
    def idle_transitions(self) -> List[int]:
        """Per node: busy -> idle transitions."""
        counts = [0] * self._nodes
        try:
            for event in self._transitions:
                if event["type"] == "node.idle":
                    counts[self._node(event)] += 1
        except _UNREADABLE as exc:
            raise _unreadable(event, exc) from None
        return counts

    @cached_property
    def spans(self) -> Dict[int, SpanRecord]:
        """The span forest, keyed by span id in ascending (creation)
        order, so analyzers accumulating over it add in one order.

        Batch events without a ``span`` field (a trace recorded before
        batch events carried spans) are skipped, so such a trace reads
        as span-less.  Lineage problems (orphan parents, id-order
        violations) are left to :func:`repro.obs.spans.validate_span_dag`.
        """
        spans: Dict[int, SpanRecord] = {}
        try:
            for event in self._queue:
                if "span" not in event:
                    continue
                span_id = int(event["span"])
                kind = event["type"]
                t = event["t"]
                if kind == "batch.enqueued":
                    if span_id in spans:
                        raise TraceFormatError(f"span {span_id} opened twice")
                    parent = event.get("parent")
                    spans[span_id] = SpanRecord(
                        span=span_id,
                        operator=str(event["operator"]),
                        port=int(event["port"]),
                        count=int(event["count"]),
                        birth=float(event["birth"]),
                        open_t=0.0 if t is None else float(t),
                        parent=None if parent is None else int(parent),
                    )
                elif kind == "batch.serviced":
                    record = spans.get(span_id)
                    if record is None:
                        raise TraceFormatError(
                            f"span {span_id} closed without an open"
                        )
                    if record.closed:
                        raise TraceFormatError(f"span {span_id} closed twice")
                    record.closed = True
                    record.node = int(event["node"])
                    record.start = float(event["start"])
                    record.end = 0.0 if t is None else float(t)
                    record.work = float(event["work"])
                    record.out = int(event["out"])
                    sink = event.get("sink")
                    record.sink = None if sink is None else str(sink)
                    latency = event.get("latency")
                    record.latency = (
                        None if latency is None else float(latency)
                    )
        except _UNREADABLE as exc:
            raise _unreadable(event, exc) from None
        return dict(sorted(spans.items()))

    # --------------------------------------------------------- control side

    @cached_property
    def stall_intervals(self) -> Dict[int, List[Interval]]:
        """Per node, the ``[start, end]`` windows of served migration
        stalls (stalls of a trace without interval bounds are left out)."""
        intervals: Dict[int, List[Interval]] = {}
        try:
            for event in self._of_type("node.stall"):
                if event.get("start") is None or event["t"] is None:
                    continue
                intervals.setdefault(int(event["node"]), []).append(
                    (float(event["start"]), float(event["t"]))
                )
        except _UNREADABLE as exc:
            raise _unreadable(event, exc) from None
        return intervals

    @cached_property
    def faults(self) -> List[FaultRecord]:
        """Injected and reverted faults, in trace order."""
        faults = []
        try:
            for event in self._of_type("fault.injected", "fault.reverted"):
                faults.append(FaultRecord(
                    t=_clock(event),
                    kind=str(event.get("kind", "?")),
                    node=_opt(int, event.get("node")),
                    operator=_opt(str, event.get("operator")),
                    factor=_opt(float, event.get("factor")),
                    duration=_opt(float, event.get("duration")),
                    reverted=event["type"] == "fault.reverted",
                ))
        except _UNREADABLE as exc:
            raise _unreadable(event, exc) from None
        return faults

    @cached_property
    def crash_windows(self) -> Dict[int, List[Interval]]:
        """Per node, its ``[crash, recover)`` windows; a node that never
        recovers stays down to the end of the run."""
        windows: Dict[int, List[Interval]] = {}
        open_at: Dict[int, float] = {}
        for fault in self.faults:
            if fault.reverted or fault.node is None:
                continue
            if fault.kind == "node.crash":
                open_at[fault.node] = fault.t
            elif fault.kind == "node.recover":
                crashed = open_at.pop(fault.node, None)
                if crashed is not None:
                    windows.setdefault(fault.node, []).append(
                        (crashed, fault.t)
                    )
        for node, crashed in open_at.items():
            windows.setdefault(node, []).append((crashed, math.inf))
        return windows

    @cached_property
    def decisions(self) -> List[DecisionView]:
        """Every controller deliberation, in trace order."""
        views = []
        try:
            for event in self._of_type("decision.evaluated"):
                views.append(DecisionView(
                    decision=int(event["decision"]),
                    t=_clock(event),
                    trigger=str(event["trigger"]),
                    controller=str(event["controller"]),
                    reason=str(event["reason"]),
                    actions=int(event["actions"]),
                    loads=list(event.get("loads", ())),
                    candidates=list(event.get("candidates", ())),
                    node=event.get("node"),
                    volume_before=event.get("volume_before"),
                    volume_after=event.get("volume_after"),
                    burn_rate=event.get("burn_rate"),
                ))
        except _UNREADABLE as exc:
            raise _unreadable(event, exc) from None
        return views

    @cached_property
    def migrations(self) -> List[MigrationExplanation]:
        """Applied migrations in trace order, each tied to its decision.

        A decision's stall seconds (``node.stall`` events carrying its
        id) are split evenly across its migrations, since one decision
        can issue several moves that share the stalls.
        """
        stall_seconds: Dict[int, float] = {}
        moves: Dict[int, int] = {}
        by_id = {view.decision: view for view in self.decisions}
        explanations = []
        try:
            for event in self._of_type("node.stall", "migration.applied"):
                if event.get("decision") is None:
                    continue
                did = int(event["decision"])
                if event["type"] == "migration.applied":
                    moves[did] = moves.get(did, 0) + 1
                else:
                    stall_seconds[did] = (
                        stall_seconds.get(did, 0.0)
                        + float(event.get("work", 0.0))
                    )
            for event in self._of_type("migration.applied"):
                decision = event.get("decision")
                did = None if decision is None else int(decision)
                explanations.append(MigrationExplanation(
                    t=_clock(event),
                    operator=str(event.get("operator", "?")),
                    source=int(event.get("source", -1)),
                    target=int(event.get("target", -1)),
                    pause=float(event.get("pause", 0.0)),
                    reason=str(event.get("reason", "?")),
                    decision=None if did is None else by_id.get(did),
                    pause_served=0.0 if did is None else (
                        stall_seconds.get(did, 0.0)
                        / max(1, moves.get(did, 1))
                    ),
                ))
        except _UNREADABLE as exc:
            raise _unreadable(event, exc) from None
        return explanations

    @cached_property
    def drift(self) -> List[Dict[str, object]]:
        """Drift detections: each ``drift.detected`` event's fields
        plus its ``t``."""
        return [
            dict(((key, value) for key, value in event.items()
                  if key not in _RESERVED_KEYS), t=event["t"])
            for event in self._of_type("drift.detected")
        ]


Trace = Union[Sequence[Mapping[str, Any]], RunIndex]


def as_index(trace: Trace) -> RunIndex:
    """``trace`` itself when it is already indexed, else its index."""
    return trace if isinstance(trace, RunIndex) else RunIndex(trace)


def filter_events(
    events: Sequence[Mapping[str, Any]],
    types: Optional[Sequence[str]] = None,
    nodes: Optional[Sequence[int]] = None,
    since: Optional[float] = None,
    spans: Optional[Sequence[int]] = None,
    operators: Optional[Sequence[str]] = None,
) -> List[Mapping[str, Any]]:
    """Subset of ``events`` matching every given filter.

    ``types`` keeps only the listed event types; ``nodes`` keeps only
    events carrying a ``node`` field with one of the listed indices
    (events without a node field — migrations, phases, headers — are
    dropped when a node filter is active); ``since`` keeps events whose
    simulated time is ``>= since`` (events with no sim clock, ``t is
    None``, are kept — they have no position in the window).

    ``spans`` and ``operators`` follow the node-filter convention:
    ``spans`` keeps only events carrying a ``span`` field with one of
    the listed ids (pass a lineage closure from
    :func:`repro.obs.spans.span_lineage` to pull one batch's history);
    ``operators`` keeps only events whose ``operator`` field matches.
    Events lacking the filtered field are dropped while that filter is
    active.
    """
    type_set = None if types is None else frozenset(types)
    node_set = None if nodes is None else frozenset(int(n) for n in nodes)
    span_set = None if spans is None else frozenset(int(s) for s in spans)
    operator_set = (
        None if operators is None else frozenset(str(o) for o in operators)
    )
    kept = []
    try:
        for event in events:
            if type_set is not None and event["type"] not in type_set:
                continue
            if node_set is not None:
                node = event.get("node")
                if node is None or int(node) not in node_set:
                    continue
            if span_set is not None:
                span = event.get("span")
                if span is None or int(span) not in span_set:
                    continue
            if operator_set is not None:
                operator = event.get("operator")
                if operator is None or str(operator) not in operator_set:
                    continue
            t = event["t"]
            if since is not None and t is not None and float(t) < since:
                continue
            kept.append(event)
    except _UNREADABLE as exc:
        raise _unreadable(event, exc) from None
    return kept
