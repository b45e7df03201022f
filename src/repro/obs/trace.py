"""Structured event tracing: typed events, sinks, JSONL round-trip.

A :class:`Tracer` turns instrumentation points into
:class:`TraceEvent` records and hands them to a sink.  The default sink
is :data:`NULL_SINK`, whose tracer reports ``enabled = False`` — hot
paths guard on that flag, so with tracing off **no event object is ever
allocated** (verified by the null-sink test).

Events carry two clocks:

* ``t`` — simulated seconds since the start of the run (``None`` for
  events outside a simulation, e.g. placement-search iterations);
* ``wall`` — wall-clock epoch seconds at emission.

The JSONL wire format is one object per line with the reserved keys
``type`` / ``t`` / ``wall`` plus the event's free-form fields, e.g.::

    {"type": "batch.serviced", "t": 1.25, "wall": 1754..., "node": 0,
     "operator": "agg1", "count": 12, "out": 3, "work": 0.006}

``read_trace`` parses a file back into events; the schema is documented
in ``docs/observability.md``.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Union

from . import schema

__all__ = [
    "EVENT_TYPES",
    "TraceEvent",
    "TraceSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "Tracer",
    "NULL_SINK",
    "NULL_TRACER",
    "read_trace",
    "parse_trace_line",
    "trace_digest",
]

#: Event types the built-in instrumentation emits, derived from the
#: observability schema registry (:mod:`repro.obs.schema`) — one source
#: of truth shared by the emitters and the analyzers.  ``Tracer.emit``
#: accepts any dotted name unless constructed with ``validate=True``.
EVENT_TYPES = schema.event_types()

_RESERVED_KEYS = frozenset({"type", "t", "wall"})


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record."""

    type: str
    t: Optional[float]
    wall: float
    fields: Mapping[str, object] = field(default_factory=dict)

    def to_json_obj(self) -> Dict[str, object]:
        obj: Dict[str, object] = {"type": self.type, "t": self.t,
                                  "wall": self.wall}
        obj.update(self.fields)
        return obj

    @classmethod
    def from_json_obj(cls, obj: Mapping[str, object]) -> "TraceEvent":
        if "type" not in obj:
            raise ValueError("trace record lacks a 'type' key")
        return cls._from_record(dict(obj))

    @classmethod
    def _from_record(cls, data: Dict[str, object]) -> "TraceEvent":
        """Build from a decoded record that has a ``type`` key, taking
        ownership of ``data``: the reserved keys are popped and the rest
        become ``fields`` without a copy."""
        type_ = str(data.pop("type"))
        t = data.pop("t", None)
        wall = data.pop("wall", 0.0)
        try:
            t = None if t is None else float(t)
            wall = float(wall)
        except (TypeError, OverflowError) as exc:
            # ``t`` is still unconverted iff its conversion failed.
            key = "wall" if t is None or isinstance(t, float) else "t"
            raise ValueError(
                f"trace record's {key!r} is not a float: {exc}"
            ) from None
        return cls(type=type_, t=t, wall=wall, fields=data)


class TraceSink:
    """Destination for trace events.  Subclasses override ``write``."""

    #: Tracers wrapping this sink construct and forward events iff True.
    enabled = True

    def write(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (no-op by default)."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullSink(TraceSink):
    """Discards everything; marks the wrapping tracer disabled."""

    enabled = False

    def write(self, event: TraceEvent) -> None:  # pragma: no cover
        pass


class MemorySink(TraceSink):
    """Collects events in a list — the test/inspection sink.

    With a ``forward`` sink, each event is written there first and kept
    once that write has succeeded, so a run can stream its trace to a
    file and analyze the same events afterwards without reading the
    file back; closing this sink closes ``forward``.
    """

    def __init__(self, forward: Optional[TraceSink] = None) -> None:
        self.events: List[TraceEvent] = []
        self.forward = forward

    def write(self, event: TraceEvent) -> None:
        if self.forward is not None:
            self.forward.write(event)
        self.events.append(event)

    def close(self) -> None:
        if self.forward is not None:
            self.forward.close()


class JsonlSink(TraceSink):
    """Writes events as JSON lines to a path or text handle."""

    def __init__(self, target: Union[str, io.TextIOBase]) -> None:
        if isinstance(target, str):
            self.path: Optional[str] = target
            self._handle = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self.path = getattr(target, "name", None)
            self._handle = target
            self._owns_handle = False
        self.events_written = 0

    def write(self, event: TraceEvent) -> None:
        # Encode before writing: a field that fails to serialize leaves
        # no partial line behind for the next event to run into.
        self._handle.write(_encode_line(event.to_json_obj()) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()
        elif not self._handle.closed:
            self._handle.flush()


def _jsonable(value: object) -> object:
    """Fallback serializer: numpy scalars/arrays -> python numbers/lists."""
    # tolist before item: arrays only support the former, scalars both.
    for attr in ("tolist", "item"):
        convert = getattr(value, attr, None)
        if callable(convert):
            return convert()
    raise TypeError(
        f"trace field of type {type(value).__name__} is not JSON-seriali"
        f"zable"
    )


#: One C-encoder call per trace line; ``json.dump`` would stream the
#: record through the pure-Python encoder instead.
_encode_line = json.JSONEncoder(
    separators=(",", ":"), default=_jsonable
).encode
#: The same for :func:`trace_digest`, with keys sorted at every level.
_encode_sorted = json.JSONEncoder(
    separators=(",", ":"), sort_keys=True, default=_jsonable
).encode


NULL_SINK = NullSink()


class Tracer:
    """Front end the instrumented code talks to.

    Hot paths should hoist ``tracer.enabled`` into a local and guard each
    ``emit`` call on it; ``emit`` itself also guards, so a stray
    unguarded call on a disabled tracer costs one attribute check and
    allocates nothing.
    """

    __slots__ = ("sink", "enabled", "validate", "events_emitted")

    def __init__(
        self, sink: Optional[TraceSink] = None, validate: bool = False
    ) -> None:
        self.sink = NULL_SINK if sink is None else sink
        self.enabled = bool(getattr(self.sink, "enabled", True))
        self.validate = validate
        self.events_emitted = 0

    def emit(
        self, type_: str, t: Optional[float] = None, **fields: object
    ) -> None:
        """Record one event (no-op when the sink is disabled)."""
        if not self.enabled:
            return
        bad = _RESERVED_KEYS.intersection(fields)
        if bad:
            raise ValueError(
                f"trace fields {sorted(bad)} collide with reserved keys"
            )
        if self.validate:
            schema.validate_event(type_, fields)
        self.sink.write(
            TraceEvent(type=type_, t=t, wall=time.time(), fields=fields)
        )
        self.events_emitted += 1

    def close(self) -> None:
        self.sink.close()


NULL_TRACER = Tracer()


def parse_trace_line(line: str) -> TraceEvent:
    """Parse one JSONL line into a :class:`TraceEvent`."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("trace line is not a JSON object")
    return TraceEvent.from_json_obj(obj)


def trace_digest(events: Iterable[TraceEvent]) -> str:
    """Content digest of a trace, ignoring wall-clock timestamps.

    Two runs of the same seeded simulation must hash identically even
    though their ``wall`` fields differ — this is the determinism gate
    the fault-injection CI job diffs.  The digest covers each event's
    type, simulated time, and fields (keys sorted), in emission order.
    """
    hasher = hashlib.sha256()
    for event in events:
        record = {"type": event.type, "t": event.t, "fields": event.fields}
        hasher.update(_encode_sorted(record).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def read_trace(source: Union[str, Iterable[str]]) -> List[TraceEvent]:
    """Read a JSONL trace file (or iterable of lines) into events.

    Blank lines are skipped; malformed lines raise ``ValueError`` with
    their line number.  The non-blank lines are decoded in one call,
    whose result is accepted when it holds one JSON object with a
    ``type`` key per line; otherwise the lines are parsed one by one to
    name the first malformed one.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            return read_trace(handle)
    lines = [line.strip() for line in source]
    records = [line for line in lines if line]
    try:
        # Newline separators keep a string from spanning two lines:
        # JSON strings may not hold a raw newline.
        objs = json.loads("[" + ",\n".join(records) + "]")
    except ValueError:
        objs = None
    if objs is not None and len(objs) == len(records) and all(
        type(obj) is dict and "type" in obj for obj in objs
    ):
        try:
            return [TraceEvent._from_record(obj) for obj in objs]
        except ValueError:
            pass
    for number, line in enumerate(lines, start=1):
        if line:
            try:
                parse_trace_line(line)
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from exc
    raise AssertionError("trace lines decode one by one but not together")
