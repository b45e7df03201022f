"""Structured event tracing: event records, sinks, JSONL round-trip.

A :class:`Tracer` turns each instrumentation point into one record, a
plain ``dict`` that is also the event's JSONL line, and hands it to a
sink: :class:`JsonlSink` encodes it, :class:`MemorySink` keeps it, and
:func:`read_trace` gives the same dicts back.  The default sink is
:data:`NULL_SINK`, whose tracer reports ``enabled = False`` — hot paths
guard on that flag, so with tracing off **no record is ever built**
(verified by the null-sink test).

Events carry two clocks:

* ``t`` — simulated seconds since the start of the run (``None`` for
  events outside a simulation, e.g. placement-search iterations);
* ``wall`` — wall-clock epoch seconds at emission.

A record holds the reserved keys ``type`` / ``t`` / ``wall``, in that
order, then the event's free-form fields, which are its other keys; the
JSONL wire format is one record per line, e.g.::

    {"type": "batch.serviced", "t": 1.25, "wall": 1754..., "node": 0,
     "operator": "agg1", "count": 12, "out": 3, "work": 0.006}

``read_trace`` parses a file back into records; the schema is
documented in ``docs/observability.md``.  A trace no run can have
written raises :class:`TraceFormatError`.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from . import schema

__all__ = [
    "EVENT_TYPES",
    "TraceFormatError",
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


class TraceFormatError(ValueError):
    """A trace no run can have written: a malformed line, or an event
    the trace's own structure rules out (see :mod:`repro.obs.index`)."""


class TraceSink:
    """Destination for trace records.  Subclasses override ``write``."""

    #: Tracers wrapping this sink build and forward records iff True.
    enabled = True

    def write(self, event: Dict[str, Any]) -> None:
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

    def write(self, event: Dict[str, Any]) -> None:  # pragma: no cover
        pass


class MemorySink(TraceSink):
    """Collects records in a list — the test/inspection sink.

    With a ``forward`` sink, each record is written there first and kept
    once that write has succeeded, so a run can stream its trace to a
    file and analyze the same records afterwards without reading the
    file back; closing this sink closes ``forward``.
    """

    def __init__(self, forward: Optional[TraceSink] = None) -> None:
        self.events: List[Dict[str, Any]] = []
        self.forward = forward

    def write(self, event: Dict[str, Any]) -> None:
        if self.forward is not None:
            self.forward.write(event)
        self.events.append(event)

    def close(self) -> None:
        if self.forward is not None:
            self.forward.close()


class JsonlSink(TraceSink):
    """Writes records as JSON lines to a path or text handle."""

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

    def write(self, event: Dict[str, Any]) -> None:
        # Encode before writing: a field that fails to serialize leaves
        # no partial line behind for the next event to run into.
        line_of = _LINES.get(tuple(event))
        line = None if line_of is None else line_of(*event.values())
        self._handle.write(_encode_line(event) + "\n" if line is None
                           else line)
        self.events_written += 1

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()
        elif not self._handle.closed:
            self._handle.flush()


def _jsonable(value: object) -> object:
    """Fallback serializer for trace lines and run artifacts: numpy
    scalars/arrays -> python numbers/lists."""
    # tolist before item: arrays only support the former, scalars both.
    for attr in ("tolist", "item"):
        convert = getattr(value, attr, None)
        if callable(convert):
            return convert()
    raise TypeError(
        f"field of type {type(value).__name__} is not JSON-serializable"
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


#: The C encoder's own string escaper, for the direct formats below.
_escape = json.encoder.encode_basestring_ascii
_INF = float("inf")


# Direct formats for the engine's per-batch records, 99.8% of a
# simulation's trace.  Each returns the line ``_encode_line`` would
# write or, for a value it does not format, None: the encoder takes that
# record.  Like the encoder, they write finite floats by
# ``float.__repr__``, ints by ``int.__repr__`` and strings by the
# encoder's escaper, but only exact ``float``, ``int`` (not ``bool``)
# and ``str`` values.

def _node_line(type_: Any, t: Any, wall: Any, node: Any) -> Optional[str]:
    if not (type(type_) is str and type(node) is int
            and type(t) is type(wall) is float
            and -_INF < t < _INF and -_INF < wall < _INF):
        return None
    return (f'{{"type":{_escape(type_)},"t":{t!r},"wall":{wall!r},'
            f'"node":{node}}}\n')


def _enqueued_line(type_: Any, t: Any, wall: Any, node: Any, operator: Any,
                   port: Any, count: Any, span: Any, birth: Any,
                   *parent: Any) -> Optional[str]:
    if not (type(type_) is type(operator) is str
            and type(node) is type(port) is type(count) is type(span) is int
            and type(t) is type(wall) is type(birth) is float
            and -_INF < t < _INF and -_INF < wall < _INF
            and -_INF < birth < _INF
            and (not parent or type(parent[0]) is int)):
        return None
    return (f'{{"type":{_escape(type_)},"t":{t!r},"wall":{wall!r},'
            f'"node":{node},"operator":{_escape(operator)},"port":{port},'
            f'"count":{count},"span":{span},"birth":{birth!r}'
            + (f',"parent":{parent[0]}}}\n' if parent else "}\n"))


def _serviced_line(type_: Any, t: Any, wall: Any, node: Any, operator: Any,
                   port: Any, count: Any, out: Any, work: Any, span: Any,
                   start: Any, *sink: Any) -> Optional[str]:
    if not (type(type_) is type(operator) is str
            and type(node) is type(port) is type(count) is type(out)
            is type(span) is int
            and type(t) is type(wall) is type(work) is type(start) is float
            and -_INF < t < _INF and -_INF < wall < _INF
            and -_INF < work < _INF and -_INF < start < _INF
            and (not sink or type(sink[0]) is str
                 and type(sink[1]) is float and -_INF < sink[1] < _INF)):
        return None
    return (f'{{"type":{_escape(type_)},"t":{t!r},"wall":{wall!r},'
            f'"node":{node},"operator":{_escape(operator)},"port":{port},'
            f'"count":{count},"out":{out},"work":{work!r},"span":{span},'
            f'"start":{start!r}'
            + (f',"sink":{_escape(sink[0])},"latency":{sink[1]!r}}}\n'
               if sink else "}\n"))


_ENQUEUED = ("type", "t", "wall", "node", "operator", "port", "count",
             "span", "birth")
_SERVICED = ("type", "t", "wall", "node", "operator", "port", "count",
             "out", "work", "span", "start")
#: Key tuple -> direct format; ``node.busy`` and ``node.idle`` share one.
_LINES = {
    ("type", "t", "wall", "node"): _node_line,
    _ENQUEUED: _enqueued_line,
    _ENQUEUED + ("parent",): _enqueued_line,
    _SERVICED: _serviced_line,
    _SERVICED + ("sink", "latency"): _serviced_line,
}


NULL_SINK = NullSink()


class Tracer:
    """Front end the instrumented code talks to.

    Hot paths should hoist ``tracer.enabled`` into a local and guard each
    ``emit`` call on it; ``emit`` itself also guards, so a stray
    unguarded call on a disabled tracer costs one attribute check and
    allocates nothing.  A hot path that builds its own records hands
    them to ``write``, stamping ``wall`` from ``clock``, and builds them
    only while ``enabled``.
    """

    __slots__ = ("sink", "enabled", "validate", "events_emitted", "clock")

    def __init__(
        self, sink: Optional[TraceSink] = None, validate: bool = False
    ) -> None:
        self.sink = NULL_SINK if sink is None else sink
        self.enabled = bool(getattr(self.sink, "enabled", True))
        self.validate = validate
        self.events_emitted = 0
        #: The wall clock every record of this tracer is stamped from,
        #: this module's ``time.time`` when the tracer was built.
        self.clock = time.time

    def emit(
        self, type_: str, t: Optional[float] = None, **fields: object
    ) -> None:
        """Record one event (no-op when the sink is disabled)."""
        if not self.enabled:
            return
        record = {"type": type_, "t": t, "wall": self.clock(), **fields}
        # A field named like a reserved key replaced it, so the record
        # came out short of one key per field.
        if len(record) != len(fields) + 3:
            bad = sorted(_RESERVED_KEYS.intersection(fields))
            raise ValueError(
                f"trace fields {bad} collide with reserved keys"
            )
        if self.validate:
            schema.validate_event(type_, fields)
        self.sink.write(record)
        self.events_emitted += 1

    def write(self, record: Dict[str, Any]) -> None:
        """Record one finished event: ``record`` starts with the keys
        ``type``, ``t`` and ``wall``, in that order, and holds the
        event's fields after them, as ``emit`` would have built it."""
        if self.validate:
            fields = {key: value for key, value in record.items()
                      if key not in _RESERVED_KEYS}
            schema.validate_event(record["type"], fields)
        self.sink.write(record)
        self.events_emitted += 1

    def close(self) -> None:
        self.sink.close()


NULL_TRACER = Tracer()


def _checked(record: Any) -> Dict[str, Any]:
    """``record`` as a trace record: a JSON object with a ``type`` key,
    coerced in place to a ``str`` ``type``, a ``t`` that is ``None`` or
    a ``float`` and, when present, a ``float`` ``wall``."""
    if type(record) is not dict:
        raise ValueError("trace line is not a JSON object")
    if "type" not in record:
        raise ValueError("trace record lacks a 'type' key")
    if type(record["type"]) is not str:
        record["type"] = str(record["type"])
    key = "t"
    try:
        t = record.get("t")
        if type(t) is not float:
            record["t"] = None if t is None else float(t)
        key = "wall"
        if "wall" in record and type(record["wall"]) is not float:
            record["wall"] = float(record["wall"])
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"trace record's {key!r} is not a float: {exc}") from None
    return record


def parse_trace_line(line: str) -> Dict[str, Any]:
    """Parse one JSONL line into a trace record."""
    return _checked(json.loads(line))


def trace_digest(events: Iterable[Mapping[str, Any]]) -> str:
    """Content digest of a trace, ignoring wall-clock timestamps.

    Two runs of the same seeded simulation must hash identically even
    though their ``wall`` fields differ — this is the determinism gate
    the fault-injection CI job diffs.  The digest covers each event's
    type, simulated time, and fields (keys sorted), in emission order.
    """
    hasher = hashlib.sha256()
    for event in events:
        fields = dict(event)
        fields.pop("wall", None)
        record = {"type": fields.pop("type"), "t": fields.pop("t"),
                  "fields": fields}
        hasher.update(_encode_sorted(record).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def read_trace(source: Union[str, Iterable[str]]) -> List[Dict[str, Any]]:
    """Read a JSONL trace file (or iterable of lines) into records.

    Blank lines are skipped; malformed lines raise
    :class:`TraceFormatError` with their line number.  The non-blank
    lines are joined and decoded in one call, so records share their
    key strings, and the line list is dropped before that call: while
    it runs, only the joined text and the records are alive.  The
    result is accepted when it holds one valid record per line;
    otherwise the lines are split back out of the text and parsed one
    by one to name the first malformed one.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            return read_trace(handle)
    lines = [line.strip() for line in source]
    count = len(lines) - lines.count("")
    blank = set() if count == len(lines) else {
        number for number, line in enumerate(lines, start=1) if not line
    }
    # Newline separators keep a string from spanning two lines: JSON
    # strings may not hold a raw newline, so no line holds one either.
    text = "[" + ",\n".join(filter(None, lines)) + "]"
    del lines
    try:
        records = json.loads(text)
    except ValueError:
        records = None
    if records is not None and len(records) == count:
        try:
            for record in records:
                _checked(record)
            return records
        except ValueError:
            pass
    del records
    pieces = iter(text[1:-1].split(",\n"))
    for number in range(1, count + len(blank) + 1):
        if number not in blank:
            try:
                parse_trace_line(next(pieces))
            except ValueError as exc:
                raise TraceFormatError(f"line {number}: {exc}") from exc
    raise AssertionError("trace lines decode one by one but not together")
