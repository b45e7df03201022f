"""Declarative, seeded fault schedules for the simulator.

The paper's resiliency argument is about load you did not predict; this
module extends the reproduction to *system* behaviour you did not
predict.  A :class:`FaultSchedule` is an ordered list of timed
:class:`FaultEvent` records the simulator engine applies at event-queue
priority, ahead of controller polls at the same timestamp:

* ``node.crash`` — the node fail-stops: it finishes its in-flight batch
  (fail-stop at batch granularity) and then serves nothing until a
  matching ``node.recover``.  Operators assigned to it strand their
  queued work unless a failover controller reassigns them.
* ``node.recover`` — the node rejoins and resumes serving its queue.
* ``node.degrade`` — brownout: the node's capacity is multiplied by
  ``factor`` (< 1 slows it down) for ``duration`` seconds, or until the
  end of the run when ``duration`` is omitted.
* ``operator.slowdown`` — the named operator's per-batch CPU cost is
  multiplied by ``factor`` for ``duration`` seconds (hot key, GC storm,
  poison input).
* ``rate.spike`` — every input's arrival rate is multiplied by
  ``factor`` over ``[time, time + duration)``; applied to the rate
  series before arrivals are generated, so it composes with any
  workload scenario.

Schedules are plain data: load one from JSON (``FaultSchedule.
from_json_obj`` / ``load_fault_schedule``), or generate one with the
seeded chaos mode (:func:`chaos_schedule`), which is deterministic in
its seed — the same seed always yields the same schedule, which is what
makes chaos runs bit-identical across repeats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultSchedule",
    "chaos_schedule",
    "load_fault_schedule",
]

#: Fault kinds the engine understands.
FAULT_KINDS = (
    "node.crash",
    "node.recover",
    "node.degrade",
    "operator.slowdown",
    "rate.spike",
)

_NODE_KINDS = frozenset({"node.crash", "node.recover", "node.degrade"})
_FACTOR_KINDS = frozenset(
    {"node.degrade", "operator.slowdown", "rate.spike"}
)


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault.  Field relevance depends on ``kind``.

    Attributes
    ----------
    time:
        Simulated seconds at which the fault takes effect.
    kind:
        One of :data:`FAULT_KINDS`.
    node:
        Target node index (``node.*`` kinds).
    operator:
        Target operator name (``operator.slowdown``).
    factor:
        Multiplier: capacity for ``node.degrade``, per-batch cost for
        ``operator.slowdown``, arrival rate for ``rate.spike``.
    duration:
        Seconds the effect lasts (``node.degrade`` /
        ``operator.slowdown`` / ``rate.spike``); ``None`` means "until
        the end of the run".  Crashes last until an explicit
        ``node.recover``.
    """

    time: float
    kind: str
    node: Optional[int] = None
    operator: Optional[str] = None
    factor: Optional[float] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if not (self.time >= 0.0):
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        if self.kind in _NODE_KINDS:
            if self.node is None or self.node < 0:
                raise ValueError(
                    f"{self.kind} needs a non-negative node index"
                )
        if self.kind == "operator.slowdown" and not self.operator:
            raise ValueError("operator.slowdown needs an operator name")
        if self.kind in _FACTOR_KINDS:
            if self.factor is None or self.factor <= 0:
                raise ValueError(f"{self.kind} needs a factor > 0")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("fault duration must be > 0 when given")

    def to_json_obj(self) -> Dict[str, object]:
        obj: Dict[str, object] = {"time": self.time, "kind": self.kind}
        for key in ("node", "operator", "factor", "duration"):
            value = getattr(self, key)
            if value is not None:
                obj[key] = value
        return obj

    @classmethod
    def from_json_obj(cls, obj: Dict[str, object]) -> "FaultEvent":
        known = {"time", "kind", "node", "operator", "factor", "duration"}
        extra = sorted(set(obj) - known)
        if extra:
            raise ValueError(f"fault event has unknown keys: {extra}")
        if "time" not in obj or "kind" not in obj:
            raise ValueError("fault event needs 'time' and 'kind'")
        node = obj.get("node")
        return cls(
            time=float(obj["time"]),  # type: ignore[arg-type]
            kind=str(obj["kind"]),
            node=None if node is None else int(node),  # type: ignore[arg-type]
            operator=(
                None if obj.get("operator") is None
                else str(obj["operator"])
            ),
            factor=(
                None if obj.get("factor") is None
                else float(obj["factor"])  # type: ignore[arg-type]
            ),
            duration=(
                None if obj.get("duration") is None
                else float(obj["duration"])  # type: ignore[arg-type]
            ),
        )

    def describe(self) -> str:
        parts = [f"t={self.time:g}s {self.kind}"]
        if self.node is not None:
            parts.append(f"node={self.node}")
        if self.operator is not None:
            parts.append(f"operator={self.operator}")
        if self.factor is not None:
            parts.append(f"factor={self.factor:g}")
        if self.duration is not None:
            parts.append(f"duration={self.duration:g}s")
        return " ".join(parts)


class FaultSchedule:
    """An immutable, time-ordered collection of fault events."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        ordered = sorted(
            events, key=lambda e: (e.time, FAULT_KINDS.index(e.kind))
        )
        self.events: Tuple[FaultEvent, ...] = tuple(ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # ---------------------------------------------------------- validation

    def validate(
        self,
        num_nodes: int,
        operator_names: Sequence[str] = (),
    ) -> None:
        """Check the schedule against a cluster/graph shape.

        Raises ``ValueError`` on out-of-range node indices, unknown
        operator names, recovery of a node that is not down, or any
        instant at which every node would be crashed (a cluster with no
        survivors has no defined failover target).
        """
        known_ops = set(operator_names)
        down: set = set()
        for event in self.events:
            if event.node is not None and event.node >= num_nodes:
                raise ValueError(
                    f"{event.describe()}: node out of range for "
                    f"{num_nodes} node(s)"
                )
            if (
                event.kind == "operator.slowdown"
                and known_ops
                and event.operator not in known_ops
            ):
                raise ValueError(
                    f"{event.describe()}: unknown operator"
                )
            if event.kind == "node.crash":
                if event.node in down:
                    raise ValueError(
                        f"{event.describe()}: node is already down"
                    )
                down.add(event.node)
                if len(down) >= num_nodes:
                    raise ValueError(
                        f"{event.describe()}: schedule crashes every "
                        "node at once"
                    )
            elif event.kind == "node.recover":
                if event.node not in down:
                    raise ValueError(
                        f"{event.describe()}: node is not down"
                    )
                down.discard(event.node)

    # --------------------------------------------------------- application

    def apply_rate_events(
        self, series: np.ndarray, step_seconds: float
    ) -> np.ndarray:
        """Fold ``rate.spike`` events into a rate series (copy-on-write).

        Rows covering ``[time, time + duration)`` are multiplied by the
        event's factor; without a duration the spike lasts to the end.
        Non-rate events leave the series untouched.
        """
        spikes = [e for e in self.events if e.kind == "rate.spike"]
        if not spikes:
            return series
        out = np.array(series, dtype=float, copy=True)
        steps = out.shape[0]
        for event in spikes:
            start = min(steps, int(round(event.time / step_seconds)))
            if event.duration is None:
                stop = steps
            else:
                stop = min(
                    steps,
                    int(round((event.time + event.duration) / step_seconds)),
                )
            out[start:stop] *= float(event.factor or 1.0)
        return out

    # ------------------------------------------------------- serialization

    def to_json_obj(self) -> List[Dict[str, object]]:
        return [event.to_json_obj() for event in self.events]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: object) -> "FaultSchedule":
        if isinstance(obj, dict):
            obj = obj.get("faults", obj.get("events"))
        if not isinstance(obj, list):
            raise ValueError(
                "fault schedule JSON must be a list of events (or an "
                "object with a 'faults' list)"
            )
        return cls(FaultEvent.from_json_obj(item) for item in obj)

    def describe(self) -> str:
        if not self.events:
            return "(empty fault schedule)"
        return "\n".join(event.describe() for event in self.events)


def load_fault_schedule(path: str) -> FaultSchedule:
    """Parse a fault-schedule JSON file (see ``docs/robustness.md``)."""
    with open(path) as handle:
        return FaultSchedule.from_json_obj(json.load(handle))


def chaos_schedule(
    num_nodes: int,
    horizon: float,
    seed: int,
    operator_names: Sequence[str] = (),
    intensity: float = 1.0,
) -> FaultSchedule:
    """A seeded pseudo-random fault schedule (chaos mode).

    Deterministic in ``(num_nodes, horizon, seed, operator_names,
    intensity)`` — the same arguments always produce the same schedule,
    so a chaos run is exactly repeatable.  ``intensity`` scales how many
    faults land in the horizon (1.0 ≈ one crash/recovery cycle plus a
    brownout, a slowdown and a rate spike over a 20 s run).

    Crash/recovery cycles are staggered into disjoint downtime windows,
    so at most one node is down at any instant: no matter how high
    ``intensity`` pushes the cycle count — even when every node of a
    2-node cluster is scheduled to crash — the cluster keeps a survivor
    and chaos runs drain.  A 1-node cluster gets no crashes at all (its
    only node *is* the survivor).  All times are quantized to 1 ms, and
    durations are clamped to at least 1 ms so arbitrarily small
    horizons still produce valid events.
    """
    if num_nodes < 1:
        raise ValueError("need at least one node")
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be finite and > 0")
    if not 0 < intensity < math.inf:
        raise ValueError("intensity must be finite and > 0")
    rng = np.random.default_rng(seed)
    events: List[FaultEvent] = []

    def _ms(seconds: float) -> int:
        return int(round(seconds * 1000.0))

    def window(lo_frac: float = 0.05, hi_frac: float = 0.8) -> float:
        return _ms(rng.uniform(lo_frac, hi_frac) * horizon) / 1000.0

    def span(lo_frac: float, hi_frac: float) -> float:
        """A duration drawn as a horizon fraction, never rounding to 0."""
        return max(1, _ms(rng.uniform(lo_frac, hi_frac) * horizon)) / 1000.0

    count = max(1, int(round(intensity)))

    # Crash/recovery cycles.  Each cycle gets a disjoint slot of the
    # [5%, 90%] band of the horizon and its downtime stays inside the
    # slot, so downtime windows never overlap and a survivor always
    # exists.  Integer-millisecond scheduling keeps crash < recover <
    # next crash strict even when rounding would otherwise collide;
    # sub-millisecond slots saturate past the band, which only pushes
    # late cycles beyond the horizon (they simply never fire).
    if num_nodes > 1:
        band_lo, band_hi = _ms(0.05 * horizon), _ms(0.90 * horizon)
        slot = max((band_hi - band_lo) // count, 2)
        cursor = band_lo
        for _ in range(count):
            victim = int(rng.integers(num_nodes))
            start = cursor + _ms(rng.uniform(0.0, 0.4) * slot / 1000.0)
            start = max(start, cursor)
            downtime = max(1, _ms(rng.uniform(0.2, 0.5) * slot / 1000.0))
            recover = start + downtime
            events.append(FaultEvent(
                time=start / 1000.0, kind="node.crash", node=victim,
            ))
            events.append(FaultEvent(
                time=recover / 1000.0, kind="node.recover", node=victim,
            ))
            cursor = max(cursor + slot, recover + 1)

    # Brownouts.
    for _ in range(count):
        events.append(
            FaultEvent(
                time=window(),
                kind="node.degrade",
                node=int(rng.integers(num_nodes)),
                factor=float(np.round(rng.uniform(0.3, 0.8), 3)),
                duration=span(0.05, 0.2),
            )
        )

    # Operator slowdowns.
    names = list(operator_names)
    if names:
        for _ in range(count):
            events.append(
                FaultEvent(
                    time=window(),
                    kind="operator.slowdown",
                    operator=names[int(rng.integers(len(names)))],
                    factor=float(np.round(rng.uniform(1.5, 4.0), 3)),
                    duration=span(0.05, 0.2),
                )
            )

    # Input-rate spikes.
    for _ in range(count):
        events.append(
            FaultEvent(
                time=window(),
                kind="rate.spike",
                factor=float(np.round(rng.uniform(1.2, 2.5), 3)),
                duration=span(0.05, 0.15),
            )
        )

    schedule = FaultSchedule(events)
    schedule.validate(num_nodes, operator_names)
    return schedule
