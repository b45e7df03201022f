"""Acyclic query graphs (data-flow networks) of stream operators.

A :class:`QueryGraph` is a DAG whose sources are *system input streams*
(``I_1 .. I_d`` in the paper) and whose internal vertices are operators.
Each operator consumes one existing stream per input port and produces
exactly one output stream; several operators may consume the same stream
(fan-out).  Graphs are acyclic by construction: an operator can only be
connected to streams that already exist.

The graph is the unit the placement algorithms work on; it knows nothing
about nodes or placement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .operators import Operator, WindowJoin

__all__ = ["Stream", "QueryGraph", "Arc", "TransferCosts"]

#: Per-tuple CPU cost of shipping a stream between nodes (Section 6.3):
#: one uniform cost, or one per stream name.
TransferCosts = Union[float, Mapping[str, float]]


@dataclass(frozen=True)
class Stream:
    """A named data stream: either a system input or an operator's output.

    Attributes
    ----------
    name:
        Unique stream name within the graph.
    producer:
        Name of the operator producing it, or ``None`` for a system input.
    input_index:
        Position among the system inputs (``k`` for ``I_k``) if this is a
        system input stream, otherwise ``None``.
    """

    name: str
    producer: Optional[str] = None
    input_index: Optional[int] = None

    @property
    def is_input(self) -> bool:
        return self.producer is None


@dataclass(frozen=True)
class Arc:
    """A producer→consumer operator pair (the unit operator clustering
    contracts, Section 6.3)."""

    producer: str
    consumer: str
    stream: str


class QueryGraph:
    """Mutable builder and container for an acyclic operator network."""

    def __init__(self, name: str = "query") -> None:
        self.name = name
        self._streams: Dict[str, Stream] = {}
        self._operators: Dict[str, Operator] = {}
        # Per-operator ordered input stream names.
        self._op_inputs: Dict[str, Tuple[str, ...]] = {}
        # Stream name -> names of consuming operators, in insertion order.
        self._consumers: Dict[str, List[str]] = {}
        self._input_order: List[str] = []
        # Operators in insertion order; insertion order is topological
        # because inputs must exist before the operator is added.
        self._op_order: List[str] = []
        # Operator name -> its output stream name.
        self._op_output: Dict[str, str] = {}
        # Provenance of data-partitioning rewrites: base operator name
        # -> graphs.partition.PartitionGroup.  Maintained by the rewrite
        # helpers; empty for graphs that were never partitioned.  (Typed
        # loosely to avoid a circular import with graphs.partition.)
        self.partition_groups: Dict[str, Any] = {}

    # ------------------------------------------------------------------ build

    def add_input(self, name: str) -> Stream:
        """Register system input stream ``name`` and return it."""
        self._check_fresh_stream(name)
        stream = Stream(name=name, input_index=len(self._input_order))
        self._streams[name] = stream
        self._consumers[name] = []
        self._input_order.append(name)
        return stream

    def add_operator(
        self,
        operator: Operator,
        inputs: Sequence[object],
        output_name: Optional[str] = None,
    ) -> Stream:
        """Attach ``operator`` to existing streams and return its output.

        ``inputs`` may hold :class:`Stream` objects or stream names; its
        length must equal the operator's arity.  The output stream is named
        ``output_name`` or ``"<operator>.out"`` by default.
        """
        if operator.name in self._operators:
            raise ValueError(f"duplicate operator name: {operator.name!r}")
        input_names = tuple(self._resolve_stream(s).name for s in inputs)
        if len(input_names) != operator.arity:
            raise ValueError(
                f"{operator.name}: operator has arity {operator.arity} but "
                f"{len(input_names)} input stream(s) were given"
            )
        out_name = output_name or f"{operator.name}.out"
        self._check_fresh_stream(out_name)

        self._operators[operator.name] = operator
        self._op_inputs[operator.name] = input_names
        self._op_order.append(operator.name)
        for s in input_names:
            self._consumers[s].append(operator.name)
        out = Stream(name=out_name, producer=operator.name)
        self._streams[out_name] = out
        self._consumers[out_name] = []
        self._op_output[operator.name] = out_name
        return out

    def _check_fresh_stream(self, name: str) -> None:
        if name in self._streams:
            raise ValueError(f"duplicate stream name: {name!r}")

    def _resolve_stream(self, ref: object) -> Stream:
        name = ref.name if isinstance(ref, Stream) else str(ref)
        try:
            return self._streams[name]
        except KeyError:
            raise KeyError(f"unknown stream: {name!r}") from None

    # ------------------------------------------------------------ inspection

    @property
    def num_inputs(self) -> int:
        """``d`` — the number of system input streams."""
        return len(self._input_order)

    @property
    def num_operators(self) -> int:
        """``m`` — the number of operators."""
        return len(self._op_order)

    @property
    def input_names(self) -> Tuple[str, ...]:
        return tuple(self._input_order)

    @property
    def operator_names(self) -> Tuple[str, ...]:
        """Operator names in topological (insertion) order."""
        return tuple(self._op_order)

    def operators(self) -> Iterator[Operator]:
        """Operators in topological order."""
        for name in self._op_order:
            yield self._operators[name]

    def operator(self, name: str) -> Operator:
        try:
            return self._operators[name]
        except KeyError:
            raise KeyError(f"unknown operator: {name!r}") from None

    def stream(self, name: str) -> Stream:
        return self._resolve_stream(name)

    def streams(self) -> Iterator[Stream]:
        return iter(self._streams.values())

    def inputs_of(self, operator_name: str) -> Tuple[str, ...]:
        """Ordered input stream names of an operator."""
        try:
            return self._op_inputs[operator_name]
        except KeyError:
            raise KeyError(f"unknown operator: {operator_name!r}") from None

    def output_of(self, operator_name: str) -> Stream:
        """The single output stream of an operator."""
        self.operator(operator_name)
        return self._streams[self._op_output[operator_name]]

    def consumers_of(self, stream_name: str) -> Tuple[str, ...]:
        """Names of operators consuming a stream (may be empty for sinks)."""
        self._resolve_stream(stream_name)
        return tuple(self._consumers[stream_name])

    def upstream_operators(self, operator_name: str) -> Tuple[str, ...]:
        """Operators whose outputs feed directly into ``operator_name``."""
        producers = []
        for s in self.inputs_of(operator_name):
            producer = self._streams[s].producer
            if producer is not None:
                producers.append(producer)
        return tuple(producers)

    def downstream_operators(self, operator_name: str) -> Tuple[str, ...]:
        """Operators directly consuming ``operator_name``'s output."""
        return self.consumers_of(self.output_of(operator_name).name)

    def arcs(self) -> List[Arc]:
        """All operator→operator arcs (excluding arcs from system inputs)."""
        result = []
        for name in self._op_order:
            for s in self._op_inputs[name]:
                producer = self._streams[s].producer
                if producer is not None:
                    result.append(Arc(producer=producer, consumer=name, stream=s))
        return result

    def sink_streams(self) -> Tuple[Stream, ...]:
        """Streams with no consumers — the application-facing outputs."""
        return tuple(
            self._streams[s]
            for s in self._streams
            if not self._consumers[s]
        )

    def has_nonlinear_operators(self) -> bool:
        """True if any operator requires linearization (Section 6.2)."""
        return any(not op.is_linear for op in self.operators())

    def join_operators(self) -> Tuple[str, ...]:
        return tuple(
            op.name for op in self.operators() if isinstance(op, WindowJoin)
        )

    # ------------------------------------------------------------ evaluation

    def stream_rates(self, input_rates: Sequence[float]) -> Dict[str, float]:
        """Propagate concrete input rates through the graph.

        Returns the steady-state rate of every stream, using each operator's
        true ``output_rate`` (including non-linear ones).  This is the ground
        truth the linear model approximates.
        """
        if len(input_rates) != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} input rates, got {len(input_rates)}"
            )
        rates: Dict[str, float] = {
            name: float(r) for name, r in zip(self._input_order, input_rates)
        }
        for name in self._op_order:
            op = self._operators[name]
            in_rates = [rates[s] for s in self._op_inputs[name]]
            rates[self.output_of(name).name] = op.output_rate(in_rates)
        return rates

    def transfer_costs(self, costs: TransferCosts) -> Dict[str, float]:
        """Resolve ``costs`` to the per-tuple transfer cost of every stream.

        A mapping names streams; the streams it leaves out cost nothing.
        Raises ``ValueError`` naming the stream for a name that is not a
        stream of this graph and for a negative or non-finite cost.
        """
        if not isinstance(costs, Mapping):
            costs = dict.fromkeys(self._streams, costs)
        for name in costs:
            if name not in self._streams:
                raise ValueError(f"transfer cost for {name!r}: no such stream")
        resolved = {
            name: float(costs.get(name, 0.0)) for name in self._streams
        }
        for name, cost in resolved.items():
            if not 0 <= cost < math.inf:
                raise ValueError(
                    f"transfer cost for {name!r} must be finite >= 0"
                )
        return resolved

    def operator_loads(self, input_rates: Sequence[float]) -> Dict[str, float]:
        """True CPU load (cycles per unit time) of each operator."""
        rates = self.stream_rates(input_rates)
        loads: Dict[str, float] = {}
        for name in self._op_order:
            op = self._operators[name]
            in_rates = [rates[s] for s in self._op_inputs[name]]
            loads[name] = op.load(in_rates)
        return loads

    def total_load(self, input_rates: Sequence[float]) -> float:
        """Aggregate CPU demand of the whole graph at the given rates."""
        return sum(self.operator_loads(input_rates).values())

    # ---------------------------------------------------------------- dunder

    def __contains__(self, operator_name: str) -> bool:
        return operator_name in self._operators

    def __len__(self) -> int:
        return self.num_operators

    def __repr__(self) -> str:
        return (
            f"QueryGraph({self.name!r}, inputs={self.num_inputs}, "
            f"operators={self.num_operators})"
        )

    # -------------------------------------------------------------- validate

    def validate(self) -> None:
        """Run internal consistency checks; raises ``AssertionError``."""
        assert len(self._op_order) == len(self._operators)
        seen_streams = set(self._input_order)
        for name in self._op_order:
            for s in self._op_inputs[name]:
                assert s in seen_streams, (
                    f"operator {name} consumes stream {s} defined later"
                )
            seen_streams.add(self.output_of(name).name)
        for stream_name, consumers in self._consumers.items():
            for c in consumers:
                assert stream_name in self._op_inputs[c]


def subgraph_operator_count(graph: QueryGraph, roots: Iterable[str]) -> int:
    """Count operators reachable downstream from the given input streams."""
    reachable = set()
    frontier = list(roots)
    while frontier:
        stream_name = frontier.pop()
        for op_name in graph.consumers_of(stream_name):
            if op_name not in reachable:
                reachable.add(op_name)
                frontier.append(graph.output_of(op_name).name)
    return len(reachable)
