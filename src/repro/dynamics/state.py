"""Operator state-size modelling for migration costs.

Section 1 of the paper grounds why static resilient placement matters:
"reactive load distribution requires costly operator state migration and
multi-node synchronization.  In our stream processing prototype, the
base overhead of run-time operator migration is on the order of a few
hundred milliseconds.  Operators with large states will have longer
migration times depending on the amount of state transferred."

This module estimates how much state each operator holds at given input
rates, in tuples:

* stateless per-tuple operators (map, filter, union, delay) hold none;
* a window aggregate holds roughly one window of input, ``1/selectivity``
  tuples (a tumbling window of ``k`` tuples has selectivity ``1/k``);
* a window join holds both input windows, ``window * (r_u + r_v)``.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..graphs.operators import Aggregate, Operator, WindowJoin
from ..graphs.query_graph import QueryGraph

__all__ = ["operator_state_tuples", "graph_state_tuples", "MigrationCostModel"]


def operator_state_tuples(
    operator: Operator, input_rates: Sequence[float]
) -> float:
    """Estimated tuples of state held by an operator at the given rates."""
    if isinstance(operator, WindowJoin):
        r_u, r_v = (float(r) for r in input_rates)
        return operator.window * (r_u + r_v)
    if isinstance(operator, Aggregate):
        s = operator.selectivities[0]
        return 1.0 / s if s > 0 else 0.0
    return 0.0


def graph_state_tuples(
    graph: QueryGraph, input_rates: Sequence[float]
) -> Dict[str, float]:
    """Per-operator state estimates at steady-state stream rates."""
    rates = graph.stream_rates(input_rates)
    return {
        op.name: operator_state_tuples(
            op, [rates[s] for s in graph.inputs_of(op.name)]
        )
        for op in graph.operators()
    }


class MigrationCostModel:
    """Turns state size into a migration pause (seconds of node stall).

    ``pause = base_overhead + state_tuples * per_tuple_transfer``.  The
    default base of 300 ms matches the paper's "few hundred milliseconds"
    prototype measurement.  Both the source and destination node stall
    for the pause (state serialization on one side, installation on the
    other), and the operator's queued work waits.
    """

    def __init__(
        self,
        base_overhead: float = 0.3,
        per_tuple_transfer: float = 2e-5,
    ) -> None:
        if base_overhead < 0 or per_tuple_transfer < 0:
            raise ValueError("migration cost parameters must be >= 0")
        self.base_overhead = base_overhead
        self.per_tuple_transfer = per_tuple_transfer

    def pause_seconds(self, state_tuples: float) -> float:
        if state_tuples < 0:
            raise ValueError("state size must be >= 0")
        return self.base_overhead + self.per_tuple_transfer * state_tuples
