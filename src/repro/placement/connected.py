"""Connected load balancing (Section 7.2).

Balances load while preferring to co-locate connected operators, to
minimize data communication:

1. assign the most loaded unassigned operator to the currently least
   loaded node ``N_s``;
2. keep assigning operators *connected to operators already on* ``N_s``
   to ``N_s`` as long as its load stays below the per-node average;
3. repeat until everything is placed.

The paper finds this fares worst on resilience: a spike on one input
cannot be absorbed collectively because the whole downstream chain sits on
one machine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set

import numpy as np

from ..core.load_model import LoadModel
from ..core.plans import Placement
from .base import Placer, resolve_rates

__all__ = ["ConnectedPlacer"]


class ConnectedPlacer(Placer):
    """Connectivity-preserving load balancing at a fixed rate point."""

    name = "connected"

    def __init__(self, rates: Optional[Sequence[float]] = None) -> None:
        self.rates = rates

    def place(
        self, model: LoadModel, capacities: Sequence[float]
    ) -> Placement:
        caps = self._validated(model, capacities)
        rates = resolve_rates(model, self.rates)
        loads = model.coefficients @ rates
        graph = model.graph
        n = caps.shape[0]
        # Per-node load target, capacity-proportional ("the average load").
        total_load = float(loads.sum())
        targets = total_load * caps / caps.sum()

        unassigned: Set[int] = set(range(model.num_operators))
        node_load = np.zeros(n)
        assignment = [0] * model.num_operators

        def neighbors_on_node(node_ops: Set[int]) -> List[int]:
            """Unassigned operators adjacent to any operator on the node,
            most loaded first."""
            found: Set[int] = set()
            for op_index in node_ops:
                name = model.operator_names[op_index]
                for other in (
                    graph.upstream_operators(name)
                    + graph.downstream_operators(name)
                ):
                    other_index = model.operator_index(other)
                    if other_index in unassigned:
                        found.add(other_index)
            return sorted(found, key=lambda j: (-loads[j], j))

        while unassigned:
            # Step 1: heaviest remaining operator to the least loaded node.
            seed_op = max(unassigned, key=lambda j: (loads[j], -j))
            node = int(np.argmin(node_load / caps))
            assignment[seed_op] = node
            node_load[node] += loads[seed_op]
            unassigned.discard(seed_op)
            on_node = {seed_op}
            # Step 2: pull connected operators while under the target.
            while True:
                candidates = neighbors_on_node(on_node)
                progressed = False
                for j in candidates:
                    if node_load[node] + loads[j] <= targets[node]:
                        assignment[j] = node
                        node_load[node] += loads[j]
                        unassigned.discard(j)
                        on_node.add(j)
                        progressed = True
                        break
                if not progressed:
                    break
        return Placement(
            model=model, capacities=caps, assignment=tuple(assignment)
        )
