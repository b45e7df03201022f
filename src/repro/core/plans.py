"""Operator placement plans (the allocation matrix ``A`` of Section 2.3).

A :class:`Placement` binds a load model to a cluster: it records which
node runs each operator, derives ``L^n = A L^o`` and exposes the metrics
the paper evaluates plans by (weight matrix, plane distance, feasible-set
volume ratio).  Placements are immutable; placers return new ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import geometry
from .feasible_set import FeasibleSet
from .load_model import LoadModel

__all__ = ["Placement", "placement_from_mapping", "diff_placements"]


@dataclass(frozen=True)
class Placement:
    """An assignment of every operator of a load model to a cluster node.

    Attributes
    ----------
    model:
        The linear load model being placed.
    capacities:
        Per-node CPU capacities ``C`` (CPU seconds per second).
    assignment:
        ``assignment[j]`` is the node index of ``model.operator_names[j]``.
    lower_bound:
        Optional workload floor ``B`` in variable space (Section 6.1),
        carried through to the derived feasible set.
    """

    model: LoadModel
    capacities: np.ndarray
    assignment: Tuple[int, ...]
    lower_bound: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        capacities = geometry.validate_capacities(self.capacities)
        assignment = tuple(int(i) for i in self.assignment)
        if len(assignment) != self.model.num_operators:
            raise ValueError(
                f"assignment covers {len(assignment)} operators but the "
                f"model has {self.model.num_operators}"
            )
        n = capacities.shape[0]
        for j, node in enumerate(assignment):
            if not 0 <= node < n:
                raise ValueError(
                    f"operator {self.model.operator_names[j]!r} assigned to "
                    f"node {node}, but the cluster has {n} node(s)"
                )
        bound = self.lower_bound
        if bound is not None:
            bound = np.asarray(bound, dtype=float)
        object.__setattr__(self, "capacities", capacities)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "lower_bound", bound)

    # ------------------------------------------------------------ structure

    @property
    def num_nodes(self) -> int:
        return self.capacities.shape[0]

    def node_of(self, operator_name: str) -> int:
        """Node index hosting the named operator."""
        return self.assignment[self.model.operator_index(operator_name)]

    def operators_on(self, node: int) -> Tuple[str, ...]:
        """Names of operators hosted by ``node``, in topological order."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range")
        return tuple(
            name
            for name, assigned in zip(self.model.operator_names, self.assignment)
            if assigned == node
        )

    def operator_counts(self) -> np.ndarray:
        """Number of operators per node."""
        counts = np.zeros(self.num_nodes, dtype=int)
        for node in self.assignment:
            counts[node] += 1
        return counts

    def allocation_matrix(self) -> np.ndarray:
        """``A = {a_ij}`` with ``a_ij = 1`` iff operator ``j`` is on node ``i``."""
        a = np.zeros((self.num_nodes, self.model.num_operators))
        for j, node in enumerate(self.assignment):
            a[node, j] = 1.0
        return a

    def node_coefficients(self) -> np.ndarray:
        """``L^n = A L^o`` (n x d).

        Accumulated row-wise in ``O(m d)`` — never via the dense
        ``(n x m) @ (m x d)`` allocation-matrix product — and memoized on
        the instance, so repeated metric queries (weights, plane
        distance, volume ratio) share one materialization.  Returns a
        copy; the cache itself is never handed out mutable.
        """
        cached = self.__dict__.get("_node_coefficients")
        if cached is None:
            cached = np.zeros((self.num_nodes, self.model.num_variables))
            np.add.at(
                cached, np.fromiter(self.assignment, dtype=np.intp,
                                    count=len(self.assignment)),
                self.model.coefficients,
            )
            object.__setattr__(self, "_node_coefficients", cached)
        return cached.copy()

    def inter_node_arcs(self) -> int:
        """Operator→operator arcs whose endpoints sit on different nodes.

        The communication-aware extension (Section 6.3) minimizes these.
        """
        graph = self.model.graph
        return sum(
            1
            for arc in graph.arcs()
            if self.node_of(arc.producer) != self.node_of(arc.consumer)
        )

    # -------------------------------------------------------------- metrics

    def feasible_set(self) -> FeasibleSet:
        """The feasible set induced by this placement."""
        return FeasibleSet(
            node_coefficients=self.node_coefficients(),
            capacities=self.capacities,
            column_totals=self.model.column_totals(),
            lower_bound=self.lower_bound,
        )

    def weights(self) -> np.ndarray:
        return self.feasible_set().weights()

    def plane_distance(self) -> float:
        """MMPD metric of this plan (larger is better)."""
        return self.feasible_set().plane_distance()

    def volume_ratio(
        self,
        samples: int = 4096,
        seed: Optional[int] = None,
    ) -> float:
        """QMC feasible-set size relative to the ideal set."""
        return self.feasible_set().volume_ratio(samples=samples, seed=seed)

    # -------------------------------------------------------- serialization

    def to_mapping(self) -> Dict[str, int]:
        """``{operator name: node index}`` view of the assignment."""
        return {
            name: node
            for name, node in zip(self.model.operator_names, self.assignment)
        }

    def to_document(self) -> Dict[str, object]:
        """Plain-dict plan document (what ``to_json`` serializes).

        Includes the derived ``L^n`` so static checkers
        (:func:`repro.check.check_plan_document`) can detect plans that
        went stale relative to their graph: a stored ``node_coefficients``
        that disagrees with the recomputed ``A L^o`` is diagnosed before
        the plan is ever simulated.
        """
        return {
            "graph": self.model.graph.name,
            "capacities": self.capacities.tolist(),
            "assignment": self.to_mapping(),
            "node_coefficients": self.node_coefficients().tolist(),
        }

    def to_json(self) -> str:
        """JSON document describing the plan (for ops tooling / debugging)."""
        return json.dumps(self.to_document(), indent=2, sort_keys=True)

    def describe(self) -> str:
        """Human-readable per-node summary."""
        lines = [f"placement of {self.model.graph.name!r} on "
                 f"{self.num_nodes} node(s):"]
        ln = self.node_coefficients()
        for node in range(self.num_nodes):
            ops = ", ".join(self.operators_on(node)) or "(empty)"
            lines.append(
                f"  node {node} (C={self.capacities[node]:g}, "
                f"coeffs={np.round(ln[node], 6).tolist()}): {ops}"
            )
        lines.append(f"  plane distance: {self.plane_distance():.4f}")
        return "\n".join(lines)


def diff_placements(before: Placement, after: Placement) -> Dict[str, Tuple[int, int]]:
    """Operators whose node changed between two plans of the same graph.

    Returns ``{operator: (old node, new node)}``.  Operators present in
    only one plan (e.g. growth via ``rod_extend``) are ignored — the diff
    reports *moves*, which are exactly what a static deployment must
    avoid and what a migration controller pays for.
    """
    before_map = before.to_mapping()
    after_map = after.to_mapping()
    return {
        name: (before_map[name], after_map[name])
        for name in before_map
        if name in after_map and before_map[name] != after_map[name]
    }


def placement_from_mapping(
    model: LoadModel,
    capacities: Sequence[float],
    mapping: Mapping[str, int],
    lower_bound: Optional[Sequence[float]] = None,
) -> Placement:
    """Build a :class:`Placement` from an ``{operator: node}`` mapping."""
    missing = [name for name in model.operator_names if name not in mapping]
    if missing:
        raise ValueError(f"mapping is missing operators: {missing}")
    extra = [name for name in mapping if name not in model.operator_names]
    if extra:
        raise ValueError(f"mapping names unknown operators: {extra}")
    assignment = tuple(mapping[name] for name in model.operator_names)
    return Placement(
        model=model,
        capacities=np.asarray(capacities, dtype=float),
        assignment=assignment,
        lower_bound=None if lower_bound is None else np.asarray(lower_bound, float),
    )
