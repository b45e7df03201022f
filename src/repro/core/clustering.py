"""Operator clustering for communication cost (Section 6.3).

ROD itself ignores the CPU overhead of sending tuples between nodes.  When
that overhead matters, the paper pre-processes the graph: arcs that are
expensive relative to their endpoint operators' processing work are
*contracted* so both endpoints land on the same machine, then ROD places
the resulting clusters.

Two greedy contraction heuristics are reproduced:

* ``"ratio"`` — repeatedly contract the arc with the largest *clustering
  ratio* (per-tuple transfer overhead over the minimum per-tuple
  processing overhead of the two end operators) until every ratio is
  below a threshold;
* ``"weight"`` — among arcs above the threshold, contract the pair whose
  combined load-coefficient weight is smallest, avoiding heavyweight
  clusters.

Both respect an upper bound on cluster weight (a cluster whose share of
some variable's load exceeds the smallest node's capacity share can never
be balanced).  Since neither heuristic dominates, :func:`search_clusterings`
sweeps thresholds for both and keeps the ROD plan with the maximum
communication-adjusted plane distance — the paper's "current practical
solution".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.query_graph import TransferCosts
from . import geometry
from .feasible_set import FeasibleSet
from .load_model import LoadModel
from .plans import Placement
from .rod import rod_place

__all__ = [
    "TransferCosts",
    "Clustering",
    "ClusteredModel",
    "cluster_operators",
    "communication_feasible_set",
    "search_clusterings",
    "ClusteringSearchResult",
]

_EPS = 1e-12


def _per_tuple_processing_cost(model: LoadModel, operator: str) -> float:
    """Cheapest per-tuple processing work of an operator.

    Window joins have no constant per-tuple cost; we use their per-output
    -tuple cost, matching how their load enters the linear model.
    """
    op = model.graph.operator(operator)
    try:
        return min(op.cost_of_port(p) for p in range(op.arity))
    except TypeError:
        return op.load_per_output_tuple  # WindowJoin


@dataclass(frozen=True)
class Clustering:
    """A partition of the model's operators into placement units."""

    groups: Tuple[Tuple[str, ...], ...]

    @property
    def num_clusters(self) -> int:
        return len(self.groups)

    def group_of(self, operator: str) -> int:
        for index, group in enumerate(self.groups):
            if operator in group:
                return index
        raise KeyError(f"unknown operator: {operator!r}")

    def validate(self, model: LoadModel) -> None:
        seen = [name for group in self.groups for name in group]
        if sorted(seen) != sorted(model.operator_names):
            raise ValueError(
                "clustering is not a partition of the model's operators"
            )


class ClusteredModel:
    """A load model whose placement units are operator clusters.

    Duck-types the parts of :class:`LoadModel` that :func:`rod_place`
    needs — coefficient rows, column totals, operator naming and graph
    adjacency — with one row per cluster.
    """

    def __init__(self, base: LoadModel, clustering: Clustering) -> None:
        clustering.validate(base)
        self.base = base
        self.clustering = clustering
        self.operator_names = tuple(
            "+".join(group) for group in clustering.groups
        )
        self.coefficients = np.vstack([
            sum(
                (base.coefficients[base.operator_index(name)] for name in group),
                np.zeros(base.num_variables),
            )
            for group in clustering.groups
        ])
        self._index = {name: i for i, name in enumerate(self.operator_names)}
        self._member_cluster = {
            member: i
            for i, group in enumerate(clustering.groups)
            for member in group
        }
        # rod_place consults model.graph for the "connections" policy.
        self.graph = _ClusterGraphView(base, clustering, self._member_cluster,
                                       self.operator_names)

    @property
    def num_variables(self) -> int:
        return self.base.num_variables

    @property
    def num_operators(self) -> int:
        return len(self.operator_names)

    def column_totals(self) -> np.ndarray:
        return self.base.column_totals()

    def operator_norms(self) -> np.ndarray:
        return np.linalg.norm(self.coefficients, axis=1)

    def operator_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown cluster: {name!r}") from None

    def expand(self, clustered: Placement) -> Placement:
        """Map a placement of clusters back to the base model's operators."""
        assignment = tuple(
            clustered.assignment[self._member_cluster[name]]
            for name in self.base.operator_names
        )
        return Placement(
            model=self.base,
            capacities=clustered.capacities,
            assignment=assignment,
            lower_bound=clustered.lower_bound,
        )


class _ClusterGraphView:
    """Adjacency between clusters, derived from the base graph's arcs."""

    def __init__(self, base, clustering, member_cluster, cluster_names):
        self.name = f"{base.graph.name}/clustered"
        self._names = cluster_names
        up: Dict[int, set] = {i: set() for i in range(len(cluster_names))}
        down: Dict[int, set] = {i: set() for i in range(len(cluster_names))}
        for arc in base.graph.arcs():
            a = member_cluster[arc.producer]
            b = member_cluster[arc.consumer]
            if a != b:
                down[a].add(b)
                up[b].add(a)
        self._up = {i: tuple(sorted(v)) for i, v in up.items()}
        self._down = {i: tuple(sorted(v)) for i, v in down.items()}
        self._index = {name: i for i, name in enumerate(cluster_names)}

    def upstream_operators(self, name: str) -> Tuple[str, ...]:
        return tuple(self._names[i] for i in self._up[self._index[name]])

    def downstream_operators(self, name: str) -> Tuple[str, ...]:
        return tuple(self._names[i] for i in self._down[self._index[name]])


def _cluster_weight(row: np.ndarray, totals: np.ndarray) -> float:
    """Largest share of any variable's total load held by a cluster row."""
    safe = np.where(totals > _EPS, totals, 1.0)
    share = np.where(totals > _EPS, row / safe, 0.0)
    return float(share.max()) if share.size else 0.0


def cluster_operators(
    model: LoadModel,
    transfer_costs: TransferCosts,
    threshold: float = 1.0,
    max_weight: Optional[float] = None,
    approach: str = "ratio",
) -> Clustering:
    """Contract expensive arcs into clusters (Section 6.3).

    Parameters
    ----------
    model:
        Load model whose graph is to be clustered.
    transfer_costs:
        Per-tuple CPU cost of shipping a tuple across the network, uniform
        or per stream.
    threshold:
        Arcs with clustering ratio below this are never contracted.
    max_weight:
        Cap on a cluster's largest per-variable load share; callers
        normally pass ``min_i C_i / C_T``.  ``None`` means a cap of 1.0
        (no cluster may carry more than a variable's whole load); pass
        ``math.inf`` to disable the cap.
    approach:
        ``"ratio"`` (contract largest ratio first) or ``"weight"``
        (contract cheapest combined weight first).
    """
    if approach not in ("ratio", "weight"):
        raise ValueError(f"unknown clustering approach: {approach!r}")
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    totals = model.column_totals()
    cap = max_weight if max_weight is not None else 1.0

    # Union-find over operators.
    parent = {name: name for name in model.operator_names}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows = {
        name: model.coefficients[model.operator_index(name)].copy()
        for name in model.operator_names
    }

    costs = model.graph.transfer_costs(transfer_costs)
    arcs = []
    for arc in model.graph.arcs():
        cost = costs[arc.stream]
        if cost <= 0:
            continue
        floor = min(
            _per_tuple_processing_cost(model, arc.producer),
            _per_tuple_processing_cost(model, arc.consumer),
        )
        ratio = cost / max(floor, _EPS)
        arcs.append((arc, ratio))

    while True:
        # Candidate contractions: cross-cluster arcs above the threshold
        # whose merged cluster respects the weight cap.
        candidates = []
        for arc, ratio in arcs:
            a, b = find(arc.producer), find(arc.consumer)
            if a == b or ratio < threshold:
                continue
            merged_weight = _cluster_weight(rows[a] + rows[b], totals)
            if merged_weight > cap + _EPS:
                continue
            candidates.append((arc, ratio, a, b, merged_weight))
        if not candidates:
            break
        if approach == "ratio":
            arc, ratio, a, b, _w = max(
                candidates, key=lambda item: (item[1], item[0].stream)
            )
        else:
            arc, ratio, a, b, _w = min(
                candidates, key=lambda item: (item[4], item[0].stream)
            )
        parent[b] = a
        rows[a] = rows[a] + rows[b]

    groups: Dict[str, List[str]] = {}
    for name in model.operator_names:
        groups.setdefault(find(name), []).append(name)
    return Clustering(groups=tuple(tuple(g) for g in groups.values()))


def communication_feasible_set(
    placement: Placement,
    transfer_costs: TransferCosts,
) -> FeasibleSet:
    """Feasible set including the CPU overhead of inter-node streams.

    Every operator→operator arc whose endpoints sit on different nodes
    charges its per-tuple transfer cost to *both* endpoints' nodes (send
    and receive work), scaled by the arc stream's rate expressed over the
    model variables.  Column totals stay those of pure processing so the
    returned ratios remain comparable with communication-free ones.
    """
    model = placement.model
    costs = model.graph.transfer_costs(transfer_costs)
    ln = placement.node_coefficients()
    for arc in model.graph.arcs():
        cost = costs[arc.stream]
        if cost <= 0:
            continue
        producer_node = placement.node_of(arc.producer)
        consumer_node = placement.node_of(arc.consumer)
        if producer_node == consumer_node:
            continue
        rate_vector = model.stream_rate_vector(arc.stream)
        ln[producer_node] += cost * rate_vector
        ln[consumer_node] += cost * rate_vector
    return FeasibleSet(
        node_coefficients=ln,
        capacities=placement.capacities,
        column_totals=model.column_totals(),
        lower_bound=placement.lower_bound,
    )


@dataclass(frozen=True)
class ClusteringSearchResult:
    """Winner of a clustering-threshold sweep."""

    placement: Placement
    clustering: Clustering
    approach: str
    threshold: float
    plane_distance: float
    comm_plane_distance: float


def search_clusterings(
    model: LoadModel,
    capacities: Sequence[float],
    transfer_costs: TransferCosts,
    thresholds: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
    approaches: Sequence[str] = ("ratio", "weight"),
    weight_cap_multipliers: Sequence[float] = (1.0, 1.5, 2.0),
    lower_bound: Optional[Sequence[float]] = None,
) -> ClusteringSearchResult:
    """Sweep clustering plans and keep the best ROD placement.

    Generates a clustering per (approach, threshold, weight cap), places
    each with ROD, and returns the plan with the largest *communication-
    adjusted* plane distance, as Section 6.3 prescribes ("generate a small
    number of clustering plans ... systematically varying the threshold
    values ... and pick the one with the maximum plane distance").  Weight
    caps are multiples of the smallest node's capacity share.
    """
    capacities = geometry.validate_capacities(capacities)
    base_cap = float(capacities.min() / capacities.sum())
    best: Optional[ClusteringSearchResult] = None
    for approach in approaches:
        for threshold in thresholds:
            for multiplier in weight_cap_multipliers:
                clustering = cluster_operators(
                    model,
                    transfer_costs,
                    threshold=threshold,
                    max_weight=base_cap * multiplier,
                    approach=approach,
                )
                clustered_model = ClusteredModel(model, clustering)
                placement = clustered_model.expand(
                    rod_place(
                        clustered_model, capacities, lower_bound=lower_bound
                    )
                )
                comm_distance = communication_feasible_set(
                    placement, transfer_costs
                ).plane_distance()
                result = ClusteringSearchResult(
                    placement=placement,
                    clustering=clustering,
                    approach=approach,
                    threshold=threshold,
                    plane_distance=placement.plane_distance(),
                    comm_plane_distance=comm_distance,
                )
                if (
                    best is None
                    or result.comm_plane_distance > best.comm_plane_distance
                ):
                    best = result
    assert best is not None
    return best
