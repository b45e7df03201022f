"""The Resilient Operator Distribution algorithm (Section 5, Figure 10).

ROD is a two-phase greedy placement:

1. **Operator ordering** — sort operators by the Euclidean norm of their
   load coefficient vectors, descending, so high-impact operators are
   placed while there is still freedom to balance them.
2. **Operator assignment** — for each operator, compute every node's
   *candidate* weight row (the weights the node would have after receiving
   the operator).  Nodes whose candidate hyperplane is still entirely on
   or above the ideal hyperplane (``w_ik <= 1`` for all ``k``) form
   *Class I*: choosing one cannot shrink the achievable feasible set, so
   any of them is safe (MMAD's regime).  If Class I is empty the feasible
   set must shrink, and ROD picks the node with the maximum candidate
   plane distance (MMPD's regime).

The lower-bound extension (Section 6.1) only changes the distance metric:
plane distances are measured from the normalized workload floor ``B̂``
instead of the origin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import geometry
from .load_model import LoadModel
from .plans import Placement

__all__ = ["RodStep", "rod_order", "rod_place", "rod_extend"]

_EPS = 1e-12
# Tolerance for the Class I test: candidate hyperplanes numerically on the
# ideal hyperplane still count as Class I.
_CLASS_ONE_TOL = 1e-9

CLASS_ONE_POLICIES = ("plane", "first", "random", "connections")


@dataclass(frozen=True)
class RodStep:
    """One assignment decision, for inspection and tests."""

    operator: str
    node: int
    class_one: Tuple[int, ...]
    chosen_from_class_one: bool
    candidate_distances: Tuple[float, ...]


def rod_order(model: LoadModel) -> List[int]:
    """Phase 1: operator indices sorted by ``||l^o_j||_2`` descending.

    Ties broken by model order so the result is deterministic.
    """
    norms = model.operator_norms()
    return sorted(range(model.num_operators), key=lambda j: (-norms[j], j))


def _candidate_weights(
    node_coeffs: np.ndarray,
    op_row: np.ndarray,
    safe_totals: np.ndarray,
    dead_columns: np.ndarray,
    capacity_share: np.ndarray,
) -> np.ndarray:
    """Weight matrix every node would have after receiving the operator.

    Row ``i`` is node ``i``'s weights with the operator added to *it*
    (other nodes unchanged do not matter for the decision).
    ``safe_totals`` / ``dead_columns`` are the column-totals guards,
    hoisted out of the assignment loop.
    """
    share = (node_coeffs + op_row) / safe_totals
    share[:, dead_columns] = 0.0
    return share / capacity_share[:, None]


def _plane_distance_rows(
    weights: np.ndarray, origin: Optional[np.ndarray]
) -> np.ndarray:
    """Candidate plane distance per node (from origin or from ``B̂``)."""
    if origin is None:
        return geometry.plane_distances(weights)
    return geometry.plane_distance_from_point(weights, origin)


def _assign(
    model: LoadModel,
    capacities: np.ndarray,
    assignment: List[int],
    order: Sequence[int],
    lower_bound: Optional[Sequence[float]],
    class_one_policy: str,
    seed: Optional[int],
    steps: Optional[List[RodStep]] = None,
) -> Placement:
    """Phase 2 over ``order``: the Class I / Class II greedy.

    Operators with ``assignment[j] >= 0`` are already placed: they
    pre-load their nodes' coefficient accumulators and never move.
    Every operator in ``order`` is then assigned in turn, filling
    ``assignment`` in place.
    """
    if class_one_policy not in CLASS_ONE_POLICIES:
        raise ValueError(
            f"unknown class-I policy {class_one_policy!r}; "
            f"expected one of {CLASS_ONE_POLICIES}"
        )
    totals = model.column_totals()
    capacity_share = capacities / capacities.sum()

    b_hat: Optional[np.ndarray] = None
    if lower_bound is not None:
        b_hat = geometry.normalize_lower_bound(
            lower_bound, totals, float(capacities.sum())
        )

    rng = random.Random(seed)
    graph = model.graph
    node_coeffs = np.zeros((capacities.shape[0], model.num_variables))
    for j, node in enumerate(assignment):
        if node >= 0:
            node_coeffs[node] += model.coefficients[j]
    safe_totals = np.where(totals > _EPS, totals, 1.0)
    dead_columns = totals <= _EPS

    def new_cross_arcs(op_index: int, node: int) -> int:
        """Inter-node arcs created by putting operator ``op_index`` on node."""
        name = model.operator_names[op_index]
        count = 0
        for neighbor in (
            graph.upstream_operators(name) + graph.downstream_operators(name)
        ):
            other = assignment[model.operator_index(neighbor)]
            if other >= 0 and other != node:
                count += 1
        return count

    for j in order:
        op_row = model.coefficients[j]
        candidates = _candidate_weights(
            node_coeffs, op_row, safe_totals, dead_columns, capacity_share
        )
        class_one_idx = np.flatnonzero(
            (candidates <= 1.0 + _CLASS_ONE_TOL).all(axis=1)
        )
        distances = _plane_distance_rows(candidates, b_hat)

        if class_one_idx.size:
            chosen_from_one = True
            if class_one_policy == "first":
                node = int(class_one_idx[0])
            elif class_one_policy == "random":
                node = int(rng.choice(class_one_idx.tolist()))
            elif class_one_policy == "connections":
                node = min(
                    class_one_idx.tolist(),
                    key=lambda i: (new_cross_arcs(j, i), -distances[i], i),
                )
            else:  # "plane": max distance, ties to the lowest node index
                node = int(class_one_idx[np.argmax(distances[class_one_idx])])
        else:
            chosen_from_one = False
            node = int(np.argmax(distances))

        assignment[j] = node
        node_coeffs[node] += op_row
        if steps is not None:
            steps.append(
                RodStep(
                    operator=model.operator_names[j],
                    node=node,
                    class_one=tuple(int(i) for i in class_one_idx),
                    chosen_from_class_one=chosen_from_one,
                    candidate_distances=tuple(float(x) for x in distances),
                )
            )

    return Placement(
        model=model,
        capacities=capacities,
        assignment=tuple(assignment),
        lower_bound=None if b_hat is None else np.asarray(lower_bound, float),
    )


def rod_place(
    model: LoadModel,
    capacities: Sequence[float],
    lower_bound: Optional[Sequence[float]] = None,
    class_one_policy: str = "plane",
    seed: Optional[int] = None,
    order: Optional[Sequence[int]] = None,
    steps: Optional[List[RodStep]] = None,
) -> Placement:
    """Run ROD and return the resulting :class:`Placement`.

    Parameters
    ----------
    model:
        Linear(ized) load model to place.
    capacities:
        Per-node CPU capacities ``C``.
    lower_bound:
        Optional workload floor ``B`` in variable space (Section 6.1).
    class_one_policy:
        How to pick among Class I nodes, all of which are feasible-set
        neutral: ``"plane"`` (max candidate plane distance — the default,
        biasing toward balance), ``"first"``, ``"random"``, or
        ``"connections"`` (fewest new inter-node arcs, the communication
        -aware choice mentioned in Section 5.2).
    seed:
        Random seed for the ``"random"`` policy.
    order:
        Optional explicit assignment order (operator indices); used by the
        ordering ablation.  Defaults to :func:`rod_order`.
    steps:
        Optional list that receives a :class:`RodStep` per assignment.
    """
    capacities = geometry.validate_capacities(capacities)
    if order is None:
        order = rod_order(model)
    else:
        order = list(order)
        if sorted(order) != list(range(model.num_operators)):
            raise ValueError(
                "order must be a permutation of all operator indices"
            )
    return _assign(model, capacities, [-1] * model.num_operators, order,
                   lower_bound, class_one_policy, seed, steps)


def rod_extend(
    placement: Placement,
    new_model: LoadModel,
    lower_bound: Optional[Sequence[float]] = None,
    class_one_policy: str = "plane",
    seed: Optional[int] = None,
) -> Placement:
    """Place newly added operators without moving existing ones.

    Long-running deployments grow: new queries attach operators to a
    system whose current operators cannot be migrated (the paper's core
    premise).  ROD's greedy step is naturally incremental — existing
    assignments simply pre-load the node coefficient accumulators, and
    only the new operators are ordered (by :func:`rod_order`'s norm
    rule) and assigned.

    ``new_model`` must contain every operator of ``placement.model``
    (same names); operators unique to ``new_model`` are the ones placed.
    Variables may grow too (new input streams or cut streams);
    ``lower_bound`` is then a floor over ``new_model``'s variables.
    """
    old_names = set(placement.model.operator_names)
    missing = old_names - set(new_model.operator_names)
    if missing:
        raise ValueError(
            f"new model dropped operators {sorted(missing)}; rod_extend "
            "only supports additive growth"
        )
    assignment = [
        placement.node_of(name) if name in old_names else -1
        for name in new_model.operator_names
    ]
    fresh = [j for j in rod_order(new_model) if assignment[j] < 0]
    return _assign(new_model, placement.capacities, assignment, fresh,
                   lower_bound, class_one_policy, seed)
