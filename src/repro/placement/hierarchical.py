"""Hierarchical group-then-refine placement for large clusters.

Flat annealing scores every candidate move against all ``n`` nodes; at
1000 nodes the state alone (per-node dot columns over thousands of
samples) stops fitting the cache and the search budget spreads so thin
that few moves per node are ever tried.  The hierarchical placer splits
the search into small independent subproblems:

1. **Group the nodes.**  Nodes are sorted by capacity and dealt
   round-robin into ``ceil(n / group_size)`` groups, so group capacities
   stay balanced and every group holds a mix of big and small nodes.
2. **Warm-start with one global ROD pass** over every operator and
   every node.  Its node assignment is the starting plan, and the group
   of each operator's node fixes which subproblem the operator joins.
3. **Refine inside each group** with the incremental
   :class:`~repro.placement.annealing.AnnealingPlacer` on the group's
   operators and nodes only.  Each refinement scores against the
   *cluster-wide* capacity normalization (``total_capacity`` override),
   so a group never trades global feasibility for local gain.  Groups
   are independent subproblems, refined one after another, each with
   its own seed from :func:`derive_seed`.

The result is a placement whose cost scales with
``num_groups * (group_size solve)`` instead of one monolithic
``n``-node search — the difference between hours and seconds at 1000
nodes — while the within-group searches still run the bit-exact
incremental kernel.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.load_model import LoadModel
from ..core.plans import Placement
from ..core.rod import rod_place
from ..core.volume import qmc
from .annealing import AnnealingPlacer
from .base import Placer

__all__ = ["HierarchicalPlacer", "RestrictedModel", "derive_seed"]

#: Mixing constant for seed derivation (splitmix64's golden-ratio step).
_SEED_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_seed(base_seed: int, index: int) -> int:
    """A per-group seed, deterministic in ``(base_seed, index)``.

    Uses a splitmix64 finalizer so neighbouring indices land far apart —
    unlike ``base_seed + index``, two groups of different runs can never
    collide just because their bases are close.
    """
    z = (base_seed * _SEED_MIX + index + 1) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class RestrictedModel:
    """A load model restricted to a subset of the base model's operators.

    Duck-types what a group's
    :class:`~repro.placement.annealing.AnnealingPlacer` refinement and
    :class:`~repro.core.plans.Placement` need, with one crucial
    property: :meth:`column_totals` returns the **base model's global
    totals**, so weight matrices computed for the restriction are the
    global rows ``w_ik = (l^n_ik / l_k) / (C_i / C_T)`` — comparable
    across groups — rather than totals renormalized to the subset.
    """

    def __init__(self, base: LoadModel, operator_indices: Sequence[int]) -> None:
        indices = tuple(int(j) for j in operator_indices)
        if len(set(indices)) != len(indices):
            raise ValueError("operator indices must be unique")
        for j in indices:
            if not 0 <= j < base.num_operators:
                raise IndexError(f"operator index {j} out of range")
        self.base = base
        self.indices = indices
        self.operator_names = tuple(base.operator_names[j] for j in indices)
        self.coefficients = base.coefficients[list(indices)]
        self.graph = base.graph
        self._index = {name: i for i, name in enumerate(self.operator_names)}

    @property
    def num_variables(self) -> int:
        return self.base.num_variables

    @property
    def num_operators(self) -> int:
        return len(self.indices)

    def column_totals(self) -> np.ndarray:
        return self.base.column_totals()

    def operator_norms(self) -> np.ndarray:
        return np.linalg.norm(self.coefficients, axis=1)

    def operator_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown operator: {name!r}") from None


class HierarchicalPlacer(Placer):
    """Group-then-refine placement for large clusters."""

    name = "hierarchical"

    def __init__(
        self,
        group_size: int = 16,
        refine_iterations: int = 600,
        samples: int = 512,
        seed: Optional[int] = None,
        score_batch: int = 1,
    ) -> None:
        """``group_size`` bounds each refinement subproblem's node
        count; ``refine_iterations`` / ``samples`` / ``score_batch``
        parameterize each group's annealing refinement."""
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        if refine_iterations < 1:
            raise ValueError("refine_iterations must be >= 1")
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if score_batch < 1:
            raise ValueError("score_batch must be >= 1")
        self.group_size = group_size
        self.refine_iterations = refine_iterations
        self.samples = samples
        self.seed = seed
        self.score_batch = score_batch

    # ------------------------------------------------------------ phases

    def node_groups(self, capacities: np.ndarray) -> List[List[int]]:
        """Snake-dealt node groups, balanced by capacity.

        Nodes are dealt largest-capacity-first across
        ``ceil(n / group_size)`` groups in boustrophedon order (left to
        right, then right to left), so a group that drew a large node
        in one pass draws a small one in the next — group capacities
        stay balanced and every group ends up with at most
        ``group_size`` nodes.
        """
        n = capacities.shape[0]
        num_groups = max(1, -(-n // self.group_size))
        order = sorted(range(n), key=lambda i: (-capacities[i], i))
        groups: List[List[int]] = [[] for _ in range(num_groups)]
        for rank, node in enumerate(order):
            lap, offset = divmod(rank, num_groups)
            if lap % 2:
                offset = num_groups - 1 - offset
            groups[offset].append(node)
        return groups

    def place(
        self, model: LoadModel, capacities: Sequence[float]
    ) -> Placement:
        caps = self._validated(model, capacities)
        groups = self.node_groups(caps)
        if len(groups) == 1:
            # Small cluster: the flat incremental search is already fast.
            return AnnealingPlacer(
                iterations=self.refine_iterations,
                samples=self.samples,
                seed=self.seed,
                score_batch=self.score_batch,
            ).place(model, caps)

        total_capacity = float(caps.sum())
        node_group = [0] * caps.shape[0]
        for group_index, nodes in enumerate(groups):
            for node in nodes:
                node_group[node] = group_index

        # Phase 2: one ROD pass at *node* granularity is the warm start,
        # and its group projection splits the operators.  Balancing the
        # group aggregates alone would yield group compositions no
        # within-group placement can balance, and coarser placement
        # units cost volume (see docs/performance.md).
        assignment = list(rod_place(model, caps).assignment)
        group_ops: List[Tuple[int, ...]] = []
        for group_index in range(len(groups)):
            group_ops.append(tuple(
                j for j, node in enumerate(assignment)
                if node_group[node] == group_index
            ))

        # Phase 3a: per-group conditioning masks.  A sample only counts
        # toward group g's objective if every node *outside* g already
        # fits it under the warm start — so each refinement climbs the
        # global feasible count, holding the other groups fixed.
        masks = self._group_masks(model, caps, total_capacity,
                                  groups, assignment)

        # Phase 3b: refine each group's operators on its own nodes.
        base_seed = self.seed if self.seed is not None else 0
        for group_index, nodes in enumerate(groups):
            ops = group_ops[group_index]
            if len(ops) < 2 or len(nodes) < 2:
                continue
            if not masks[group_index].any():
                # No sample is feasible outside this group: refinement
                # cannot move the global count, skip the search.
                continue
            node_index = {node: local for local, node in enumerate(nodes)}
            local = AnnealingPlacer(
                iterations=self.refine_iterations,
                samples=self.samples,
                seed=derive_seed(base_seed, group_index),
                score_batch=self.score_batch,
                total_capacity=total_capacity,
                initial_assignment=[node_index[assignment[j]] for j in ops],
                sample_mask=masks[group_index],
            ).place(
                RestrictedModel(model, ops),
                [float(caps[i]) for i in nodes],
            ).assignment
            for j, local_node in zip(ops, local):
                assignment[j] = nodes[local_node]
        return Placement(
            model=model, capacities=caps, assignment=tuple(assignment)
        )

    def _group_masks(
        self,
        model: LoadModel,
        caps: np.ndarray,
        total_capacity: float,
        groups: List[List[int]],
        assignment: List[int],
    ) -> List[np.ndarray]:
        """Per-group bool masks over the shared refinement sample cloud.

        ``masks[g][s]`` is true when sample ``s`` is feasible on every
        node not in group ``g`` under ``assignment``.  Uses the same
        Halton stream the group refinements score against (one cached
        generation), and the same threshold arithmetic as the annealing
        kernel.
        """
        totals = model.column_totals()
        safe_totals = np.where(totals > 1e-12, totals, 1.0)
        points = qmc.sample_unit_simplex(
            self.samples, model.num_variables, method="halton"
        )
        op_share = model.coefficients / safe_totals
        op_share[:, totals <= 1e-12] = 0.0
        op_dots = points @ op_share.T
        n = caps.shape[0]
        node_dots = np.zeros((self.samples, n))
        np.add.at(
            node_dots.T,
            np.fromiter(assignment, dtype=np.intp, count=len(assignment)),
            op_dots.T,
        )
        thresholds = (1.0 + 1e-12) * caps / total_capacity
        violations = node_dots > thresholds
        total_violations = violations.sum(axis=1)
        masks = []
        for nodes in groups:
            inside = violations[:, nodes].sum(axis=1)
            masks.append(total_violations - inside == 0)
        return masks
