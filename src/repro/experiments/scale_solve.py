"""Scaling the solve: flat annealing vs hierarchical group-then-refine.

The paper's experiments stop at tens of nodes; real stream-processing
deployments run hundreds.  This experiment measures how the two search
paths scale with cluster size on the same workload family:

* **flat** — ROD warm start polished by the incremental annealing
  kernel with its default budget (the strongest single-level baseline);
* **hierarchical** — :class:`~repro.placement.hierarchical.HierarchicalPlacer`:
  capacity-balanced node groups, one global ROD warm start, then masked
  within-group refinement with batched candidate scoring.

Measured shape (honest): at every measured scale the hierarchical
placement matches flat volume to within QMC noise (both searches end at
the ROD warm start's quality — annealing does not improve it at these
sample resolutions) while planning several times faster, and the gap
widens with ``n`` because flat's per-move scoring state grows with the
node count while the hierarchical path's refinement cost is fixed per
group.

Rows report planning seconds, the QMC volume ratio, and the
hierarchical-over-flat speedup per scale.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from ..placement.annealing import AnnealingPlacer
from ..placement.hierarchical import HierarchicalPlacer
from .common import make_model

__all__ = ["run"]


def run(
    scales: Sequence[Tuple[int, int, int]] = (
        (6, 32, 48),
        (6, 64, 96),
    ),
    samples: int = 4096,
    seed: int = 7,
) -> List[Dict[str, object]]:
    """Two rows (flat, hierarchical) per ``(inputs, ops_per_tree, nodes)``.

    The workload keeps roughly four operators per node so feasible-set
    ratios stay meaningfully away from zero as ``n`` grows.
    """
    rows: List[Dict[str, object]] = []
    for num_inputs, operators_per_tree, num_nodes in scales:
        model = make_model(num_inputs, operators_per_tree, seed=seed)
        capacities = [1.0] * num_nodes

        start = time.perf_counter()
        flat_plan = AnnealingPlacer(seed=seed).place(model, capacities)
        flat_seconds = time.perf_counter() - start

        start = time.perf_counter()
        hier_plan = HierarchicalPlacer(
            group_size=8,
            refine_iterations=100,
            samples=512,
            score_batch=16,
            seed=seed,
        ).place(model, capacities)
        hier_seconds = time.perf_counter() - start

        speedup = flat_seconds / hier_seconds if hier_seconds > 0 else 0.0
        for strategy, plan, seconds in (
            ("flat", flat_plan, flat_seconds),
            ("hierarchical", hier_plan, hier_seconds),
        ):
            rows.append({
                "strategy": strategy,
                "operators": model.num_operators,
                "nodes": num_nodes,
                "volume_ratio": plan.volume_ratio(samples=samples),
                "planning_seconds": seconds,
                "speedup_vs_flat": 1.0 if strategy == "flat" else speedup,
            })
    return rows
