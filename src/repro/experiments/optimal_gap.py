"""Section 7.3.1's optimality check — ROD vs the exhaustive optimum.

"In the simulator, we compared the feasible set size of ROD with the
optimal solution on small query graphs ... on two nodes.  The average
feasible set size ratio of ROD to the optimal is 0.95 and the minimum
ratio is 0.82."

This harness brute-forces the volume-maximizing plan (exact polytope
volumes) on a batch of small random graphs and reports the per-graph and
aggregate ROD/optimal ratios.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..core.rod import rod_place
from ..placement.optimal import OptimalPlacer
from .common import make_model

__all__ = ["run", "aggregate"]


def run(
    dimensions: Sequence[int] = (2, 3, 4, 5),
    operators_per_tree: int = 3,
    num_nodes: int = 2,
    graphs_per_dimension: int = 3,
    seed: int = 13,
) -> List[Dict[str, object]]:
    """One row per small random graph with ROD/optimal volume ratio."""
    capacities = [1.0] * num_nodes
    rows = []
    for d in dimensions:
        for g in range(graphs_per_dimension):
            model = make_model(d, operators_per_tree, seed=seed + 100 * d + g)
            rod_plan = rod_place(model, capacities)
            optimal_plan = OptimalPlacer().place(model, capacities)
            rod_volume = rod_plan.feasible_set().exact_volume()
            optimal_volume = optimal_plan.feasible_set().exact_volume()
            ratio = rod_volume / optimal_volume if optimal_volume > 0 else 1.0
            rows.append(
                {
                    "inputs": d,
                    "operators": model.num_operators,
                    "graph": g,
                    "rod_volume": rod_volume,
                    "optimal_volume": optimal_volume,
                    "rod_over_optimal": ratio,
                }
            )
    return rows


def aggregate(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """The two numbers the paper reports: mean and min ratio."""
    ratios = np.array([row["rod_over_optimal"] for row in rows], dtype=float)
    if ratios.size == 0:
        raise ValueError("no rows to aggregate")
    return {
        "mean_ratio": float(ratios.mean()),
        "min_ratio": float(ratios.min()),
    }
