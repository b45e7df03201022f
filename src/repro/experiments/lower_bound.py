"""Section 6.1's general-lower-bound extension (reconstructed experiment).

When the input rates are known to stay at or above a floor ``B``, the
workload set shrinks to ``{R >= B}`` and ROD's MMPD heuristic should
measure plane distances from the normalized floor ``B̂`` instead of the
origin.  This harness compares, at increasing floor heights:

* plain ROD (origin-centered), evaluated on the restricted workload set;
* lower-bound-aware ROD (``rod_place(..., lower_bound=B)``);
* the LLF balancer tuned exactly to the floor point.

Expected shape: the two ROD variants coincide at ``B = 0``; averaged over
graphs the lower-bound-aware variant pulls clearly ahead once the floor
consumes a substantial share of capacity (plans that spend their slack
below the floor waste it), while at small floors the two are statistically
tied — both being greedy heuristics, either can win on a single graph.
Both dominate the balancer tuned exactly to the floor point.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..core.feasible_set import FeasibleSet
from ..core.plans import Placement
from ..core.rod import rod_place
from ..placement.llf import LLFPlacer
from .common import make_model

__all__ = ["run"]


def _restricted_ratio(
    placement: Placement, lower_bound: np.ndarray, samples: int
) -> float:
    """Feasible fraction of the workload set above the floor."""
    restricted = FeasibleSet(
        node_coefficients=placement.node_coefficients(),
        capacities=placement.capacities,
        column_totals=placement.model.column_totals(),
        lower_bound=lower_bound,
    )
    return restricted.volume_ratio(samples=samples)


def run(
    floor_fractions: Sequence[float] = (0.0, 0.2, 0.4, 0.6),
    num_inputs: int = 4,
    operators_per_tree: int = 8,
    num_nodes: int = 6,
    samples: int = 4096,
    seeds: Sequence[int] = (43, 44, 45, 46),
) -> List[Dict[str, object]]:
    """One row per (floor height, algorithm), averaged over one random
    tree workload per seed (a single graph can favour either variant).

    ``floor_fraction`` f sets an *asymmetric* floor ``B``: the first input
    stream is known to never drop below a rate consuming a fraction ``f``
    of total capacity (``b_0 = f * C_T / l_0``), the others may go to
    zero.  Asymmetry is the interesting case — a symmetric floor shifts
    every plan's feasible set equally, whereas a lopsided one rewards
    plans that spend their slack on the *other* streams (Figure 12).
    """
    if not seeds:
        raise ValueError("seeds must name at least one workload")
    per_seed = [
        _run_one(floor_fractions, num_inputs, operators_per_tree,
                 num_nodes, samples, seed)
        for seed in seeds
    ]
    rows: List[Dict[str, object]] = []
    for i, first in enumerate(per_seed[0]):
        row = dict(first)
        for key in ("restricted_ratio", "plane_distance_from_floor"):
            row[key] = float(np.mean([table[i][key] for table in per_seed]))
        rows.append(row)
    return rows


def _run_one(
    floor_fractions: Sequence[float],
    num_inputs: int,
    operators_per_tree: int,
    num_nodes: int,
    samples: int,
    seed: int,
) -> List[Dict[str, object]]:
    """The rows of one seed's workload."""
    model = make_model(num_inputs, operators_per_tree, seed=seed)
    capacities = np.ones(num_nodes)
    totals = model.column_totals()
    c_t = float(capacities.sum())
    rows: List[Dict[str, object]] = []
    for fraction in floor_fractions:
        if not 0 <= fraction < 1:
            raise ValueError("floor fractions must be in [0, 1)")
        floor = np.zeros(model.num_variables)
        if totals[0] > 0:
            floor[0] = fraction * c_t / totals[0]
        plans = {
            "rod": rod_place(model, capacities),
            "rod_lb": rod_place(model, capacities, lower_bound=floor),
            "llf_at_floor": LLFPlacer(
                rates=np.where(floor > 0, floor, 1.0)
            ).place(model, capacities),
        }
        for name, plan in plans.items():
            rows.append(
                {
                    "floor_fraction": fraction,
                    "algorithm": name,
                    "restricted_ratio": _restricted_ratio(
                        plan, floor, samples
                    ),
                    "plane_distance_from_floor": FeasibleSet(
                        plan.node_coefficients(),
                        capacities,
                        column_totals=totals,
                        lower_bound=floor,
                    ).plane_distance(),
                }
            )
    return rows
