"""Figure 15 — varying the number of input streams.

Ratio of each competitor's feasible-set size to ROD's, as the number of
input streams (dimensions) grows.  Expected shape: ROD's relative
advantage increases with dimensionality (each extra input brings a
roughly constant relative improvement), with the 2-input case slightly
off-trend because so few operators per node limit every algorithm's
choices.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .common import ALGORITHMS, make_model, mean_volume_ratio

__all__ = ["run"]


def run(
    input_counts: Sequence[int] = (2, 3, 4, 5, 6, 7),
    operators_per_tree: int = 20,
    num_nodes: int = 10,
    repeats: int = 8,
    samples: int = 4096,
    seed: int = 21,
) -> List[Dict[str, object]]:
    """One row per (number of inputs, algorithm) with ratio to ROD."""
    capacities = [1.0] * num_nodes
    rows: List[Dict[str, object]] = []
    for d in input_counts:
        model = make_model(d, operators_per_tree, seed=seed + d)
        ratios = {
            name: mean_volume_ratio(
                name,
                model,
                capacities,
                repeats=repeats,
                samples=samples,
                base_seed=seed + 17 * d,
            )
            for name in ALGORITHMS
        }
        for name in ALGORITHMS:
            if name == "rod":
                continue
            rows.append(
                {
                    "inputs": d,
                    "algorithm": name,
                    "ratio_to_rod": ratios[name] / ratios["rod"],
                    "rod_ratio_to_ideal": ratios["rod"],
                }
            )
    return rows
