"""Figure 14 — base resiliency results.

Average feasible-set size (relative to the ideal set, and relative to
ROD's) achieved by each algorithm on random query graphs with a growing
number of operators.  Expected shape (Section 7.3.1): ROD on top and
approaching the ideal as operators increase; Correlation-based the best
baseline; Random and LLF in the middle; Connected worst.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .common import ALGORITHMS, make_model, volume_ratio_runs

__all__ = ["run"]

DEFAULT_OPERATOR_COUNTS = (40, 80, 120, 160, 200)


def run(
    operator_counts: Sequence[int] = DEFAULT_OPERATOR_COUNTS,
    num_inputs: int = 5,
    num_nodes: int = 10,
    repeats: int = 10,
    graph_repeats: int = 3,
    samples: int = 4096,
    graph_seed: int = 7,
    algorithms: Sequence[str] = ALGORITHMS,
) -> List[Dict[str, object]]:
    """One row per (operator count, algorithm).

    ``ratio_to_ideal`` reproduces Figure 14(a); ``ratio_to_rod``
    reproduces Figure 14(b).  Results average over ``graph_repeats``
    independently generated workload graphs per size (and, within each,
    over ``repeats`` randomized runs of the rate-dependent baselines);
    ``std`` is the spread across all of an algorithm's runs.
    """
    if graph_repeats < 1:
        raise ValueError("graph_repeats must be >= 1")
    capacities = [1.0] * num_nodes
    rows: List[Dict[str, object]] = []
    for total_ops in operator_counts:
        if total_ops % num_inputs:
            raise ValueError(
                f"operator count {total_ops} is not a multiple of "
                f"{num_inputs} inputs (the paper uses equal-size trees)"
            )
        runs: Dict[str, List[float]] = {name: [] for name in algorithms}
        for g in range(graph_repeats):
            model = make_model(
                num_inputs, total_ops // num_inputs,
                seed=graph_seed + 7919 * g,
            )
            for name in algorithms:
                runs[name].extend(
                    volume_ratio_runs(
                        name,
                        model,
                        capacities,
                        repeats=repeats,
                        samples=samples,
                        base_seed=graph_seed + total_ops + 31 * g,
                    )
                )
        rod_ratio = (
            float(np.mean(runs["rod"])) if "rod" in runs else None
        )
        for name in algorithms:
            values = np.asarray(runs[name])
            row: Dict[str, object] = {
                "operators": total_ops,
                "algorithm": name,
                "ratio_to_ideal": float(values.mean()),
                "std": float(values.std()),
            }
            if rod_ratio:
                row["ratio_to_rod"] = float(values.mean()) / rod_ratio
            rows.append(row)
    return rows
