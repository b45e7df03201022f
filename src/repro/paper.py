"""The paper's artifacts: one id, one harness call, one parameter set.

:data:`ARTIFACTS` maps each artifact id to its title, its harness call,
the keyword overrides that shrink it to the quick scale, and whether the
harness fans its runs out over ``jobs`` worker processes.  ``repro-rod
experiment ID`` runs one artifact at paper scale; ``repro-rod report -o
FILE`` renders every artifact (or the ``--only`` ones) at either scale
into one markdown document.

Paper scale is the harness called with no override: its defaults are
the parameters ``benchmarks/test_*.py`` run, which wrote the committed
``benchmarks/results`` tables.  The quick scale applies the overrides
and nothing else.

The CLI parser takes its id choices from this table, so importing it
loads no harness, no NumPy and not :mod:`repro.experiments`: a harness
is imported when its artifact runs.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Mapping, NamedTuple

__all__ = ["ARTIFACTS", "Artifact", "run"]

Rows = List[Dict[str, object]]


class Artifact(NamedTuple):
    """One paper artifact: how to run it, at both scales."""

    title: str
    #: Called with keyword overrides (none at paper scale).
    harness: Callable[..., Rows]
    #: The overrides of the quick scale.
    quick: Mapping[str, object]
    #: Whether the harness takes ``jobs=`` (identical rows for any value).
    takes_jobs: bool = False


def _harness(module: str, function: str = "run") -> Callable[..., Rows]:
    """``repro.experiments.<module>.<function>``, imported when called."""

    def call(**overrides: object) -> Rows:
        harness = importlib.import_module(f"repro.experiments.{module}")
        return getattr(harness, function)(**overrides)

    return call


def _fig9(**overrides: object) -> Rows:
    """Figure 9's scatter of random plans, binned by plane distance."""
    from .experiments import fig9_plane_distance

    return fig9_plane_distance.binned(fig9_plane_distance.run(**overrides))


def _optimal_gap(**overrides: object) -> Rows:
    """Per-graph ROD/optimal ratios, then the aggregate row."""
    from .experiments import optimal_gap

    rows = optimal_gap.run(**overrides)
    return rows + [{"inputs": "", "operators": "", "graph": "aggregate",
                    **optimal_gap.aggregate(rows)}]


def _ablations(**overrides: object) -> Rows:
    """The operator-ordering ablation, then the Class I policies."""
    from .experiments import ablations

    return ablations.run_ordering(**overrides) + [
        {"ordering": f"class-one policy: {row['policy']}",
         "volume_ratio": row["volume_ratio"],
         "plane_distance": row["plane_distance"],
         "inter_node_arcs": row["inter_node_arcs"]}
        for row in ablations.run_class_one_policy(**overrides)
    ]


#: Every artifact, in the paper's order; the report renders them so.
ARTIFACTS: Dict[str, Artifact] = {
    "fig2": Artifact(
        "Figure 2 — trace burstiness and self-similarity",
        _harness("fig2_traces"), {"steps": 2048}),
    "fig9": Artifact(
        "Figure 9 — volume ratio vs plane distance",
        _fig9, {"count": 200, "samples": 1024}),
    "fig14": Artifact(
        "Figure 14 — base resiliency results",
        _harness("resiliency"),
        {"operator_counts": (40, 80), "repeats": 3, "graph_repeats": 1,
         "samples": 1024},
        takes_jobs=True),
    "optimal-gap": Artifact(
        "§7.3.1 — ROD vs exhaustive optimum",
        _optimal_gap, {"dimensions": (2, 3), "graphs_per_dimension": 2}),
    "fig15": Artifact(
        "Figure 15 — varying the number of inputs",
        _harness("dimensions"),
        {"input_counts": (2, 3, 4), "operators_per_tree": 8, "repeats": 2,
         "samples": 1024},
        takes_jobs=True),
    "latency": Artifact(
        "Latency under bursty replay (reconstructed)",
        _harness("latency"), {"steps": 200}),
    "lower-bound": Artifact(
        "§6.1 lower-bound extension (reconstructed)",
        _harness("lower_bound"), {"samples": 1024, "seeds": (43,)}),
    "nonlinear": Artifact(
        "§6.2 non-linear join workloads (reconstructed)",
        _harness("nonlinear"), {"directions": 10, "repeats": 2}),
    "clustering": Artifact(
        "§6.3 operator clustering (reconstructed)",
        _harness("clustering_experiment"), {"samples": 1024}),
    "dynamic": Artifact(
        "§1 static resilience vs reactive migration (reconstructed)",
        _harness("dynamic_migration"), {"steps": 150}),
    "heterogeneous": Artifact(
        "Heterogeneous clusters (reconstructed)",
        _harness("heterogeneous"),
        {"operators_per_tree": 8, "repeats": 2, "samples": 1024,
         "profiles": ("uniform", "skewed")}),
    "partitioning": Artifact(
        "§7.3.1 data partitioning (reconstructed)",
        _harness("partitioning"), {"samples": 1024}),
    "fidelity": Artifact(
        "Simulator fidelity check",
        _harness("fidelity"), {"points": 10, "duration": 5.0}),
    "protocol": Artifact(
        "Borealis probing protocol vs QMC",
        _harness("fidelity", "run_protocol_comparison"),
        {"points": 20, "duration": 5.0}),
    "ablations": Artifact(
        "Design-choice ablations", _ablations, {"samples": 1024}),
    "balance-bound": Artifact(
        "ROD vs exact MILP balance optimum",
        _harness("balance_bound"),
        {"graph_seeds": (3, 5), "samples": 1024}),
    "qmc-convergence": Artifact(
        "Halton vs Monte Carlo convergence",
        _harness("qmc_convergence"), {"sample_counts": (256, 1024)}),
    "scheduling": Artifact(
        "Node scheduling policy ablation",
        _harness("scheduling_ablation"), {"steps": 150}),
    "linearization": Artifact(
        "§6.2 variable-selectivity linearization value",
        _harness("linearization_value"),
        {"workload_seeds": tuple(range(4))}),
    "search-gap": Artifact(
        "Greedy ROD vs direct volume search",
        _harness("search_gap"),
        {"budgets": (("polish", 1000), ("scratch-short", 1000))}),
    # Quick enough at paper scale (a few seconds each): no overrides.
    "fault-tolerance": Artifact(
        "Node-crash failover vs static placements (reconstructed)",
        _harness("fault_tolerance"), {}, takes_jobs=True),
    "elasticity": Artifact(
        "Elastic operator parallelism vs static placement (extension)",
        _harness("elasticity"), {}),
    "scale-solve": Artifact(
        "Flat annealing vs hierarchical placement at scale (extension)",
        _harness("scale_solve"), {}),
}


def run(artifact_id: str, quick: bool = False, jobs: int = 1) -> Rows:
    """One artifact's rows, at paper scale or with its quick overrides.

    ``jobs`` reaches only the harnesses that take it; their rows are
    identical for any value.
    """
    artifact = ARTIFACTS[artifact_id]
    overrides = dict(artifact.quick) if quick else {}
    if artifact.takes_jobs:
        overrides["jobs"] = jobs
    return artifact.harness(**overrides)
