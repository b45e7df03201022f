"""Experiment harnesses — one module per paper table/figure.

Each module's ``run(...)`` returns the artifact's rows as plain
``list[dict]``.  :data:`repro.paper.ARTIFACTS` maps every artifact id to
its harness call and its paper and quick scales; ``repro-rod experiment
ID`` and ``repro-rod report`` read it.
"""

from .._lazy import lazy_exports

# A harness module is imported when it is first named (``from
# repro.experiments import fig2_traces``), so running one artifact loads
# only the layers its harness uses.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".common": ("ALGORITHMS",),
    ".table": ("format_rows",),
})

__all__ = [
    "ALGORITHMS",
    "ablations",
    "balance_bound",
    "clustering_experiment",
    "dimensions",
    "dynamic_migration",
    "elasticity",
    "fault_tolerance",
    "fidelity",
    "fig2_traces",
    "fig9_plane_distance",
    "format_rows",
    "heterogeneous",
    "latency",
    "linearization_value",
    "lower_bound",
    "nonlinear",
    "optimal_gap",
    "partitioning",
    "qmc_convergence",
    "resiliency",
    "scale_solve",
    "scheduling_ablation",
    "search_gap",
]
