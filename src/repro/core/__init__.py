"""The paper's primary contribution: load model, feasible-set geometry,
the ROD placement algorithm and its extensions."""

from .._lazy import lazy_exports

# Imported on first access, so a step that builds a load model or a
# plan does not load clustering, the text plots or the analysis
# helpers.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".analysis": (
        "BottleneckReport",
        "axis_headroom",
        "bottleneck_report",
        "headroom",
        "resilience_summary",
    ),
    ".clustering": (
        "ClusteredModel",
        "Clustering",
        "ClusteringSearchResult",
        "cluster_operators",
        "communication_feasible_set",
        "search_clusterings",
    ),
    ".feasible_set": ("FeasibleSet",),
    ".linearize": (
        "LinearizationReport",
        "find_cut_streams",
        "linearization_report",
    ),
    ".load_model": ("LoadModel", "build_load_model"),
    ".plans": ("Placement", "diff_placements", "placement_from_mapping"),
    ".rod": ("RodStep", "rod_extend", "rod_order", "rod_place"),
    ".viz": ("compare_feasible_sets", "render_feasible_set"),
})

__all__ = [
    "BottleneckReport",
    "ClusteredModel",
    "axis_headroom",
    "bottleneck_report",
    "headroom",
    "resilience_summary",
    "Clustering",
    "ClusteringSearchResult",
    "FeasibleSet",
    "LinearizationReport",
    "LoadModel",
    "Placement",
    "RodStep",
    "build_load_model",
    "cluster_operators",
    "communication_feasible_set",
    "compare_feasible_sets",
    "diff_placements",
    "render_feasible_set",
    "find_cut_streams",
    "linearization_report",
    "placement_from_mapping",
    "rod_extend",
    "rod_order",
    "rod_place",
    "search_clusterings",
]
