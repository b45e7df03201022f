"""Query graphs, operators and workload-graph generators."""

from .._lazy import lazy_exports

# Imported on first access, so a step that reads a graph does not load
# the generators or the statistics module.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".generator": (
        "RandomGraphConfig",
        "join_graph",
        "monitoring_graph",
        "paper_example3_graph",
        "paper_example_graph",
        "random_tree_graph",
    ),
    ".operators": (
        "Aggregate",
        "Delay",
        "Filter",
        "LinearOperator",
        "Map",
        "Operator",
        "Union",
        "VariableSelectivityOp",
        "WindowJoin",
    ),
    ".partition": ("parallelize_heaviest", "partition_operator"),
    ".query_graph": ("Arc", "QueryGraph", "Stream"),
    ".serialize": (
        "dump_graph",
        "graph_from_dict",
        "graph_to_dict",
        "load_graph",
    ),
    ".stats": (
        "MeasuredStatistics",
        "graph_from_statistics",
        "measure_statistics",
        "measure_statistics_stable",
    ),
})

__all__ = [
    "Aggregate",
    "Arc",
    "Delay",
    "Filter",
    "LinearOperator",
    "Map",
    "MeasuredStatistics",
    "graph_from_statistics",
    "measure_statistics",
    "measure_statistics_stable",
    "Operator",
    "QueryGraph",
    "RandomGraphConfig",
    "Stream",
    "Union",
    "VariableSelectivityOp",
    "WindowJoin",
    "dump_graph",
    "graph_from_dict",
    "graph_to_dict",
    "join_graph",
    "load_graph",
    "monitoring_graph",
    "parallelize_heaviest",
    "partition_operator",
    "paper_example3_graph",
    "paper_example_graph",
    "random_tree_graph",
]
