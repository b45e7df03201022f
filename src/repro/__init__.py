"""Resilient Operator Distribution (ROD) for distributed stream processing.

A faithful, self-contained reproduction of

    Ying Xing, Jeong-Hyon Hwang, Uğur Çetintemel, Stan Zdonik.
    "Providing Resiliency to Load Variations in Distributed Stream
    Processing."  VLDB 2006.

Quickstart
----------
>>> from repro import build_load_model, rod_place
>>> from repro.graphs import random_tree_graph
>>> graph = random_tree_graph(seed=0)
>>> model = build_load_model(graph)
>>> plan = rod_place(model, capacities=[1.0, 1.0, 1.0, 1.0])
>>> 0.0 < plan.volume_ratio() <= 1.0
True

Package map
-----------
``repro.core``
    Load models, feasible-set geometry, the ROD algorithm, clustering.
``repro.graphs``
    Operators, query graphs, workload-graph generators.
``repro.placement``
    Baseline placers the paper compares against.
``repro.simulator``
    Discrete-event distributed stream-processing simulator (the Borealis
    stand-in).
``repro.workload``
    Bursty/self-similar rate traces and rate-point samplers.
``repro.experiments``
    One harness per table/figure of the paper's evaluation.
"""

from ._lazy import lazy_exports

# Imported on first access: ``import repro.obs.trace`` must not load the
# engine, the placers and NumPy through this package.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": (
        "FeasibleSet",
        "LoadModel",
        "Placement",
        "build_load_model",
        "placement_from_mapping",
        "rod_extend",
        "rod_place",
    ),
    ".deploy": ("Deployment",),
    ".graphs": ("QueryGraph",),
})

__version__ = "1.0.0"

__all__ = [
    "Deployment",
    "FeasibleSet",
    "LoadModel",
    "Placement",
    "QueryGraph",
    "build_load_model",
    "placement_from_mapping",
    "rod_extend",
    "rod_place",
    "__version__",
]
