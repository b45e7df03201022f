"""Placement algorithms: ROD plus the baselines of Section 7.2."""

from .._lazy import lazy_exports

# Imported on first access, so placing with one algorithm does not
# load the other placers.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".annealing": ("AnnealingPlacer",),
    ".base": ("Placer",),
    ".connected": ("ConnectedPlacer",),
    ".correlation": ("CorrelationPlacer", "correlation_coefficient"),
    ".elastic": ("ElasticPlacer",),
    ".hierarchical": ("HierarchicalPlacer", "RestrictedModel"),
    ".llf": ("LLFPlacer",),
    ".milp": ("MilpBalancePlacer",),
    ".optimal": ("OptimalPlacer", "enumerate_assignments"),
    ".random_placer": ("RandomPlacer",),
    ".rod_placer": ("RODPlacer",),
})

__all__ = [
    "AnnealingPlacer",
    "ConnectedPlacer",
    "CorrelationPlacer",
    "ElasticPlacer",
    "HierarchicalPlacer",
    "LLFPlacer",
    "MilpBalancePlacer",
    "OptimalPlacer",
    "Placer",
    "RODPlacer",
    "RandomPlacer",
    "RestrictedModel",
    "correlation_coefficient",
    "enumerate_assignments",
]
