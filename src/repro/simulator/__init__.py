"""Discrete-event distributed stream-processing simulator."""

from .._lazy import lazy_exports

# Imported on first access, so trace analyzers that need only
# ``metrics.LatencyStats`` do not load the engine and the placers.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".engine": ("Simulator",),
    ".feasibility": ("FeasibilityProbe", "empirical_feasible_fraction"),
    ".metrics": ("LatencyStats", "SimulationResult"),
    ".runtime": ("OperatorRuntime", "make_runtime"),
})

__all__ = [
    "FeasibilityProbe",
    "LatencyStats",
    "OperatorRuntime",
    "SimulationResult",
    "Simulator",
    "empirical_feasible_fraction",
    "make_runtime",
]
