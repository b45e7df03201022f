"""Feasible-set volume computation: QMC estimates and exact polytopes."""

from ..._lazy import lazy_exports

# Imported on first access, so importing one kernel module loads only
# what that module needs.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".cache": ("cache_stats", "clear_cache", "simplex_points"),
    ".polytope": (
        "feasible_volume",
        "polytope_vertices",
        "polytope_volume",
        "simplex_volume",
    ),
    ".qmc": (
        "axis_sampled_fraction",
        "binding_axis_order",
        "feasible_fraction",
        "first_primes",
        "halton",
        "sample_unit_simplex",
        "simplex_from_cube",
        "van_der_corput",
    ),
})

__all__ = [
    "axis_sampled_fraction",
    "binding_axis_order",
    "cache_stats",
    "clear_cache",
    "feasible_fraction",
    "feasible_volume",
    "first_primes",
    "halton",
    "polytope_vertices",
    "polytope_volume",
    "sample_unit_simplex",
    "simplex_from_cube",
    "simplex_points",
    "simplex_volume",
    "van_der_corput",
]
