"""Feasible-set volume computation: QMC estimates and exact polytopes."""

from .cache import cache_stats, clear_cache, simplex_points
from .qmc import (
    axis_sampled_fraction,
    binding_axis_order,
    feasible_fraction,
    first_primes,
    halton,
    sample_unit_simplex,
    simplex_from_cube,
    van_der_corput,
)
from .polytope import (
    feasible_volume,
    polytope_vertices,
    polytope_volume,
    simplex_volume,
)

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
