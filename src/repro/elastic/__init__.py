"""Elastic operator parallelism: skew-aware splitting and merging.

This package holds the key-space machinery shared by the two halves of
elasticity:

* :mod:`repro.elastic.skew` — a PYTHONHASHSEED-independent unit hash,
  :class:`KeyHistogram` for observed key-frequency tracking with
  balanced hash-range cuts, and :func:`rebalanced_fractions` for
  load-proportional range corrections.
* :mod:`repro.elastic.program` — :func:`partition_program`, the runtime
  rewrite splitting one functional operator into key-partitioned
  parallel instances with semantic transparency.

The consumers live with their siblings:
:class:`repro.placement.elastic.ElasticPlacer` (placement-time
split/merge against the load model) and
:class:`repro.dynamics.elasticity.ElasticityController` (runtime
skew-aware repartitioning applied by the simulator).
"""

from .._lazy import lazy_exports

# Imported on first access, so the elasticity controller's key-range
# arithmetic (``repro.elastic.skew``) does not load the program rewrite
# and, through it, ``repro.runtime``.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".program": ("partition_program",),
    ".skew": (
        "KeyHistogram",
        "rebalanced_fractions",
        "stable_key_hash",
        "stable_unit_hash",
    ),
})

__all__ = [
    "KeyHistogram",
    "partition_program",
    "rebalanced_fractions",
    "stable_key_hash",
    "stable_unit_hash",
]
