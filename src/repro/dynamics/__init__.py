"""Dynamic operator migration — the alternative the paper argues against
for short-term load variations (Section 1) — and fault-driven failover
(:mod:`repro.dynamics.failover`), which even a static-resilient
deployment needs when a node crashes outright."""

from .._lazy import lazy_exports

# Imported on first access, so importing one controller module loads
# only what that module needs.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".controller": (
        "LoadBalancingController",
        "Migration",
        "MigrationController",
    ),
    ".elasticity": ("ElasticityController", "Repartition"),
    ".failover": (
        "FAILOVER_POLICIES",
        "FailoverController",
        "residual_volume_ratio",
    ),
    ".state": (
        "MigrationCostModel",
        "graph_state_tuples",
        "operator_state_tuples",
    ),
})

__all__ = [
    "ElasticityController",
    "FAILOVER_POLICIES",
    "FailoverController",
    "LoadBalancingController",
    "Repartition",
    "Migration",
    "MigrationController",
    "MigrationCostModel",
    "graph_state_tuples",
    "operator_state_tuples",
    "residual_volume_ratio",
]
