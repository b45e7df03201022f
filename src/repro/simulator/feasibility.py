"""Empirical feasibility probing (the Borealis protocol of Section 7.1).

The prototype experiments measure feasible-set size by running the system
at sampled workload points and checking whether any node saturates.  This
module reproduces that protocol on the simulator: run each candidate rate
point for a fixed horizon and declare it feasible iff no node's demand
reaches its capacity and all queues drain.

The ``fidelity`` experiment cross-checks these empirical verdicts
against the analytic predicate ``L^n R <= C``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.plans import Placement
from ..graphs.query_graph import TransferCosts
from ..obs.trace import Tracer
from .engine import Simulator

__all__ = ["FeasibilityProbe", "empirical_feasible_fraction"]


@dataclass(frozen=True)
class FeasibilityProbe:
    """Configuration of the utilization probe.

    ``tracer``, if given, receives one ``feasibility.probe`` event per
    verdict (rates, feasibility, peak utilization) — the probe itself
    runs the simulator untraced, so sweeping many rate points does not
    flood the event stream with per-batch records.
    """

    duration: float = 20.0
    step_seconds: float = 0.1
    utilization_threshold: float = 0.99
    transfer_costs: TransferCosts = 0.0
    arrival_kind: str = "deterministic"
    seed: Optional[int] = None
    tracer: Optional[Tracer] = None

    def is_feasible(
        self, placement: Placement, input_rates: Sequence[float]
    ) -> bool:
        """Run the placement at constant ``input_rates`` and probe it."""
        simulator = Simulator(
            placement,
            step_seconds=self.step_seconds,
            transfer_costs=self.transfer_costs,
            arrival_kind=self.arrival_kind,
            seed=self.seed,
        )
        result = simulator.run(rates=input_rates, duration=self.duration)
        verdict = result.is_feasible(
            utilization_threshold=self.utilization_threshold,
            # A drained system may still carry up to one batch of residual
            # service time; tolerate a step's worth.
            backlog_tolerance=self.step_seconds,
        )
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                "feasibility.probe",
                rates=[float(r) for r in input_rates],
                feasible=verdict,
                max_utilization=result.max_utilization,
                backlog_seconds=float(result.backlog_seconds.max()),
            )
        return verdict


def empirical_feasible_fraction(
    placement: Placement,
    rate_points: np.ndarray,
    probe: Optional[FeasibilityProbe] = None,
) -> float:
    """Fraction of the given physical rate points that probe feasible.

    When the points are drawn uniformly from the ideal feasible set (see
    :func:`repro.workload.rates.ideal_rate_points`), this estimates the
    same ratio-to-ideal that the QMC volume computation returns — but by
    actually running the system, as the Borealis experiments did.
    """
    points = np.asarray(rate_points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"rate_points must be 2-D, got shape {points.shape}")
    if points.shape[0] == 0:
        raise ValueError("need at least one rate point")
    probe = probe or FeasibilityProbe()
    verdicts = [
        probe.is_feasible(placement, points[i]) for i in range(points.shape[0])
    ]
    return float(np.mean(verdicts))
