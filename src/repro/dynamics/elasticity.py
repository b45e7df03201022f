"""Skew-aware runtime repartitioning of partitioned operators.

Where :class:`~repro.dynamics.controller.LoadBalancingController` moves
whole operators between nodes, the :class:`ElasticityController`
rebalances *within* a partitioned operator: when one key-partitioned
instance runs hot (the key distribution drifted away from whatever the
partition fractions assumed), it reassigns key-range fractions across
the group's instances instead of paying a full operator migration.  The
engine applies a :class:`Repartition` by swapping the group's router
selectivities in place — a migration-like reconfiguration that stalls
the group's host nodes for a state-handoff pause but never changes the
operator-to-node assignment.

Fraction targets come from an observed
:class:`~repro.elastic.skew.KeyHistogram` when one is registered for the
operator (exact balanced hash ranges), and otherwise from the
proportional correction of :func:`~repro.elastic.skew.rebalanced_fractions`
(size each range inversely to its measured load density).

Decision audit: deliberations are recorded like any controller's, with
trigger ``split`` when a hot instance forced a rebalance and ``merge``
when a cold group was reset to uniform fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.load_model import LoadModel
from ..elastic.skew import rebalanced_fractions
from ..obs.log import get_logger
from .controller import MigrationController
from .state import MigrationCostModel

__all__ = ["Repartition", "ElasticityController"]

_LOG = get_logger(__name__)


@dataclass(frozen=True)
class Repartition:
    """Reassign key-range fractions across one partition group.

    ``fractions[i]`` is the key-space share the group's ``i``-th
    instance should own after the reconfiguration.  The group's host
    nodes stall for ``pause_seconds`` while key ranges (and any keyed
    state) hand over.
    """

    operator: str
    fractions: Tuple[float, ...]
    pause_seconds: float


class ElasticityController(MigrationController):
    """Rebalances key ranges inside partition groups; never migrates.

    Parameters
    ----------
    hot_threshold:
        A group rebalances when its hottest instance's load exceeds
        ``hot_threshold`` times the group mean.
    cold_load:
        A group whose total measured load is below this (CPU fraction)
        while its fractions are skewed is reset to uniform — the merge
        analogue: skew corrections are not worth tracking on a cold
        group.
    min_fraction:
        Floor on any instance's key-range share.
    histograms:
        Optional ``{base operator: KeyHistogram}``; listed groups get
        exact balanced ranges instead of the proportional correction.

    The remaining parameters are described on
    :class:`~repro.dynamics.controller.MigrationController`.
    """

    label = "elastic"

    def __init__(
        self,
        period: float = 1.0,
        hot_threshold: float = 1.5,
        cold_load: float = 0.05,
        cooldown: Optional[float] = None,
        min_fraction: float = 0.01,
        smoothing: float = 0.5,
        cost_model: Optional[MigrationCostModel] = None,
        state_tuples: Optional[Mapping[str, float]] = None,
        histograms: Optional[Mapping[str, object]] = None,
        slo_watcher: Optional[object] = None,
    ) -> None:
        super().__init__(
            period, cooldown=cooldown, cost_model=cost_model,
            state_tuples=state_tuples, slo_watcher=slo_watcher,
        )
        if hot_threshold <= 1.0:
            raise ValueError("hot_threshold must be > 1")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.hot_threshold = hot_threshold
        self.cold_load = cold_load
        self.min_fraction = min_fraction
        self.smoothing = smoothing
        self.histograms = dict(histograms or {})
        #: Current fractions per group (authoritative once we reconfigure).
        self._fractions: Dict[str, Tuple[float, ...]] = {}

    def decide(
        self,
        now: float,
        utilizations: np.ndarray,
        assignment: Mapping[str, int],
        model: LoadModel,
        capacities: np.ndarray,
        operator_loads: Optional[Mapping[str, float]] = None,
    ) -> List[Repartition]:
        record = self._begin(utilizations)
        groups = model.graph.partition_groups
        if not groups:
            return self._conclude(record, [], "no-partition-groups")
        self._smooth_loads(operator_loads or {})
        actions: List[Repartition] = []
        saw_split = False
        saw_cooldown = False
        for base in sorted(groups):
            group = groups[base]
            current = self._fractions.get(base, tuple(group.fractions))
            loads = [self._smoothed_loads.get(p, 0.0) for p in group.parts]
            total = sum(loads)
            if total <= 0.0:
                continue
            mean = total / group.ways
            hottest = max(range(group.ways), key=lambda i: (loads[i], -i))
            coldest = min(range(group.ways), key=lambda i: (loads[i], i))
            imbalance = loads[hottest] / mean
            uniform_gap = max(abs(f - 1.0 / group.ways) for f in current)
            hot = imbalance > self.hot_threshold
            cold_reset = total < self.cold_load and uniform_gap > 1e-6
            if not hot and not cold_reset:
                continue
            if self._cooling(base, now):
                saw_cooldown = True
                if record is not None:
                    record.add_candidate(
                        base, hottest, coldest, -imbalance,
                        "cooldown-pinned",
                    )
                continue
            if hot:
                histogram = self.histograms.get(base)
                if histogram is not None:
                    # Route selectivities are tuple-mass shares; the
                    # histogram's balanced cut is expressed in key-range
                    # widths, so convert via its observed distribution.
                    fractions = histogram.observed_shares(
                        histogram.fractions(group.ways)
                    )
                else:
                    fractions = rebalanced_fractions(
                        current, loads, min_fraction=self.min_fraction
                    )
                saw_split = True
            else:
                fractions = (1.0 / group.ways,) * group.ways
            pause = self._pause(base)
            move = Repartition(base, tuple(float(f) for f in fractions), pause)
            _LOG.debug(
                "t=%.2fs repartition %s: imbalance %.3f, fractions %s "
                "(pause %.3fs)",
                now, base, imbalance, fractions, pause,
            )
            actions.append(move)
            self._fractions[base] = move.fractions
            self._last_action[base] = now
            if record is not None:
                record.add_candidate(
                    base, hottest, coldest, -imbalance, "chosen"
                )
        if actions and record is not None:
            record.trigger = "split" if saw_split else "merge"
        return self._conclude(
            record, actions,
            "repartition" if actions
            else "repartition-cooldown" if saw_cooldown
            else "partitions-balanced",
        )
