"""Dynamic operator migration controllers.

The alternative the paper argues against for short-term variations:
watch node loads and move operators at run time.  A controller is polled
by the simulator every ``period`` seconds with the utilization each node
accumulated over the last period and may return migrations; each
migration stalls both endpoint nodes for a state-dependent pause
(:class:`~repro.dynamics.state.MigrationCostModel`).

:class:`LoadBalancingController` reproduces the classic reactive scheme:
when the most loaded node exceeds the least loaded by more than a
threshold, move the best-fitting operator across.  Its weakness is
exactly the paper's point — by the time a short burst is observed, paying
hundreds of milliseconds of stall to chase it makes latency worse.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.load_model import LoadModel
from ..obs.log import get_logger
from .state import MigrationCostModel

__all__ = ["Migration", "MigrationController", "LoadBalancingController"]

_LOG = get_logger(__name__)


@dataclass(frozen=True)
class Migration:
    """One operator move decided by a controller."""

    operator: str
    source: int
    target: int
    pause_seconds: float


class MigrationController(abc.ABC):
    """Interface the simulator polls for decisions, plus the bookkeeping
    every controller shares: migration costs, the issued history,
    cooldowns, load smoothing and the decision audit.

    ``cooldown`` (default ``5 * period``) pins a just-reconfigured
    operator or group.  ``state_tuples`` estimates each operator's state
    size (unlisted operators are stateless; see
    :func:`repro.dynamics.state.graph_state_tuples`).  ``slo_watcher``,
    which the simulator feeds every sink latency sample, labels periodic
    deliberations made while it burns as ``slo-burn``.
    """

    #: Controller name on the decision records this controller opens.
    label = "controller"

    def __init__(
        self,
        period: float = 1.0,
        *,
        cooldown: Optional[float] = None,
        cost_model: Optional[MigrationCostModel] = None,
        state_tuples: Optional[Mapping[str, float]] = None,
        slo_watcher: Optional[object] = None,
    ) -> None:
        if not 0 < period < math.inf:
            raise ValueError("control period must be finite and > 0")
        self.period = period
        self.cooldown = 5.0 * period if cooldown is None else float(cooldown)
        # An infinite cooldown never moves an operator twice; NaN fails.
        if not self.cooldown >= 0:
            raise ValueError("cooldown must be >= 0")
        self.cost_model = cost_model or MigrationCostModel()
        self.state_tuples: Dict[str, float] = dict(state_tuples or {})
        self.slo_watcher = slo_watcher
        #: Decision-audit collector (``repro.obs.decisions``).  The
        #: simulator attaches one only while tracing is enabled;
        #: controllers must guard every record-building line on
        #: ``self.telemetry is not None`` so an untraced run allocates
        #: no decision records at all.
        self.telemetry: Optional[object] = None
        #: Every action this controller issued, in time order.
        self.history: List[object] = []
        #: EWMA factor for operator-load smoothing; reactive controllers
        #: must filter per-period measurement noise or they chase it.
        self.smoothing = 0.5
        self._smoothed_loads: Dict[str, float] = {}
        self._last_action: Dict[str, float] = {}

    def _begin(self, loads: Sequence[float], trigger: str = "periodic",
               node: Optional[int] = None):
        """Open a decision record, or ``None`` when untraced.

        A periodic deliberation while the SLO watcher is burning is
        recorded as ``slo-burn``, with the burn rate.
        """
        if self.telemetry is None:
            return None
        watcher = self.slo_watcher
        burning = (
            trigger == "periodic" and watcher is not None and watcher.burning
        )
        return self.telemetry.begin(
            trigger="slo-burn" if burning else trigger,
            controller=self.label,
            loads=loads,
            node=node,
            burn_rate=float(watcher.last_burn_rate) if burning else None,
        )

    def _conclude(self, record, actions: list, reason: str) -> list:
        """Close a deliberation: note its outcome on the decision record
        (if any) and the issued ``actions`` in the history."""
        if record is not None:
            record.actions = len(actions)
            record.reason = reason
        self.history.extend(actions)
        return actions

    def _smooth_loads(self, operator_loads: Mapping[str, float]) -> None:
        """Fold one period's measured operator loads into the EWMA."""
        for name, value in operator_loads.items():
            value = float(value)
            previous = self._smoothed_loads.get(name, value)
            self._smoothed_loads[name] = (
                self.smoothing * value + (1 - self.smoothing) * previous
            )

    def _cooling(self, key: str, now: float) -> bool:
        """Whether ``key`` was reconfigured less than a cooldown ago."""
        return now - self._last_action.get(key, -math.inf) < self.cooldown

    def _pause(self, name: str) -> float:
        """Migration pause for ``name`` at its estimated state size."""
        return self.cost_model.pause_seconds(self.state_tuples.get(name, 0.0))

    @abc.abstractmethod
    def decide(
        self,
        now: float,
        utilizations: np.ndarray,
        assignment: Mapping[str, int],
        model: LoadModel,
        capacities: np.ndarray,
        operator_loads: Optional[Mapping[str, float]] = None,
    ) -> List[Migration]:
        """Return migrations to apply at time ``now`` (may be empty).

        ``operator_loads`` carries each operator's measured CPU demand
        (fraction of one CPU) over the last control period — the per-
        operator statistics a Borealis-style monitor provides.
        """


class LoadBalancingController(MigrationController):
    """Reactive pairwise balancing with state-aware migration costs.

    The cooldown is the usual anti-thrashing guard of reactive
    balancers; see :class:`MigrationController` for the shared
    parameters.
    """

    label = "balance"

    def __init__(
        self,
        period: float = 1.0,
        imbalance_threshold: float = 0.2,
        max_moves_per_period: int = 1,
        cooldown: Optional[float] = None,
        cost_model: Optional[MigrationCostModel] = None,
        state_tuples: Optional[Mapping[str, float]] = None,
        slo_watcher: Optional[object] = None,
    ) -> None:
        super().__init__(
            period, cooldown=cooldown, cost_model=cost_model,
            state_tuples=state_tuples, slo_watcher=slo_watcher,
        )
        if imbalance_threshold < 0:
            raise ValueError("imbalance threshold must be >= 0")
        if max_moves_per_period < 1:
            raise ValueError("max_moves_per_period must be >= 1")
        self.imbalance_threshold = imbalance_threshold
        self.max_moves_per_period = max_moves_per_period
        self._smoothed: Optional[np.ndarray] = None

    def decide(
        self,
        now: float,
        utilizations: np.ndarray,
        assignment: Mapping[str, int],
        model: LoadModel,
        capacities: np.ndarray,
        operator_loads: Optional[Mapping[str, float]] = None,
    ) -> List[Migration]:
        moves: List[Migration] = []
        raw = np.asarray(utilizations, dtype=float)
        record = self._begin(raw)
        if self._smoothed is None or self._smoothed.shape != raw.shape:
            self._smoothed = raw.copy()
        else:
            self._smoothed = (
                self.smoothing * raw + (1 - self.smoothing) * self._smoothed
            )
        utilizations = self._smoothed.copy()
        self._smooth_loads(operator_loads or {})
        working = dict(assignment)

        def load_of(name: str) -> float:
            measured = self._smoothed_loads.get(name)
            if measured is not None:
                return measured
            # Monitoring fallback, per operator: apportion demand by
            # coefficient mass when this operator has no measured
            # statistics yet (other operators having some must not make
            # an unmeasured one look idle and unmovable).
            return float(model.coefficients[model.operator_index(name)].sum())

        reason = "below-threshold"
        exhausted = False
        for _ in range(self.max_moves_per_period):
            busiest = int(np.argmax(utilizations))
            calmest = int(np.argmin(utilizations))
            gap = utilizations[busiest] - utilizations[calmest]
            if busiest == calmest or gap < self.imbalance_threshold:
                break
            # Move the operator whose measured demand best matches half
            # the gap — the standard even-out move.  Never move more than
            # the whole gap (that would just flip the imbalance), and
            # never a zero-demand operator (nothing to even out) — such
            # candidates are skipped, not allowed to abandon the period.
            target = gap / 2.0 * capacities[busiest]

            def score(transfer: float) -> float:
                return -abs(transfer * capacities[busiest] - target)

            candidates = []
            for name, node in working.items():
                if node != busiest:
                    continue
                if self._cooling(name, now):
                    if record is not None:
                        record.add_candidate(
                            name, busiest, calmest,
                            -abs(load_of(name) - target),
                            "cooldown-pinned",
                        )
                else:
                    candidates.append(name)
            if not candidates:
                reason = "cooldown-pinned"
                break
            movable = []
            for name in candidates:
                transfer = load_of(name) / capacities[busiest]
                if 0.0 < transfer <= gap:
                    movable.append((name, transfer))
                elif record is not None:
                    record.add_candidate(
                        name, busiest, calmest, score(transfer),
                        "out-of-range",
                    )
            if not movable:
                # Every transfer is zero or exceeds the gap.
                reason = "no-valid-candidate"
                break
            best, transfer = max(movable, key=lambda item: score(item[1]))
            if record is not None:
                for name, option in movable:
                    record.add_candidate(
                        name, busiest, calmest, score(option),
                        "chosen" if name == best else "outscored",
                    )
            pause = self._pause(best)
            move = Migration(best, busiest, calmest, pause)
            _LOG.debug(
                "t=%.2fs migrate %s: node %d -> %d (gap %.3f, "
                "transfer %.3f, pause %.3fs)",
                now, best, busiest, calmest, gap, transfer, pause,
            )
            moves.append(move)
            self._last_action[best] = now
            working[best] = calmest
            utilizations[busiest] -= transfer
            utilizations[calmest] += (
                transfer * capacities[busiest] / capacities[calmest]
            )
        else:
            exhausted = True
        if moves:
            # "max-moves-exhausted" flags that the per-period budget — not
            # restored balance — stopped the deliberation.
            reason = "max-moves-exhausted" if exhausted else "migrate"
        elif reason != "below-threshold":
            _LOG.debug(
                "t=%.2fs gap %.3f over threshold on node %d, no move: %s",
                now, gap, busiest, reason,
            )
        return self._conclude(record, moves, reason)
