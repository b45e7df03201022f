"""Failover: reassigning operators off crashed nodes.

Where :class:`~repro.dynamics.controller.LoadBalancingController` chases
load, a :class:`FailoverController` reacts to *faults*: the engine calls
``on_node_failed`` the instant a ``node.crash`` fault fires, before any
new work lands, and the controller returns migrations that move the dead
node's operators to survivors.  Crashed state is lost, so each move pays
only the base migration overhead (re-install from scratch) and stalls
only the destination node.

Two target policies:

* ``"volume"`` — the ROD-aware policy.  A crash deletes the failed
  node's hyperplane row from the feasible set; each displaced operator
  goes to the surviving node that maximizes the *residual* feasible-set
  volume ratio (QMC, deterministic), i.e. the reassignment that keeps
  the degraded cluster resilient to the most workloads.
* ``"least_loaded"`` — the classic baseline: each displaced operator
  goes to the survivor with the smallest coefficient-mass load per unit
  capacity.

With ``failback=True`` the controller also moves displaced operators
back to their original node on ``node.recover`` (paying a full
state-dependent pause this time — the operator is live and has state).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.feasible_set import FeasibleSet
from ..core.load_model import LoadModel
from ..obs.log import get_logger
from .controller import Migration, MigrationController
from .state import MigrationCostModel

__all__ = ["FAILOVER_POLICIES", "FailoverController", "residual_volume_ratio"]

FAILOVER_POLICIES = ("volume", "least_loaded")

_LOG = get_logger(__name__)


def residual_volume_ratio(
    model: LoadModel,
    capacities: Sequence[float],
    assignment: Mapping[str, int],
    failed_nodes: Sequence[int] = (),
    samples: int = 512,
    ignore_stranded: bool = False,
) -> float:
    """Feasible-set/ideal volume ratio of the surviving sub-cluster.

    Dropping a node deletes its hyperplane row *and* its capacity from
    the feasible set.  An operator still assigned to a failed node is
    *stranded*: no input-rate point that routes work through it can be
    served, so any stranded operator with nonzero coefficient mass
    collapses the ratio to ``0.0`` — which is exactly why an
    un-failed-over plan scores so poorly here.  ``ignore_stranded=True``
    instead drops stranded operators from the constraint rows (the
    controller's incremental target search rescues them one at a time
    and must not see the not-yet-rescued ones as fatal).  The ideal set
    (the denominator) keeps the full column totals: the ratio is
    measured against what the intact cluster could have served.
    """
    failed = set(int(node) for node in failed_nodes)
    capacities = np.asarray(capacities, dtype=float)
    alive = [n for n in range(capacities.shape[0]) if n not in failed]
    if not alive:
        return 0.0
    rows = np.zeros((len(alive), model.num_variables))
    index_of = {node: i for i, node in enumerate(alive)}
    for name, node in assignment.items():
        if node in failed:
            if not ignore_stranded and float(
                model.coefficients[model.operator_index(name)].sum()
            ) > 0.0:
                return 0.0
            continue
        rows[index_of[node]] += model.coefficients[
            model.operator_index(name)
        ]
    feasible = FeasibleSet(
        node_coefficients=rows,
        capacities=capacities[alive],
        column_totals=model.column_totals(),
    )
    return float(feasible.volume_ratio(samples=samples))


class FailoverController(MigrationController):
    """Reassigns operators off failed nodes; no-op between faults."""

    label = "failover"

    def __init__(
        self,
        period: float = 1.0,
        policy: str = "volume",
        samples: int = 512,
        cost_model: Optional[MigrationCostModel] = None,
        state_tuples: Optional[Mapping[str, float]] = None,
        failback: bool = False,
    ) -> None:
        """``samples`` sizes the QMC residual-volume estimate per
        candidate target (the ``"volume"`` policy tries every surviving
        node for every displaced operator)."""
        super().__init__(
            period, cost_model=cost_model, state_tuples=state_tuples
        )
        if policy not in FAILOVER_POLICIES:
            raise ValueError(
                f"unknown failover policy {policy!r}; "
                f"expected one of {FAILOVER_POLICIES}"
            )
        if samples < 1:
            raise ValueError("samples must be >= 1")
        self.policy = policy
        self.samples = samples
        self.failback = failback
        #: Pre-fault home node per operator (captured on first callback).
        self._home: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------- polling

    def decide(
        self,
        now: float,
        utilizations: np.ndarray,
        assignment: Mapping[str, int],
        model: LoadModel,
        capacities: np.ndarray,
        operator_loads: Optional[Mapping[str, float]] = None,
    ) -> List[Migration]:
        """Failover is event-driven; periodic polls never move anything."""
        self._capture_home(assignment)
        return self._conclude(
            self._begin(utilizations), [], "event-driven-idle"
        )

    # ------------------------------------------------------- fault hooks

    def on_node_failed(
        self,
        now: float,
        node: int,
        assignment: Mapping[str, int],
        model: LoadModel,
        capacities: np.ndarray,
        failed_nodes: Sequence[int],
    ) -> List[Migration]:
        """Migrations evacuating ``node``; called before new work lands.

        ``assignment`` is the routing table at the instant of the crash
        (the evacuated operators are still mapped to ``node``);
        ``failed_nodes`` includes ``node`` itself.
        """
        self._capture_home(assignment)
        record = self._begin((), "fault", int(node))
        failed = set(int(n) for n in failed_nodes) | {int(node)}
        alive = [n for n in range(len(capacities)) if n not in failed]
        if not alive:
            _LOG.debug(
                "t=%.2fs node %d failed but no survivors remain", now, node
            )
            return self._conclude(record, [], "no-survivors")
        displaced = sorted(
            (name for name, host in assignment.items() if host == node),
            key=lambda name: (
                -float(model.coefficients[model.operator_index(name)].sum()),
                name,
            ),
        )
        working = dict(assignment)
        down = tuple(sorted(failed))
        moves: List[Migration] = []
        for name in displaced:
            # Score every surviving candidate (higher is better): the
            # volume policy scores by residual feasible-volume ratio, the
            # baseline by negated load per unit capacity.
            if self.policy == "volume":
                scored = [
                    (candidate, residual_volume_ratio(
                        model, capacities, {**working, name: candidate},
                        failed_nodes=down, samples=self.samples,
                        ignore_stranded=True,
                    ))
                    for candidate in alive
                ]
            else:
                load = dict.fromkeys(alive, 0.0)
                for other, host in working.items():
                    if host in load:
                        load[host] += float(model.coefficients[
                            model.operator_index(other)
                        ].sum())
                scored = [
                    (n, -load[n] / float(capacities[n])) for n in alive
                ]
            target = scored[0][0]
            best_score = -float("inf")
            for candidate, score in scored:
                if score > best_score + 1e-12:
                    best_score = score
                    target = candidate
            if record is not None:
                for candidate, score in scored:
                    record.add_candidate(
                        name, int(node), candidate, score,
                        "chosen" if candidate == target else "outscored",
                    )
            _LOG.debug(
                "t=%.2fs failover %s: node %d -> %d (%s policy)",
                now, name, node, target, self.policy,
            )
            # Crashed state is lost: pay only the base overhead, and only
            # the destination stalls (nothing to serialize on a dead node).
            moves.append(Migration(
                name, node, target, self.cost_model.pause_seconds(0.0)
            ))
            working[name] = target
        return self._conclude(
            record, moves, "migrate" if displaced else "nothing-displaced"
        )

    def on_node_recovered(
        self,
        now: float,
        node: int,
        assignment: Mapping[str, int],
        model: LoadModel,
        capacities: np.ndarray,
        failed_nodes: Sequence[int],
    ) -> List[Migration]:
        """Optional failback: return displaced operators to ``node``."""
        record = self._begin((), "recover", int(node))
        if not self.failback:
            return self._conclude(record, [], "failback-disabled")
        home = self._home or {}
        moves: List[Migration] = []
        for name, host in assignment.items():
            if home.get(name) == node and host != node:
                moves.append(Migration(name, host, node, self._pause(name)))
                if record is not None:
                    record.add_candidate(
                        name, int(host), int(node), 0.0, "chosen"
                    )
        return self._conclude(
            record, moves, "migrate" if moves else "nothing-displaced"
        )

    def _capture_home(self, assignment: Mapping[str, int]) -> None:
        if self._home is None:
            self._home = dict(assignment)
