"""Controller decision telemetry: audit every migration (and non-move).

The dynamics controllers (`repro.dynamics.controller`,
`repro.dynamics.failover`) decide, reject, and apply migrations; until
now only the final ``migration.applied`` event survived in the trace.
This module is the audit trail:

* :class:`DecisionTelemetry` — a collector the simulator attaches to a
  controller (duck-typed ``controller.telemetry`` attribute) **only when
  tracing is enabled**.  Controllers guard every record-building line on
  ``self.telemetry is not None``, so the disabled-tracing hot path
  allocates nothing (``benchmark_obs_overhead.py`` asserts this).
* :class:`DecisionRecord` / :class:`CandidateRecord` — one deliberation
  with the trigger (periodic / slo-burn / fault / recover, plus
  split / merge for elastic repartitioning), the observed
  per-node load snapshot, every candidate migration considered with its
  policy score, and the outcome: ``migrate`` or a structured no-op
  reason (:data:`NOOP_REASONS`).
* The trace side — :func:`decision_snapshot` and :func:`why_json_obj`,
  built on the decision and migration views of
  :class:`repro.obs.index.RunIndex`, and :func:`render_why_report`,
  which renders the latter's payload — which the ``repro-rod why``
  CLI, the HTML report's decision-timeline panel, and the run-registry
  snapshot build on.  Every ``migration.applied`` event
  carries the ``decision`` id of the record that caused it, and
  ``node.stall`` events carry it too, so reconfiguration pauses are
  attributable to the decision that triggered them.

Scores are policy-specific but always *higher is better*: the balance
policy scores a candidate by how close its transfer lands to half the
load gap (negated distance), the volume failover policy by the residual
feasible-volume ratio the cluster would keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from .index import Trace, as_index

__all__ = [
    "ACTION_MIGRATE",
    "NOOP_REASONS",
    "CandidateRecord",
    "DecisionRecord",
    "DecisionTelemetry",
    "decision_snapshot",
    "render_why_report",
    "why_json_obj",
]

#: Outcome when at least one migration was issued.
ACTION_MIGRATE = "migrate"

#: The structured reasons a deliberation can end without (further) moves.
NOOP_REASONS = (
    "below-threshold",      # load gap under the imbalance threshold
    "cooldown-pinned",      # every candidate moved too recently
    "no-valid-candidate",   # no operator's transfer fits the gap
    "max-moves-exhausted",  # per-period move budget hit, still imbalanced
    "event-driven-idle",    # failover controller's periodic poll (no-op)
    "no-survivors",         # node failed with no alive node to evacuate to
    "nothing-displaced",    # node failed/recovered with nothing to move
    "failback-disabled",    # node recovered but failback is off
    "unobserved",           # synthesized for controllers without telemetry
    "no-partition-groups",  # elastic controller on an unpartitioned graph
    "partitions-balanced",  # every partition group within the hot threshold
    "repartition-cooldown",  # imbalanced group rebalanced too recently
)


@dataclass
class CandidateRecord:
    """One migration the controller weighed (chosen or not)."""

    operator: str
    source: int
    target: int
    score: float
    status: str  # "chosen" | "outscored" | "cooldown-pinned" | ...

    def to_json_obj(self) -> Dict[str, object]:
        return {
            "operator": self.operator,
            "source": self.source,
            "target": self.target,
            "score": self.score,
            "status": self.status,
        }


@dataclass
class DecisionRecord:
    """One controller deliberation, as built by the controller itself."""

    trigger: str                     # periodic | slo-burn | fault | recover
    controller: str                  # policy name ("balance", "failover")
    loads: List[float]               # observed per-node load snapshot
    reason: str = "below-threshold"  # outcome: ACTION_MIGRATE or a no-op
    actions: int = 0                 # migrations issued this deliberation
    node: Optional[int] = None       # fault/recover trigger node
    burn_rate: Optional[float] = None
    candidates: List[CandidateRecord] = field(default_factory=list)

    def add_candidate(
        self, operator: str, source: int, target: int,
        score: float, status: str,
    ) -> None:
        self.candidates.append(
            CandidateRecord(operator=operator, source=source,
                            target=target, score=float(score),
                            status=status)
        )


class DecisionTelemetry:
    """Collector the engine attaches to a controller while tracing.

    Controllers call :meth:`begin` once per deliberation and mutate the
    returned record; the engine :meth:`drain`-s the pending records
    after each ``decide()`` / failover-hook call and emits one
    ``decision.evaluated`` trace event per record.
    """

    def __init__(self) -> None:
        self._pending: List[DecisionRecord] = []
        self.records_created = 0

    def begin(
        self,
        trigger: str,
        controller: str,
        loads: Sequence[float],
        node: Optional[int] = None,
        burn_rate: Optional[float] = None,
    ) -> DecisionRecord:
        record = DecisionRecord(
            trigger=trigger,
            controller=controller,
            loads=[float(value) for value in loads],
            node=node,
            burn_rate=burn_rate,
        )
        self._pending.append(record)
        self.records_created += 1
        return record

    def drain(self) -> List[DecisionRecord]:
        pending, self._pending = self._pending, []
        return pending


# ---------------------------------------------------------------- trace side


def decision_snapshot(events: Trace) -> Dict[str, object]:
    """Diffable summary of decision/drift activity for ``result.json``.

    Keys are stable and flat-ish so ``repro-rod compare`` can walk them;
    zero-valued sections are still emitted (a controller-less run reads
    as "0 decisions", which is itself a diffable fact).
    """
    index = as_index(events)
    views = index.decisions
    explanations = index.migrations
    triggers: Dict[str, int] = {}
    no_op: Dict[str, int] = {}
    rejected = 0
    for view in views:
        triggers[view.trigger] = triggers.get(view.trigger, 0) + 1
        if view.actions == 0:
            no_op[view.reason] = no_op.get(view.reason, 0) + 1
        rejected += len(view.rejected)
    linked = sum(1 for e in explanations if e.decision is not None)
    return {
        "evaluated": len(views),
        "migrations": len(explanations),
        "linked_migrations": linked,
        "rejected_candidates": rejected,
        "pause_seconds": round(
            sum(e.pause_served for e in explanations), 9
        ),
        "triggers": dict(sorted(triggers.items())),
        "no_op": dict(sorted(no_op.items())),
    }


# ------------------------------------------------------------------ rendering


def _fmt_volume(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{float(value):.4f}"


def why_json_obj(events: Trace) -> Dict[str, object]:
    """The ``repro-rod why --json`` payload, which
    :func:`render_why_report` renders as text."""
    index = as_index(events)
    return {
        "summary": decision_snapshot(index),
        "migrations": [
            {
                "t": e.t,
                "operator": e.operator,
                "source": e.source,
                "target": e.target,
                "pause": e.pause,
                "pause_served": e.pause_served,
                "reason": e.reason,
                "decision": None if e.decision is None else {
                    "id": e.decision.decision,
                    "t": e.decision.t,
                    "trigger": e.decision.trigger,
                    "controller": e.decision.controller,
                    "loads": list(e.decision.loads),
                    "volume_before": e.decision.volume_before,
                    "volume_after": e.decision.volume_after,
                    "burn_rate": e.decision.burn_rate,
                    "candidates": [dict(c) for c in e.decision.candidates],
                },
            }
            for e in index.migrations
        ],
        "no_op_decisions": [
            {
                "id": view.decision,
                "t": view.t,
                "trigger": view.trigger,
                "controller": view.controller,
                "reason": view.reason,
                "candidates": [dict(c) for c in view.candidates],
            }
            for view in index.decisions
            if view.actions == 0
        ],
        "drift": index.drift,
    }


def render_why_report(document: Mapping[str, Any]) -> str:
    """Human-readable ``repro-rod why`` verdict of a
    :func:`why_json_obj` payload."""
    migrations = document["migrations"]
    snapshot = document["summary"]
    drift = document["drift"]
    lines = []
    lines.append(
        f"decisions evaluated : {snapshot['evaluated']}"
    )
    lines.append(
        f"migrations applied  : {snapshot['migrations']} "
        f"({snapshot['linked_migrations']} linked to a decision)"
    )
    lines.append(
        f"candidates rejected : {snapshot['rejected_candidates']}"
    )
    lines.append(
        f"pause attributed    : {snapshot['pause_seconds']:.3f}s of "
        "endpoint stall"
    )
    for label, key in (("triggers", "triggers"), ("no-op reasons", "no_op")):
        counts: Any = snapshot[key]
        if counts:
            cells = ", ".join(f"{name}={n}" for name, n in counts.items())
            lines.append(f"{label:<20}: {cells}")

    if drift:
        lines.append("")
        lines.append(f"drift detections ({len(drift)}):")
        for f in drift:
            where = (
                f" input={f['input']}" if "input" in f else ""
            )
            lines.append(
                f"  t={f['t']:>8.2f}s  {f['signal']}{where} "
                f"{f['direction']}: observed {float(f['observed']):.3f} "
                f"vs baseline {float(f['baseline']):.3f} "
                f"(stat {float(f['statistic']):.3f} > "
                f"{float(f['threshold']):.3f})"
            )

    if migrations:
        lines.append("")
        lines.append(f"migrations ({len(migrations)}):")
    for e in migrations:
        lines.append(
            f"  t={e['t']:>8.2f}s  {e['operator']}: node {e['source']} -> "
            f"{e['target']}  [{e['reason']}]  pause={e['pause']:.3f}s "
            f"(served {e['pause_served']:.3f}s)"
        )
        view = e["decision"]
        if view is None:
            lines.append(
                "      (no decision record — trace predates decision "
                "telemetry)"
            )
            continue
        loads = ", ".join(f"{load:.3f}" for load in view["loads"])
        lines.append(
            f"      decision #{view['id']} trigger={view['trigger']} "
            f"controller={view['controller']}  loads=[{loads}]"
        )
        if (view["volume_before"] is not None
                or view["volume_after"] is not None):
            lines.append(
                "      feasible volume "
                f"{_fmt_volume(view['volume_before'])} -> "
                f"{_fmt_volume(view['volume_after'])}"
            )
        rejected = [
            cand for cand in view["candidates"]
            if cand.get("status") != "chosen"
        ]
        if rejected:
            lines.append(
                f"      rejected alternatives ({len(rejected)}):"
            )
            for cand in rejected:
                lines.append(
                    f"        {cand.get('operator')}: node "
                    f"{cand.get('source')} -> {cand.get('target')} "
                    f"score={float(cand.get('score', 0.0)):.4f} "
                    f"[{cand.get('status')}]"
                )

    no_ops = document["no_op_decisions"]
    if no_ops:
        lines.append("")
        lines.append(f"no-op periods ({len(no_ops)}):")
        preview = no_ops if len(no_ops) <= 12 else no_ops[:12]
        for view in preview:
            lines.append(
                f"  t={view['t']:>8.2f}s  #{view['id']} "
                f"trigger={view['trigger']} reason={view['reason']}"
            )
        if len(no_ops) > len(preview):
            lines.append(
                f"  ... and {len(no_ops) - len(preview)} more"
            )
    return "\n".join(lines)
