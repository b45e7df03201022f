"""Discrete-event simulator for distributed stream processing.

The Borealis stand-in: a cluster of single-CPU nodes, each running the
operators a :class:`~repro.core.plans.Placement` assigned to it.  Tuples
arrive in per-step batches from the input streams, flow through operator
runtimes (costs, selectivities, join windows), and cross the network —
charging CPU on both endpoints — whenever an arc spans two nodes.

Each node serves one batch at a time at its capacity (CPU-seconds of
operator work per wall-clock second); pending batches wait in a
per-node queue whose service order is set by a scheduling policy
(:mod:`repro.simulator.scheduling`).  The engine records per-node
utilization and backlog plus end-to-end tuple latency at every sink,
which is everything Section 7's prototype experiments measure.

An optional :class:`~repro.faults.FaultSchedule` injects timed system
faults — node crashes/recoveries, capacity brownouts, per-operator
slowdowns, input-rate spikes — at event-queue priority ahead of control
polls at the same timestamp.  A crashed node finishes its in-flight
batch (fail-stop at batch granularity), then serves nothing until it
recovers.  Fault application is deterministic: the same schedule and
seed always produce bit-identical traces and results.

An optional :class:`~repro.dynamics.controller.MigrationController`
makes the deployment reactive.  Every controller reaction takes one
path — observe, ask the controller, record the decision, reconfigure —
whatever triggered it: a ``periodic`` poll (``decide``, every
``controller.period`` seconds, with each node's recent utilization), a
``fault`` (``on_node_failed``) or a ``recover`` (``on_node_recovered``);
without those optional hooks a crashed node's queued work strands.  A
returned ``Migration`` reroutes its operator, drags its queued batches
along and stalls both endpoints for the state-dependent pause (Section
1) — only the destination on failover, whose source is dead.  A
``Repartition`` swaps a partition group's key-range fractions and stalls
every node hosting the group.

The engine is instrumented for :mod:`repro.obs`: pass a ``tracer`` to
stream typed events (``sim.start``/``sim.end``, batch enqueue/service,
node busy/idle transitions, migration decisions) and a ``metrics``
registry to collect run counters and latency quantiles.  Each traced
batch gets a causal span id at creation: ``batch.enqueued`` opens the
span (naming the ``parent`` span whose completion produced a derived
batch) and ``batch.serviced`` closes it, so the pair links every batch
to the source injection it descends from — see :mod:`repro.obs.spans`.
Both default to disabled, and every hot-path emit is guarded on
``tracer.enabled``, so an uninstrumented run allocates no event
objects at all.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..core.plans import Placement
from ..dynamics.controller import Migration
from ..dynamics.elasticity import Repartition
from ..dynamics.failover import residual_volume_ratio
from ..faults.schedule import FaultEvent, FaultSchedule
from ..graphs.operators import Filter
from ..obs.decisions import DecisionRecord, DecisionTelemetry
from ..obs.drift import DriftDetection, DriftMonitor, record_drift_metrics
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..workload.arrivals import ArrivalProcess
from .metrics import LatencyStats, OperatorStats, SimulationResult
from .runtime import OperatorRuntime, make_runtime
from .scheduling import SchedulerQueue, Stall

__all__ = ["Simulator"]

TransferCosts = Union[float, Mapping[str, float]]
#: What a controller deliberation returns, one reconfiguration each.
Action = Union[Migration, Repartition]

# Event priorities at equal timestamps: faults first (the system changes
# before anything reacts to it), then controls (migrations take effect
# before new work lands), then completions, then arrivals.
# Drift detections share the fault priority so a ``drift.detected``
# event always lands before any same-instant control reaction.
_FAULT, _CONTROL, _COMPLETION, _ARRIVAL = 0, 1, 2, 3

#: Fault kinds a controller reacts to: its hook and the decision trigger.
_FAULT_HOOKS = {
    "node.crash": ("on_node_failed", "fault"),
    "node.recover": ("on_node_recovered", "recover"),
}

#: Fault kinds that hold for a window; overlapping ones compound.
_WINDOWED = ("node.degrade", "operator.slowdown")

#: QMC sample count for the per-poll feasible-volume drift signal —
#: small on purpose: it runs once per control period, not per batch.
_DRIFT_VOLUME_SAMPLES = 128


def _transfer_cost(costs: TransferCosts, stream: str) -> float:
    if isinstance(costs, Mapping):
        value = float(costs.get(stream, 0.0))
    else:
        value = float(costs)
    if value < 0 or not math.isfinite(value):
        raise ValueError(f"transfer cost for {stream!r} must be finite >= 0")
    return value


@dataclass(frozen=True)
class _Batch:
    """A batch of identical-age tuples bound for one operator port."""

    birth: float        # when the originating source tuples entered
    arrival: float      # when this batch reached its current operator
    operator: str
    port: int
    count: int
    extra_work: float = 0.0  # receive-side network CPU, unit capacity
    span: int = -1      # causal span id; -1 when tracing is disabled


@dataclass(frozen=True)
class _Completion:
    """A node finishing its current queue entry."""

    node: int
    batch: Optional[_Batch]          # None for stalls
    out_count: int = 0
    deliveries: Tuple[Tuple[str, int, float], ...] = ()
    work: float = 0.0
    start: float = 0.0               # when the node began serving it
    decision: int = -1               # stall-causing decision id (stalls)


@dataclass(frozen=True)
class _FaultRevert:
    """A windowed fault (degrade/slowdown) expiring."""

    event: FaultEvent


class Simulator:
    """Simulate a placed query graph under a rate workload."""

    def __init__(
        self,
        placement: Placement,
        step_seconds: float = 0.1,
        transfer_costs: TransferCosts = 0.0,
        arrival_kind: str = "deterministic",
        seed: Optional[int] = None,
        controller: Optional[object] = None,
        scheduling: str = "fifo",
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        """``controller``, if given, is a ``MigrationController`` polled
        every ``controller.period`` seconds to move operators at run
        time; ``scheduling`` picks the per-node service discipline.
        ``tracer`` streams structured run events (disabled by default);
        ``metrics`` collects run counters/gauges after the event loop.
        ``faults`` is a :class:`~repro.faults.FaultSchedule` of timed
        system faults to inject (validated eagerly against the cluster
        and graph shape)."""
        if step_seconds <= 0:
            raise ValueError("step_seconds must be > 0")
        self.placement = placement
        self.graph = placement.model.graph
        for op in self.graph.operators():
            window = getattr(op, "window", None)
            if window is not None and step_seconds > window / 2.0:
                raise ValueError(
                    f"{op.name}: simulation step {step_seconds:g}s exceeds "
                    f"the join half-window {window / 2.0:g}s; batch "
                    "arrivals would misstate the pairing load — use "
                    "step_seconds well below window/2 (window/4 or finer "
                    "recommended)"
                )
        self.step_seconds = float(step_seconds)
        self.transfer_costs = transfer_costs
        self.arrival_kind = arrival_kind
        self.seed = seed
        self.controller = controller
        self.scheduling = scheduling
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.faults = faults
        if faults is not None:
            faults.validate(
                placement.num_nodes, self.graph.operator_names
            )
        SchedulerQueue(scheduling)  # validate the policy eagerly
        # (consumer operator, port) pairs per stream, precomputed.
        self._routes: Dict[str, List[Tuple[str, int]]] = {}
        for stream in self.graph.streams():
            routes = []
            for consumer in self.graph.consumers_of(stream.name):
                for port, s in enumerate(self.graph.inputs_of(consumer)):
                    if s == stream.name:
                        routes.append((consumer, port))
            self._routes[stream.name] = routes

    # ------------------------------------------------------------------ run

    def run(
        self,
        rate_series: Optional[np.ndarray] = None,
        rates: Optional[Sequence[float]] = None,
        duration: Optional[float] = None,
    ) -> SimulationResult:
        """Simulate either a rate time series or a constant rate point.

        ``rate_series`` has shape ``(steps, num_inputs)``, one row per
        ``step_seconds``.  Alternatively pass constant ``rates`` plus a
        ``duration`` in seconds.  Arrivals stop at the horizon; processing
        continues until every queued tuple drains, so latency of
        backlogged tuples is fully observed.
        """
        series = self._resolve_series(rate_series, rates, duration)
        if self.faults is not None:
            series = self.faults.apply_rate_events(
                series, self.step_seconds
            )
        steps = series.shape[0]
        horizon = steps * self.step_seconds
        n = self.placement.num_nodes
        # ``capacities`` is the live vector (brownout faults rewrite it
        # mid-run); ``nominal`` reports end-of-run utilization.
        nominal = self.placement.capacities
        capacities = nominal.copy()

        # Hoisted observability state: `tracing` is the single hot-path
        # guard — when False, no trace call runs and no event object is
        # ever allocated.
        tracer = self.tracer
        tracing = tracer.enabled
        # Span ids link every batch to its causal parent.  They are
        # allocated at batch creation, only while tracing, so a disabled
        # run leaves every batch at span=-1; a derived batch's parent id
        # waits in ``parents`` until its enqueue event carries it.
        span_ids = itertools.count()
        parents: Dict[int, int] = {}
        # A controller-attached SloWatcher is fed every sink latency
        # sample regardless of tracing (labelling decisions as
        # SLO-triggered must not change what the controller does).
        slo_watcher = getattr(self.controller, "slo_watcher", None)
        # Decision audit + drift detection exist only while tracing: the
        # telemetry collector is attached to the controller here (and
        # detached after the loop), so the untraced path never allocates
        # a decision record.  A controller that never opens a record
        # gets a synthesized one per deliberation (``deliberate``).
        telemetry: Optional[DecisionTelemetry] = None
        drift_monitor: Optional[DriftMonitor] = None
        decision_seq = itertools.count(1)
        decision_counts: Counter = Counter()
        if tracing:
            drift_monitor = DriftMonitor()
            if self.controller is not None:
                telemetry = DecisionTelemetry()
                self.controller.telemetry = telemetry
            tracer.emit(
                "sim.start", t=0.0, nodes=n,
                operators=len(self.graph.operator_names),
                step_seconds=self.step_seconds, horizon=horizon,
                capacities=[float(c) for c in capacities],
                scheduling=self.scheduling, arrival_kind=self.arrival_kind,
            )

        runtimes: Dict[str, OperatorRuntime] = {
            op.name: make_runtime(op) for op in self.graph.operators()
        }
        queues = [SchedulerQueue(self.scheduling) for _ in range(n)]
        busy = [False] * n
        last_free = np.zeros(n)
        node_work = np.zeros(n)
        timeline = np.zeros((steps, n))

        latency = LatencyStats()
        sink_latency: Dict[str, LatencyStats] = {}
        operator_stats: Dict[str, OperatorStats] = {
            name: OperatorStats() for name in self.graph.operator_names
        }
        tuples_in = 0
        tuples_out = 0
        migrations: List[object] = []
        # Repartitions are kept apart from migrations: they stall nodes
        # like a migration but never change the assignment, and the
        # migration-derived metrics (count, total pause) must not see
        # them.
        repartitions: List[Action] = []

        # Fault state: crashed nodes serve nothing; ``slow`` multiplies
        # per-batch operator cost during slowdown windows.  ``windows``
        # keeps the factors of every open degrade/slowdown window per
        # target, so overlapping windows compound.
        failed = [False] * n
        slow: Dict[str, float] = {}
        windows: Dict[Tuple[object, ...], List[float]] = {}
        applied_faults: List[FaultEvent] = []

        # Mutable routing table: starts at the static placement; a
        # controller may rewrite it mid-run.
        assignment: Dict[str, int] = {
            name: self.placement.node_of(name)
            for name in self.graph.operator_names
        }

        sequence = itertools.count()
        events: List[Tuple[float, int, int, object]] = []

        def push_event(time: float, priority: int, payload: object) -> None:
            heapq.heappush(events, (time, priority, next(sequence), payload))

        def start_service(node: int, now: float) -> None:
            """Begin serving the next queue entry on an idle node."""
            entry = queues[node].pop()
            busy[node] = True
            if isinstance(entry, Stall):
                work = entry.duration * capacities[node]
                push_event(
                    now + entry.duration,
                    _COMPLETION,
                    _Completion(node=node, batch=None, work=work,
                                start=now, decision=entry.decision),
                )
                return
            batch: _Batch = entry
            runtime = runtimes[batch.operator]
            work, out_count = runtime.process(
                batch.arrival, batch.port, batch.count
            )
            slow_factor = slow.get(batch.operator)
            if slow_factor is not None:
                work *= slow_factor
            stats = operator_stats[batch.operator]
            stats.tuples_in += batch.count
            stats.tuples_out += out_count
            stats.work_seconds += work
            work += batch.extra_work

            out_stream = self.graph.output_of(batch.operator).name
            send_work = 0.0
            deliveries: List[Tuple[str, int, float]] = []
            if out_count > 0:
                for consumer, port in self._routes[out_stream]:
                    recv = 0.0
                    if assignment[consumer] != node:
                        per_tuple = _transfer_cost(
                            self.transfer_costs, out_stream
                        )
                        send_work += per_tuple * out_count
                        recv = per_tuple * out_count
                    deliveries.append((consumer, port, recv))
            total_work = work + send_work
            push_event(
                now + total_work / capacities[node],
                _COMPLETION,
                _Completion(
                    node=node,
                    batch=batch,
                    out_count=out_count,
                    deliveries=tuple(deliveries),
                    work=total_work,
                    start=now,
                ),
            )

        def enqueue(batch: _Batch) -> None:
            node = assignment[batch.operator]
            queues[node].push(batch)
            if tracing:
                parent = parents.pop(batch.span, None)
                tracer.emit(
                    "batch.enqueued",
                    t=batch.arrival,
                    node=node,
                    operator=batch.operator,
                    port=batch.port,
                    count=batch.count,
                    span=batch.span,
                    birth=batch.birth,
                    **({} if parent is None else {"parent": parent}),
                )
            if not busy[node] and not failed[node]:
                if tracing:
                    tracer.emit("node.busy", t=batch.arrival, node=node)
                start_service(node, batch.arrival)

        # Control polls.
        last_work = np.zeros(n)
        last_op_work = dict.fromkeys(self.graph.operator_names, 0.0)
        if self.controller is not None:
            period = float(self.controller.period)
            t = period
            while t < horizon + period:
                push_event(t, _CONTROL, None)
                t += period

        # Fault events, plus revert markers for windowed faults.
        if self.faults is not None:
            for fault in self.faults:
                push_event(fault.time, _FAULT, fault)
                if fault.duration is not None and fault.kind in _WINDOWED:
                    push_event(
                        fault.time + fault.duration, _FAULT,
                        _FaultRevert(fault),
                    )

        # Arrival-rate drift: stream the resolved series (rate.spike
        # faults already folded in) through per-input Page–Hinkley
        # detectors.  The detectors are causal — each verdict sees only
        # rows up to its step — so only the trigger times are known up
        # front; each detection is enqueued at fault priority and its
        # event therefore precedes any same-instant control reaction.
        if drift_monitor is not None:
            for detection in drift_monitor.scan_rate_series(
                series, self.step_seconds
            ):
                push_event(detection.t, _FAULT, detection)

        def wake(node: int, now: float) -> None:
            """Start serving on ``node`` if it is idle, up and has work."""
            if busy[node] or failed[node] or queues[node].is_empty:
                return
            if tracing:
                tracer.emit("node.busy", t=now, node=node)
            start_service(node, now)

        def reconfigure(
            action: Action, now: float, decision: int, trigger: str
        ) -> None:
            """Apply one controller action; a stale one is dropped.

            A :class:`Migration` reroutes its operator, hands its queued
            batches to the target and stalls both endpoints — only the
            destination on failover (``fault`` trigger), the one move
            allowed to touch a dead node.  A :class:`Repartition`
            rebuilds its group's route runtimes with the new fractions
            (the shared graph is never mutated) and stalls every node
            hosting a route or instance.  Stalls last
            ``action.pause_seconds`` and carry the causing ``decision``.
            """
            if isinstance(action, Repartition):
                group = self.graph.partition_groups.get(action.operator)
                if group is None or len(action.fractions) != group.ways:
                    return  # stale: group gone or the wrong width
                for route, fraction in zip(group.routes, action.fractions):
                    runtimes[route] = make_runtime(Filter(
                        route, cost=self.graph.operator(route).costs[0],
                        selectivity=float(fraction),
                    ))
                stalled: Sequence[int] = sorted({
                    assignment[name]
                    for name in (*group.routes, *group.parts)
                })
                ledger: List[Action] = repartitions
                kind = "elastic.repartition"
                fields: Dict[str, object] = {
                    "fractions": [float(f) for f in action.fractions],
                    "pause": action.pause_seconds,
                }
            else:
                source, target = action.source, action.target
                # Polled moves are traced as decided even when stale.
                if tracing and trigger == "periodic":
                    tracer.emit(
                        "migration.decided", t=now,
                        operator=action.operator, source=source,
                        target=target, pause=action.pause_seconds,
                        decision=decision,
                    )
                failover = trigger == "fault"
                if assignment.get(action.operator) != source:
                    return  # stale: the operator already moved
                if not failover and (failed[source] or failed[target]):
                    return  # a blind reactive move involving a dead node
                assignment[action.operator] = target
                for batch in queues[source].take_operator(action.operator):
                    queues[target].push(batch)
                stalled = (target,) if failover else (source, target)
                ledger = migrations
                kind = "migration.applied"
                fields = {
                    "source": source, "target": target,
                    "pause": action.pause_seconds,
                    "reason": "failover" if failover else "balance",
                }
            for node in stalled:
                queues[node].push_stall(action.pause_seconds, decision)
                wake(node, now)
            ledger.append(action)
            if tracing:
                tracer.emit(kind, t=now, operator=action.operator, **fields,
                            decision=decision)

        def down_nodes() -> List[int]:
            return [i for i, f in enumerate(failed) if f]

        def sample_volume(current: Mapping[str, int]) -> float:
            """Feasible-volume ratio of the (degraded) cluster now."""
            return residual_volume_ratio(
                self.placement.model, capacities, current,
                failed_nodes=down_nodes(), samples=_DRIFT_VOLUME_SAMPLES,
                ignore_stranded=True,
            )

        def volume_after(actions: Sequence[Action]) -> Optional[float]:
            """Ratio the cluster would keep once ``actions`` apply."""
            if not actions:
                return None
            trial = dict(assignment)
            for action in actions:
                # Only a migration has a source; a repartition keeps the
                # operator-to-node assignment.
                source = getattr(action, "source", None)
                if source is not None and trial.get(action.operator) == source:
                    trial[action.operator] = action.target
            return sample_volume(trial)

        def emit_drift(detection: DriftDetection) -> None:
            fields = asdict(detection)
            if detection.input is None:
                del fields["input"]
            tracer.emit("drift.detected", **fields)

        def deliberate(
            trigger: str, now: float, hook: Callable[[], Sequence[Action]],
            node: Optional[int] = None, loads: Optional[np.ndarray] = None,
        ) -> None:
            """One controller deliberation, whatever triggered it.

            While tracing, samples the feasible volume kept now (a
            ``periodic`` sample also feeds the drift detector).  Then asks
            the controller (``hook()``) for actions, emits one
            ``decision.evaluated`` per record — synthesized, carrying
            ``loads``, if the controller opened none — and applies every
            action, tagged with the last record's id.
            """
            volume_before: Optional[float] = None
            if drift_monitor is not None:
                volume_before = sample_volume(assignment)
                if trigger == "periodic":
                    detection = drift_monitor.observe(
                        "feasible_volume", now, volume_before
                    )
                    if detection is not None:
                        emit_drift(detection)
            actions = list(hook())
            decision = -1
            if tracing:
                records = [] if telemetry is None else telemetry.drain()
                if not records:
                    records = [DecisionRecord(
                        trigger, type(self.controller).__name__, [],
                        reason="migrate" if actions else "unobserved",
                        actions=len(actions), node=node,
                    )]
                volumes = (
                    ("volume_before", volume_before),
                    ("volume_after", volume_after(actions)),
                )
                for record in records:
                    decision = next(decision_seq)
                    decision_counts[record.trigger] += 1
                    if not record.loads and loads is not None:
                        record.loads = [float(value) for value in loads]
                    candidates = [c.to_json_obj() for c in record.candidates]
                    extra = {
                        key: value
                        for key, value in (
                            ("candidates", candidates or None),
                            ("node", record.node),
                            ("burn_rate", record.burn_rate),
                            *volumes,
                        )
                        if value is not None
                    }
                    tracer.emit(
                        "decision.evaluated", t=now, decision=decision,
                        trigger=record.trigger, controller=record.controller,
                        reason=record.reason, actions=record.actions,
                        loads=list(record.loads), **extra,
                    )
            for action in actions:
                reconfigure(action, now, decision, trigger)

        # Source arrivals.
        for k, input_name in enumerate(self.graph.input_names):
            process = ArrivalProcess(
                series[:, k],
                self.step_seconds,
                kind=self.arrival_kind,
                seed=None if self.seed is None else self.seed * 8191 + k,
            )
            routes = self._routes[input_name]
            for start, count in process.steps():
                tuples_in += count
                for consumer, port in routes:
                    push_event(
                        start,
                        _ARRIVAL,
                        _Batch(birth=start, arrival=start,
                               operator=consumer, port=port, count=count,
                               span=next(span_ids) if tracing else -1),
                    )

        def set_window(fault: FaultEvent, opening: bool) -> None:
            """Open or close a degrade/slowdown window on its target.

            The live factor is the product of the target's open windows,
            recomputed from the list (never divided back out): closing an
            inner window leaves an outer one in force, and a lone window
            applies exactly its own factor.
            """
            factors = windows.setdefault(
                (fault.kind, fault.node, fault.operator), []
            )
            if opening:
                factors.append(fault.factor)
            else:
                factors.remove(fault.factor)
            factor = math.prod(factors)
            if fault.kind == "node.degrade":
                capacities[fault.node] = nominal[fault.node] * factor
            elif factors:
                slow[fault.operator] = factor
            else:
                del slow[fault.operator]

        def apply_fault(fault: FaultEvent, now: float) -> None:
            applied_faults.append(fault)
            if tracing:
                fields = fault.to_json_obj()
                del fields["time"]
                tracer.emit("fault.injected", t=now, **fields)
            if fault.kind in _FAULT_HOOKS:
                failed[fault.node] = fault.kind == "node.crash"
                name, trigger = _FAULT_HOOKS[fault.kind]
                hook = getattr(self.controller, name, None)
                if hook is not None:
                    deliberate(trigger, now, lambda: hook(
                        now, fault.node, assignment, self.placement.model,
                        capacities, down_nodes(),
                    ), node=fault.node)
                # A recovered node resumes whatever queued while it was
                # down (a crashed one stays quiet).
                wake(fault.node, now)
            elif fault.kind in _WINDOWED:
                set_window(fault, True)
            # rate.spike was folded into the series before arrivals were
            # generated; its fault.injected event above is informational.

        def revert_fault(fault: FaultEvent, now: float) -> None:
            if tracing:
                tracer.emit(
                    "fault.reverted", t=now, kind=fault.kind,
                    **(
                        {"node": fault.node} if fault.node is not None
                        else {"operator": fault.operator}
                    ),
                )
            set_window(fault, False)

        # Event loop.
        while events:
            time, priority, _, payload = heapq.heappop(events)

            if priority == _FAULT:
                if isinstance(payload, _FaultRevert):
                    revert_fault(payload.event, time)
                elif isinstance(payload, DriftDetection):
                    emit_drift(payload)
                else:
                    apply_fault(payload, time)
                continue

            if priority == _CONTROL:
                recent = (node_work - last_work) / (capacities * period)
                last_work = node_work.copy()
                op_loads = {}
                for name, stats in operator_stats.items():
                    op_loads[name] = (
                        stats.work_seconds - last_op_work[name]
                    ) / period
                    last_op_work[name] = stats.work_seconds
                deliberate("periodic", time, lambda: self.controller.decide(
                    time, recent, assignment, self.placement.model,
                    capacities, operator_loads=op_loads,
                ), loads=recent)
                continue

            if priority == _ARRIVAL:
                enqueue(payload)
                continue

            # Completion.
            completion: _Completion = payload
            node = completion.node
            node_work[node] += completion.work
            bin_index = min(int(time / self.step_seconds), steps - 1)
            timeline[bin_index, node] += completion.work
            batch = completion.batch
            # A completion with output and no onward deliveries produced
            # sink tuples: their end-to-end latency is known here, and the
            # trace carries it on the serviced event so analyzers can
            # rebuild LatencyStats exactly (repro.obs.analyze).
            sink_stream: Optional[str] = None
            if (batch is not None and completion.out_count > 0
                    and not completion.deliveries):
                sink_stream = self.graph.output_of(batch.operator).name
            if tracing:
                if batch is None:
                    tracer.emit(
                        "node.stall", t=time, node=node,
                        work=completion.work,
                        start=completion.start,
                        **(
                            {"decision": completion.decision}
                            if completion.decision >= 0 else {}
                        ),
                    )
                else:
                    # Sink services carry the identical latency float the
                    # engine records below, so trace analyzers reconcile
                    # with SimulationResult bit-for-bit.
                    extra = (
                        {} if sink_stream is None
                        else {"sink": sink_stream,
                              "latency": time - batch.birth}
                    )
                    tracer.emit(
                        "batch.serviced",
                        t=time,
                        node=node,
                        operator=batch.operator,
                        port=batch.port,
                        count=batch.count,
                        out=completion.out_count,
                        work=completion.work,
                        span=batch.span,
                        start=completion.start,
                        **extra,
                    )
            if batch is not None and completion.out_count > 0:
                if completion.deliveries:
                    for consumer, port, recv in completion.deliveries:
                        span = -1
                        if tracing:
                            span = next(span_ids)
                            parents[span] = batch.span
                        push_event(
                            time,
                            _ARRIVAL,
                            _Batch(birth=batch.birth, arrival=time,
                                   operator=consumer, port=port,
                                   count=completion.out_count,
                                   extra_work=recv,
                                   span=span),
                        )
                elif sink_stream is not None:
                    tuples_out += completion.out_count
                    sample = time - batch.birth
                    latency.record(sample, completion.out_count)
                    sink_latency.setdefault(
                        sink_stream, LatencyStats()
                    ).record(sample, completion.out_count)
                    if slo_watcher is not None:
                        slo_watcher.observe(
                            time, sample, completion.out_count
                        )
            if queues[node].is_empty or failed[node]:
                # A crashed node goes quiet after its in-flight batch
                # even if work is still queued (it resumes on recovery).
                busy[node] = False
                last_free[node] = time
                if tracing:
                    tracer.emit("node.idle", t=time, node=node)
            else:
                start_service(node, time)

        utilization = node_work / (nominal * horizon)
        backlog = np.maximum(last_free - horizon, 0.0)
        # Tuples still queued when the event loop drained: work stranded
        # on nodes that were down (or degraded past the horizon) with no
        # failover to rescue it.
        stranded = sum(queues[node].queued_tuples() for node in range(n))
        if tracing:
            extra_end: Dict[str, object] = {}
            if self.faults is not None:
                extra_end["faults"] = len(applied_faults)
                extra_end["stranded_tuples"] = stranded
            if repartitions:
                extra_end["repartitions"] = len(repartitions)
            tracer.emit(
                "sim.end", t=horizon,
                node_busy=[float(w) for w in node_work],
                tuples_in=tuples_in, tuples_out=tuples_out,
                max_utilization=float(utilization.max()),
                migrations=len(migrations), **extra_end,
            )
        if telemetry is not None:
            # Detach so a later untraced run of the same controller goes
            # back to allocating nothing.
            self.controller.telemetry = None
        if self.metrics is not None:
            self._record_metrics(
                self.metrics, utilization, latency, tuples_in, tuples_out,
                len(migrations), applied_faults,
            )
            if decision_counts:
                decided = self.metrics.counter(
                    "rod_decisions_total",
                    "controller decision records emitted",
                    ("trigger",),
                )
                for trigger, count in sorted(decision_counts.items()):
                    decided.labels(trigger=trigger).inc(count)
            if drift_monitor is not None:
                record_drift_metrics(
                    self.metrics, drift_monitor.detections,
                    drift_monitor.summary(),
                )
        return SimulationResult(
            duration=horizon,
            node_busy=node_work,
            node_utilization=utilization,
            backlog_seconds=backlog,
            latency=latency,
            sink_latency=sink_latency,
            operator_stats=operator_stats,
            tuples_in=tuples_in,
            tuples_out=tuples_out,
            migrations=migrations,
            work_timeline=timeline,
            faults=applied_faults,
            stranded_tuples=stranded,
        )

    # -------------------------------------------------------------- helpers

    @staticmethod
    def _record_metrics(
        registry: MetricsRegistry,
        utilization: np.ndarray,
        latency: LatencyStats,
        tuples_in: int,
        tuples_out: int,
        migrations: int,
        faults: Sequence[FaultEvent] = (),
    ) -> None:
        """Fold one run's outcomes into the metrics registry.

        Runs once after the event loop — never on the hot path — so an
        attached registry costs nothing per event.
        """
        tuples = registry.counter(
            "rod_sim_tuples_total",
            "source tuples injected / sink tuples produced",
            ("direction",),
        )
        tuples.labels(direction="in").inc(tuples_in)
        tuples.labels(direction="out").inc(tuples_out)
        registry.counter(
            "rod_sim_migrations_total", "operator migrations applied"
        ).inc(migrations)
        if faults:
            fault_counter = registry.counter(
                "rod_sim_faults_total",
                "fault events injected into simulation runs",
                ("kind",),
            )
            for fault in faults:
                fault_counter.labels(kind=fault.kind).inc()
        registry.counter(
            "rod_sim_runs_total", "simulation runs completed"
        ).inc()
        node_gauge = registry.gauge(
            "rod_sim_node_utilization",
            "per-node utilization of the latest run",
            ("node",),
        )
        for node, value in enumerate(utilization):
            node_gauge.labels(node=node).set(float(value))
        quantiles = registry.gauge(
            "rod_sim_latency_seconds",
            "end-to-end latency quantiles of the latest run",
            ("quantile",),
        )
        for name, value in latency.percentiles().items():
            quantiles.labels(quantile=name).set(value)
        quantiles.labels(quantile="mean").set(latency.mean())

    def _resolve_series(
        self,
        rate_series: Optional[np.ndarray],
        rates: Optional[Sequence[float]],
        duration: Optional[float],
    ) -> np.ndarray:
        d = self.graph.num_inputs
        if rate_series is not None:
            if rates is not None or duration is not None:
                raise ValueError(
                    "pass either rate_series or (rates, duration), not both"
                )
            series = np.asarray(rate_series, dtype=float)
            if series.ndim != 2 or series.shape[1] != d:
                raise ValueError(
                    f"rate series must have shape (steps, {d}), "
                    f"got {series.shape}"
                )
            return series
        if rates is None or duration is None:
            raise ValueError("pass rate_series, or both rates and duration")
        if duration <= 0:
            raise ValueError("duration must be > 0")
        r = np.asarray(rates, dtype=float)
        if r.shape != (d,):
            raise ValueError(f"expected {d} rates, got shape {r.shape}")
        steps = max(1, int(round(duration / self.step_seconds)))
        return np.tile(r, (steps, 1))
