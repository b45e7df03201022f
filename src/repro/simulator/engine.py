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

:meth:`Simulator.run` takes ``(time, priority, sequence, handler,
payload)`` entries in key order and calls ``handler(time, payload)``: a
per-run ``_Run`` holds the state and one handler per event kind
(arrival, batch served, stall finished, fault injected or reverted,
drift detected, control poll).  Same-instant entries run by priority,
then sequence.  Entries known when the run is built (source arrivals,
control polls, faults and their reverts, rate-drift detections) wait in
one list, sorted once; the heap holds only what handlers push
(completions, stall ends, derived arrivals).  Taking the lesser of the
two heads at each step pops what one heap holding both would.
The loop keeps its numbers builtin — live capacities, per-node work,
last-free times and the flat work timeline are lists of floats — and
builds float64 arrays only where it hands them out: to controllers, to
the per-poll load computation and to the result.

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

import functools
import heapq
import itertools
import math
from collections import Counter
from dataclasses import asdict
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence,
    Tuple, Union,
)

import numpy as np

from ..core.plans import Placement
from ..dynamics.controller import Migration
from ..dynamics.elasticity import Repartition
from ..dynamics.failover import residual_volume_ratio
from ..faults.schedule import FaultEvent, FaultSchedule
from ..graphs.operators import Filter
from ..graphs.query_graph import TransferCosts
from ..obs.decisions import DecisionRecord, DecisionTelemetry
from ..obs.drift import DriftDetection, DriftMonitor, record_drift_metrics
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..workload.arrivals import ARRIVAL_KINDS, ArrivalProcess
from .metrics import LatencyStats, OperatorStats, SimulationResult
from .runtime import OperatorRuntime, make_runtime
from .scheduling import SchedulerQueue, Stall

__all__ = ["Simulator"]

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


#: An event: ``(time, priority, sequence, handler, payload)``.
_Entry = Tuple[float, int, int, Callable[[float, Any], None], Any]


class _Batch(NamedTuple):
    """A batch of identical-age tuples bound for one operator port."""

    birth: float        # when the originating source tuples entered
    arrival: float      # when this batch reached its current operator
    operator: str
    port: int
    count: int
    extra_work: float = 0.0  # receive-side network CPU, unit capacity
    span: int = -1      # causal span id; -1 when tracing is disabled


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
        and graph shape).  ``transfer_costs`` is resolved per stream
        (and validated) here, once."""
        if not 0 < step_seconds < math.inf:
            raise ValueError("step_seconds must be finite and > 0")
        if arrival_kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind: {arrival_kind!r}; "
                f"expected one of {ARRIVAL_KINDS}"
            )
        if controller is not None and not 0 < controller.period < math.inf:
            raise ValueError("controller period must be finite and > 0")
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
        # Per-tuple CPU cost of shipping each stream between nodes.
        self._transfer = self.graph.transfer_costs(transfer_costs)
        # (consumer operator, port) pairs per stream, precomputed.
        self._routes: Dict[str, List[Tuple[str, int]]] = {}
        for stream in self.graph.streams():
            routes = []
            for consumer in self.graph.consumers_of(stream.name):
                for port, s in enumerate(self.graph.inputs_of(consumer)):
                    if s == stream.name:
                        routes.append((consumer, port))
            self._routes[stream.name] = routes
        # Each operator's output stream, so the loop never looks it up.
        self._outputs: Dict[str, str] = {
            name: self.graph.output_of(name).name
            for name in self.graph.operator_names
        }

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
        finite ``duration`` in seconds.  Arrivals stop at the horizon;
        processing continues until every queued tuple drains, so latency
        of backlogged tuples is fully observed.

        The loop drains two event sources in one ``(time, priority,
        sequence)`` order: ``run.scheduled``, the events known up front,
        sorted with the next one last, and the ``run.events`` heap of
        what handlers create.  Each step takes whichever key is least,
        so handlers run exactly as they would from one heap.
        """
        run = _Run(self, self._resolve_series(rate_series, rates, duration))
        scheduled, events = run.scheduled, run.events
        heappop = heapq.heappop
        while scheduled:
            if events and events[0] < scheduled[-1]:
                time, _, _, handler, payload = heappop(events)
            else:
                time, _, _, handler, payload = scheduled.pop()
            handler(time, payload)
        while events:
            time, _, _, handler, payload = heappop(events)
            handler(time, payload)
        return run.result()

    # -------------------------------------------------------------- helpers

    def _resolve_series(
        self,
        rate_series: Optional[np.ndarray],
        rates: Optional[Sequence[float]],
        duration: Optional[float],
    ) -> np.ndarray:
        """The run's rates, one row per step, with ``rate.spike`` faults
        folded in; every rate must be finite."""
        d = self.graph.num_inputs
        if rate_series is None:
            if rates is None or duration is None:
                raise ValueError(
                    "pass rate_series, or both rates and duration"
                )
            if not 0 < duration < math.inf:
                raise ValueError("duration must be finite and > 0")
            r = np.asarray(rates, dtype=float)
            if r.shape != (d,):
                raise ValueError(f"expected {d} rates, got shape {r.shape}")
            steps = max(1, int(round(duration / self.step_seconds)))
            rate_series = np.tile(r, (steps, 1))
        elif rates is not None or duration is not None:
            raise ValueError(
                "pass either rate_series or (rates, duration), not both"
            )
        series = np.asarray(rate_series, dtype=float)
        if series.ndim != 2 or series.shape[1] != d:
            raise ValueError(
                f"rate series must have shape (steps, {d}), got {series.shape}"
            )
        finite = np.isfinite(series).all(axis=0)
        if not finite.all():
            name = self.graph.input_names[int(np.argmin(finite))]
            raise ValueError(f"rates of input {name!r} must be finite")
        if self.faults is not None:
            series = self.faults.apply_rate_events(series, self.step_seconds)
        return series


class _Run:
    """One run's state and one handler per event kind.  Building it
    sorts the events known up front into ``scheduled``, the next one
    last; the handlers push the rest onto the ``events`` heap."""

    def __init__(self, sim: Simulator, series: np.ndarray) -> None:
        self.graph = graph = sim.graph
        self.model = sim.placement.model
        self.controller = controller = sim.controller
        self.step = sim.step_seconds
        self.steps = series.shape[0]
        self.horizon = self.steps * self.step
        self.scheduled_faults = sim.faults
        self.metrics = sim.metrics
        self.routes = sim._routes
        self.outputs = sim._outputs
        self.transfer = sim._transfer
        self.nodes = n = sim.placement.num_nodes
        # ``capacities`` is the live list (brownout faults rewrite it
        # mid-run); the ``nominal`` array reports end-of-run utilization.
        self.nominal = sim.placement.capacities
        self.capacities: List[float] = self.nominal.tolist()

        # Hoisted observability state: `tracing` is the single hot-path
        # guard — when False, no trace call runs and no event object is
        # ever allocated.
        self.tracer = tracer = sim.tracer
        self.tracing = tracing = tracer.enabled
        # Span ids link every batch to its causal parent.  They are
        # allocated at batch creation, only while tracing, so a disabled
        # run leaves every batch at span=-1; a derived batch's parent id
        # waits in ``parents`` until its enqueue event carries it.
        self.span_ids = itertools.count()
        self.parents: Dict[int, int] = {}
        # A controller-attached SloWatcher is fed every sink latency
        # sample regardless of tracing (labelling decisions as
        # SLO-triggered must not change what the controller does).
        self.slo_watcher = getattr(controller, "slo_watcher", None)
        # Decision audit + drift detection exist only while tracing: the
        # telemetry collector is attached to the controller here (and
        # detached in ``result``), so the untraced path never allocates
        # a decision record.  A controller that never opens a record
        # gets a synthesized one per deliberation (``deliberate``).
        self.telemetry: Optional[DecisionTelemetry] = None
        self.drift_monitor: Optional[DriftMonitor] = None
        self.decision_seq = itertools.count(1)
        self.decision_counts: Counter = Counter()
        if tracing:
            self.drift_monitor = DriftMonitor()
            if controller is not None:
                self.telemetry = DecisionTelemetry()
                controller.telemetry = self.telemetry
            tracer.emit(
                "sim.start", t=0.0, nodes=n,
                operators=len(graph.operator_names),
                step_seconds=self.step, horizon=self.horizon,
                capacities=list(self.capacities),
                scheduling=sim.scheduling, arrival_kind=sim.arrival_kind,
            )

        self.runtimes: Dict[str, OperatorRuntime] = {
            op.name: make_runtime(op) for op in graph.operators()
        }
        self.queues = [SchedulerQueue(sim.scheduling) for _ in range(n)]
        self.busy = [False] * n
        self.last_free = [0.0] * n
        self.node_work = [0.0] * n
        # Work served per (bin, node), flat: bin * nodes + node.
        self.timeline = [0.0] * (self.steps * n)

        self.latency = LatencyStats()
        self.sink_latency: Dict[str, LatencyStats] = {}
        self.operator_stats: Dict[str, OperatorStats] = {
            name: OperatorStats() for name in graph.operator_names
        }
        self.tuples_in = 0
        self.tuples_out = 0
        self.migrations: List[object] = []
        # Repartitions are kept apart from migrations: they stall nodes
        # like a migration but never change the assignment, and the
        # migration-derived metrics (count, total pause) must not see
        # them.
        self.repartitions: List[Action] = []

        # Fault state: crashed nodes serve nothing; ``slow`` multiplies
        # per-batch operator cost during slowdown windows.  ``windows``
        # keeps the factors of every open degrade/slowdown window per
        # target, so overlapping windows compound.
        self.failed = [False] * n
        self.slow: Dict[str, float] = {}
        self.windows: Dict[Tuple[object, ...], List[float]] = {}
        self.applied_faults: List[FaultEvent] = []

        # Mutable routing table: starts at the static placement; a
        # controller may rewrite it mid-run.
        self.assignment: Dict[str, int] = {
            name: sim.placement.node_of(name)
            for name in graph.operator_names
        }

        self.sequence = itertools.count()
        self.scheduled: List[_Entry] = []
        self.events: List[_Entry] = []

        # Control polls.
        self.last_work = np.zeros(n)
        self.last_op_work = dict.fromkeys(graph.operator_names, 0.0)
        if controller is not None:
            self.period = period = float(controller.period)
            t = period
            while t < self.horizon + period:
                self.schedule(t, _CONTROL, self.on_control, None)
                t += period

        # Fault events, plus revert markers for windowed faults.
        if sim.faults is not None:
            for fault in sim.faults:
                self.schedule(fault.time, _FAULT, self.on_fault, fault)
                if fault.duration is not None and fault.kind in _WINDOWED:
                    self.schedule(
                        fault.time + fault.duration, _FAULT,
                        self.on_fault_reverted, fault,
                    )

        # Arrival-rate drift: stream the resolved series (rate.spike
        # faults already folded in) through per-input Page–Hinkley
        # detectors.  The detectors are causal — each verdict sees only
        # rows up to its step — so only the trigger times are known up
        # front; each detection is enqueued at fault priority and its
        # event therefore precedes any same-instant control reaction.
        if self.drift_monitor is not None:
            for detection in self.drift_monitor.scan_rate_series(
                series, self.step
            ):
                self.schedule(detection.t, _FAULT, self.on_drift, detection)

        # Source arrivals.
        for k, input_name in enumerate(graph.input_names):
            process = ArrivalProcess(
                series[:, k],
                self.step,
                kind=sim.arrival_kind,
                seed=None if sim.seed is None else sim.seed * 8191 + k,
            )
            routes = self.routes[input_name]
            for start, count in process.steps():
                self.tuples_in += count
                for consumer, port in routes:
                    self.schedule(start, _ARRIVAL, self.on_arrival, _Batch(
                        birth=start, arrival=start, operator=consumer,
                        port=port, count=count,
                        span=next(self.span_ids) if tracing else -1,
                    ))
        self.scheduled.sort(reverse=True)

    def schedule(self, time: float, priority: int,
                 handler: Callable[[float, Any], None],
                 payload: object) -> None:
        """Add an event known before the run starts."""
        self.scheduled.append(
            (time, priority, next(self.sequence), handler, payload)
        )

    def start_service(self, node: int, now: float) -> None:
        """Begin serving the next queue entry on an idle node."""
        entry = self.queues[node].pop()
        self.busy[node] = True
        if isinstance(entry, Stall):
            work = entry.duration * self.capacities[node]
            heapq.heappush(self.events, (
                now + entry.duration, _COMPLETION, next(self.sequence),
                self.on_stall_finished, (node, work, now, entry.decision),
            ))
            return
        batch: _Batch = entry
        work, out_count = self.runtimes[batch.operator].process(
            batch.arrival, batch.port, batch.count
        )
        slow_factor = self.slow.get(batch.operator)
        if slow_factor is not None:
            work *= slow_factor
        stats = self.operator_stats[batch.operator]
        stats.tuples_in += batch.count
        stats.tuples_out += out_count
        stats.work_seconds += work
        work += batch.extra_work

        out_stream = self.outputs[batch.operator]
        send_work = 0.0
        deliveries: List[Tuple[str, int, float]] = []
        if out_count > 0:
            # A crossing arc charges the shipping cost to both ends: the
            # sender now, the receiver as the delivered batch's extra work.
            shipped = self.transfer[out_stream] * out_count
            assignment = self.assignment
            for consumer, port in self.routes[out_stream]:
                recv = shipped if assignment[consumer] != node else 0.0
                send_work += recv
                deliveries.append((consumer, port, recv))
        total_work = work + send_work
        heapq.heappush(self.events, (
            now + total_work / self.capacities[node], _COMPLETION,
            next(self.sequence), self.on_batch_served,
            (node, batch, out_count, tuple(deliveries), total_work, now),
        ))

    def wake(self, node: int, now: float) -> None:
        """Start serving on ``node`` if it is idle, up and has work."""
        if self.busy[node] or self.failed[node] or self.queues[node].is_empty:
            return
        if self.tracing:
            self.tracer.emit("node.busy", t=now, node=node)
        self.start_service(node, now)

    def finish(self, node: int, now: float, work: float) -> None:
        """Book a node's served ``work``; serve its next entry or idle."""
        self.node_work[node] += work
        step = min(int(now / self.step), self.steps - 1)
        self.timeline[step * self.nodes + node] += work
        if self.queues[node].is_empty or self.failed[node]:
            # A crashed node goes quiet after its in-flight batch
            # even if work is still queued (it resumes on recovery).
            self.busy[node] = False
            self.last_free[node] = now
            if self.tracing:
                self.tracer.emit("node.idle", t=now, node=node)
        else:
            self.start_service(node, now)

    # ------------------------------------------------------------ handlers

    def on_arrival(self, now: float, batch: _Batch) -> None:
        """A batch reaches its operator: queue it on the operator's node."""
        node = self.assignment[batch.operator]
        self.queues[node].push(batch)
        if self.tracing:
            parent = self.parents.pop(batch.span, None)
            self.tracer.emit(
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
        self.wake(node, now)

    def on_batch_served(self, now: float, served: tuple) -> None:
        """Deliver a served batch's output downstream, or record it."""
        node, batch, out_count, deliveries, work, start = served
        # A completion with output and no onward deliveries produced
        # sink tuples: their end-to-end latency is known here, and the
        # trace carries it on the serviced event so analyzers can
        # rebuild LatencyStats exactly (repro.obs.analyze).
        sink_stream: Optional[str] = None
        if out_count > 0 and not deliveries:
            sink_stream = self.outputs[batch.operator]
        if self.tracing:
            # Sink services carry the identical latency float the
            # engine records below, so trace analyzers reconcile
            # with SimulationResult bit-for-bit.
            extra = (
                {} if sink_stream is None
                else {"sink": sink_stream, "latency": now - batch.birth}
            )
            self.tracer.emit(
                "batch.serviced",
                t=now,
                node=node,
                operator=batch.operator,
                port=batch.port,
                count=batch.count,
                out=out_count,
                work=work,
                span=batch.span,
                start=start,
                **extra,
            )
        for consumer, port, recv in deliveries:
            span = -1
            if self.tracing:
                span = next(self.span_ids)
                self.parents[span] = batch.span
            heapq.heappush(self.events, (
                now, _ARRIVAL, next(self.sequence), self.on_arrival,
                _Batch(birth=batch.birth, arrival=now, operator=consumer,
                       port=port, count=out_count, extra_work=recv,
                       span=span),
            ))
        if sink_stream is not None:
            self.tuples_out += out_count
            sample = now - batch.birth
            self.latency.record(sample, out_count)
            stats = self.sink_latency.get(sink_stream)
            if stats is None:
                stats = self.sink_latency[sink_stream] = LatencyStats()
            stats.record(sample, out_count)
            if self.slo_watcher is not None:
                self.slo_watcher.observe(now, sample, out_count)
        self.finish(node, now, work)

    def on_stall_finished(self, now: float, stall: tuple) -> None:
        """A node's reconfiguration pause ended."""
        node, work, start, decision = stall
        if self.tracing:
            self.tracer.emit(
                "node.stall", t=now, node=node, work=work, start=start,
                **({"decision": decision} if decision >= 0 else {}),
            )
        self.finish(node, now, work)

    def on_fault(self, now: float, fault: FaultEvent) -> None:
        """Inject one scheduled fault."""
        self.applied_faults.append(fault)
        if self.tracing:
            fields = fault.to_json_obj()
            del fields["time"]
            self.tracer.emit("fault.injected", t=now, **fields)
        if fault.kind in _FAULT_HOOKS:
            self.failed[fault.node] = fault.kind == "node.crash"
            name, trigger = _FAULT_HOOKS[fault.kind]
            hook = getattr(self.controller, name, None)
            if hook is not None:
                self.deliberate(trigger, now, functools.partial(
                    hook, now, fault.node, self.assignment, self.model,
                    np.array(self.capacities), self.down_nodes(),
                ), node=fault.node)
            # A recovered node resumes whatever queued while it was
            # down (a crashed one stays quiet).
            self.wake(fault.node, now)
        elif fault.kind in _WINDOWED:
            self.set_window(fault, True)
        # rate.spike was folded into the series before arrivals were
        # generated; its fault.injected event above is informational.

    def on_fault_reverted(self, now: float, fault: FaultEvent) -> None:
        """A windowed fault (degrade/slowdown) expires."""
        if self.tracing:
            self.tracer.emit(
                "fault.reverted", t=now, kind=fault.kind,
                **(
                    {"node": fault.node} if fault.node is not None
                    else {"operator": fault.operator}
                ),
            )
        self.set_window(fault, False)

    def on_drift(self, now: float, detection: DriftDetection) -> None:
        """Emit a drift detection: a rate drift found up front comes
        due, or a feasible-volume drift was just observed."""
        fields = asdict(detection)
        if detection.input is None:
            del fields["input"]
        self.tracer.emit("drift.detected", **fields)

    def on_control(self, now: float, _: None) -> None:
        """Poll ``decide`` with the last period's node and operator load."""
        period = self.period
        work = np.array(self.node_work)
        capacities = np.array(self.capacities)
        recent = (work - self.last_work) / (capacities * period)
        self.last_work = work
        op_loads = {}
        for name, stats in self.operator_stats.items():
            op_loads[name] = (
                stats.work_seconds - self.last_op_work[name]
            ) / period
            self.last_op_work[name] = stats.work_seconds
        self.deliberate("periodic", now, functools.partial(
            self.controller.decide, now, recent, self.assignment,
            self.model, capacities, operator_loads=op_loads,
        ), loads=recent)

    def set_window(self, fault: FaultEvent, opening: bool) -> None:
        """Open or close a degrade/slowdown window on its target.

        The live factor is the product of the target's open windows,
        recomputed from the list (never divided back out): closing an
        inner window leaves an outer one in force, and a lone window
        applies exactly its own factor.
        """
        factors = self.windows.setdefault(
            (fault.kind, fault.node, fault.operator), []
        )
        if opening:
            factors.append(fault.factor)
        else:
            factors.remove(fault.factor)
        factor = math.prod(factors)
        if fault.kind == "node.degrade":
            self.capacities[fault.node] = float(
                self.nominal[fault.node] * factor
            )
        elif factors:
            self.slow[fault.operator] = factor
        else:
            del self.slow[fault.operator]

    def down_nodes(self) -> List[int]:
        return [i for i, f in enumerate(self.failed) if f]

    def sample_volume(self, current: Mapping[str, int]) -> float:
        """Feasible-volume ratio of the (degraded) cluster now."""
        return residual_volume_ratio(
            self.model, self.capacities, current,
            failed_nodes=self.down_nodes(), samples=_DRIFT_VOLUME_SAMPLES,
            ignore_stranded=True,
        )

    def volume_after(self, actions: Sequence[Action]) -> Optional[float]:
        """Ratio the cluster would keep once ``actions`` apply."""
        if not actions:
            return None
        trial = dict(self.assignment)
        for action in actions:
            # A repartition keeps the operator-to-node assignment.
            if (isinstance(action, Migration)
                    and trial.get(action.operator) == action.source):
                trial[action.operator] = action.target
        return self.sample_volume(trial)

    def deliberate(
        self, trigger: str, now: float, hook: Callable[[], Sequence[Action]],
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
        if self.drift_monitor is not None:
            volume_before = self.sample_volume(self.assignment)
            if trigger == "periodic":
                detection = self.drift_monitor.observe(
                    "feasible_volume", now, volume_before
                )
                if detection is not None:
                    self.on_drift(now, detection)
        actions = list(hook())
        decision = -1
        if self.tracing:
            records = [] if self.telemetry is None else self.telemetry.drain()
            if not records:
                records = [DecisionRecord(
                    trigger, type(self.controller).__name__, [],
                    reason="migrate" if actions else "unobserved",
                    actions=len(actions), node=node,
                )]
            volumes = (
                ("volume_before", volume_before),
                ("volume_after", self.volume_after(actions)),
            )
            for record in records:
                decision = next(self.decision_seq)
                self.decision_counts[record.trigger] += 1
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
                self.tracer.emit(
                    "decision.evaluated", t=now, decision=decision,
                    trigger=record.trigger, controller=record.controller,
                    reason=record.reason, actions=record.actions,
                    loads=list(record.loads), **extra,
                )
        for action in actions:
            self.reconfigure(action, now, decision, trigger)

    def reconfigure(
        self, action: Action, now: float, decision: int, trigger: str
    ) -> None:
        """Apply one controller action; a stale one is dropped.

        A :class:`Migration` reroutes its operator, hands its queued
        batches to the target and stalls both endpoints — only the
        destination on failover (``fault`` trigger), the one move
        allowed to touch a dead node.  A :class:`Repartition` rebuilds
        its group's route runtimes with the new fractions (the shared
        graph is never mutated) and stalls every node hosting a route
        or instance.  Stalls last ``action.pause_seconds`` and carry the
        causing ``decision``.
        """
        assignment = self.assignment
        if isinstance(action, Repartition):
            group = self.graph.partition_groups.get(action.operator)
            if group is None or len(action.fractions) != group.ways:
                return  # stale: group gone or the wrong width
            for route, fraction in zip(group.routes, action.fractions):
                self.runtimes[route] = make_runtime(Filter(
                    route, cost=self.graph.operator(route).costs[0],
                    selectivity=float(fraction),
                ))
            stalled: Sequence[int] = sorted({
                assignment[name] for name in (*group.routes, *group.parts)
            })
            ledger: List[Action] = self.repartitions
            kind = "elastic.repartition"
            fields: Dict[str, object] = {
                "fractions": [float(f) for f in action.fractions],
                "pause": action.pause_seconds,
            }
        else:
            source, target = action.source, action.target
            # Polled moves are traced as decided even when stale.
            if self.tracing and trigger == "periodic":
                self.tracer.emit(
                    "migration.decided", t=now,
                    operator=action.operator, source=source,
                    target=target, pause=action.pause_seconds,
                    decision=decision,
                )
            failover = trigger == "fault"
            if assignment.get(action.operator) != source:
                return  # stale: the operator already moved
            if not failover and (self.failed[source] or self.failed[target]):
                return  # a blind reactive move involving a dead node
            assignment[action.operator] = target
            for batch in self.queues[source].take_operator(action.operator):
                self.queues[target].push(batch)
            stalled = (target,) if failover else (source, target)
            ledger = self.migrations
            kind = "migration.applied"
            fields = {
                "source": source, "target": target,
                "pause": action.pause_seconds,
                "reason": "failover" if failover else "balance",
            }
        for node in stalled:
            self.queues[node].push_stall(action.pause_seconds, decision)
            self.wake(node, now)
        ledger.append(action)
        if self.tracing:
            self.tracer.emit(kind, t=now, operator=action.operator,
                             **fields, decision=decision)

    def result(self) -> SimulationResult:
        """Close the drained run: emit ``sim.end``, detach the decision
        telemetry, fill the metrics registry and build the result."""
        node_busy = np.array(self.node_work)
        utilization = node_busy / (self.nominal * self.horizon)
        backlog = np.maximum(np.array(self.last_free) - self.horizon, 0.0)
        # Tuples still queued when the event loop drained: work stranded
        # on nodes that were down (or degraded past the horizon) with no
        # failover to rescue it.
        stranded = sum(queue.queued_tuples() for queue in self.queues)
        if self.tracing:
            extra_end: Dict[str, object] = {}
            if self.scheduled_faults is not None:
                extra_end["faults"] = len(self.applied_faults)
                extra_end["stranded_tuples"] = stranded
            if self.repartitions:
                extra_end["repartitions"] = len(self.repartitions)
            self.tracer.emit(
                "sim.end", t=self.horizon,
                node_busy=list(self.node_work),
                tuples_in=self.tuples_in, tuples_out=self.tuples_out,
                max_utilization=float(utilization.max()),
                migrations=len(self.migrations), **extra_end,
            )
        if self.telemetry is not None:
            # Detach so a later untraced run of the same controller goes
            # back to allocating nothing.
            self.controller.telemetry = None
        if self.metrics is not None:
            self.record_metrics(self.metrics, utilization)
        return SimulationResult(
            duration=self.horizon,
            node_busy=node_busy,
            node_utilization=utilization,
            backlog_seconds=backlog,
            latency=self.latency,
            sink_latency=self.sink_latency,
            operator_stats=self.operator_stats,
            tuples_in=self.tuples_in,
            tuples_out=self.tuples_out,
            migrations=self.migrations,
            work_timeline=np.reshape(self.timeline, (self.steps, self.nodes)),
            faults=self.applied_faults,
            stranded_tuples=stranded,
        )

    def record_metrics(
        self, registry: MetricsRegistry, utilization: np.ndarray
    ) -> None:
        """Fold the run's outcomes into the metrics registry.

        Runs once after the event loop — never on the hot path — so an
        attached registry costs nothing per event.
        """
        tuples = registry.counter(
            "rod_sim_tuples_total",
            "source tuples injected / sink tuples produced",
            ("direction",),
        )
        tuples.labels(direction="in").inc(self.tuples_in)
        tuples.labels(direction="out").inc(self.tuples_out)
        registry.counter(
            "rod_sim_migrations_total", "operator migrations applied"
        ).inc(len(self.migrations))
        if self.applied_faults:
            fault_counter = registry.counter(
                "rod_sim_faults_total",
                "fault events injected into simulation runs",
                ("kind",),
            )
            for fault in self.applied_faults:
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
        for name, value in self.latency.percentiles().items():
            quantiles.labels(quantile=name).set(value)
        quantiles.labels(quantile="mean").set(self.latency.mean())
        if self.decision_counts:
            decided = registry.counter(
                "rod_decisions_total",
                "controller decision records emitted",
                ("trigger",),
            )
            for trigger, count in sorted(self.decision_counts.items()):
                decided.labels(trigger=trigger).inc(count)
        if self.drift_monitor is not None:
            record_drift_metrics(
                registry, self.drift_monitor.detections,
                self.drift_monitor.summary(),
            )
