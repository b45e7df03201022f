"""Control-plane decision telemetry and drift detection.

Covers the PR's acceptance criteria end to end:

* every ``migration.applied`` event in a traced run maps to exactly one
  ``decision.evaluated`` record carrying the candidate set (with
  scores) and the observed load snapshot;
* no-op controller periods carry a structured reason from the closed
  :data:`repro.obs.decisions.NOOP_REASONS` vocabulary;
* a rate-spiked workload produces a ``drift.detected`` event whose
  timestamp strictly precedes the corrective migration;
* reconfiguration pauses (``node.stall``) link back to the decision
  that caused them;
* the failover controller's fault/recover hooks are recorded as
  decision triggers, with residual-volume candidate scores;
* the ``repro-rod why`` rendering and the diffable snapshots stay
  consistent with the trace.
"""

import numpy as np
import pytest

from repro.core.load_model import build_load_model
from repro.core.plans import placement_from_mapping
from repro.dynamics.controller import LoadBalancingController
from repro.dynamics.failover import FailoverController
from repro.faults import FaultEvent, FaultSchedule
from repro.graphs.generator import (
    RandomGraphConfig,
    monitoring_graph,
    random_tree_graph,
)
from repro.obs import MemorySink, Tracer
from repro.obs.decisions import (
    NOOP_REASONS,
    DecisionTelemetry,
    decision_snapshot,
    render_why_report,
    why_json_obj,
)
from repro.obs.drift import DriftMonitor, PageHinkley, drift_snapshot
from repro.obs.index import RunIndex
from repro.simulator.engine import Simulator


def _skewed_placement(num_nodes=2):
    """Everything from input 0's chain on node 0, the rest on node 1.

    ``Deployment.plan`` spreads each chain across nodes (a spike then
    raises all nodes nearly equally), so migration tests need this
    deliberately lopsided mapping for the balancer to have work.
    """
    graph = monitoring_graph(2, seed=7)
    model = build_load_model(graph)
    mapping = {
        name: 0 if name.endswith("0") else 1
        for name in graph.operator_names
    }
    return placement_from_mapping(model, [1.0] * num_nodes, mapping)


def _spiked_series(steps=300, inputs=2, base=200.0):
    series = np.full((steps, inputs), base)
    series[100:250, 0] *= 6.0  # input 0 surges 6x from t=10s to t=25s
    return series


@pytest.fixture(scope="module")
def balance_run():
    """Skewed placement + rate spike under a traced balance controller."""
    placement = _skewed_placement()
    controller = LoadBalancingController(period=1.0)
    sink = MemorySink()
    simulator = Simulator(
        placement,
        step_seconds=0.1,
        tracer=Tracer(sink, validate=True),
        controller=controller,
    )
    result = simulator.run(rate_series=_spiked_series())
    return result, sink.events, controller


class TestPageHinkley:
    def test_step_up_detected_once(self):
        detector = PageHinkley()
        directions = [detector.update(100.0) for _ in range(10)]
        directions += [detector.update(600.0) for _ in range(10)]
        assert directions.count("up") == 1
        assert directions.count("down") == 0
        # Re-anchored at the new level: statistic reset below threshold.
        assert detector.statistic < detector.threshold

    def test_step_down_detected(self):
        detector = PageHinkley()
        for _ in range(10):
            detector.update(100.0)
        directions = [detector.update(20.0) for _ in range(10)]
        assert "down" in directions
        assert "up" not in directions

    def test_constant_signal_never_fires(self):
        detector = PageHinkley()
        assert all(
            detector.update(50.0) is None for _ in range(200)
        )

    def test_reversion_fires_opposite_direction(self):
        detector = PageHinkley()
        fired = []
        for value in [100.0] * 10 + [600.0] * 10 + [100.0] * 10:
            direction = detector.update(value)
            if direction:
                fired.append(direction)
        assert fired == ["up", "down"]

    def test_min_samples_suppresses_early_fire(self):
        detector = PageHinkley(min_samples=50)
        directions = [detector.update(100.0) for _ in range(10)]
        directions += [detector.update(600.0) for _ in range(10)]
        assert directions == [None] * 20

    def test_detection_captures_statistic_and_baseline(self):
        detector = PageHinkley()
        for _ in range(10):
            detector.update(100.0)
        while detector.update(600.0) is None:
            pass
        assert detector.last_statistic > detector.threshold
        # Baseline is the pre-crossing EWMA: between old and new level.
        assert 100.0 <= detector.last_baseline < 600.0

    def test_relative_deviation_is_scale_free(self):
        small, large = PageHinkley(), PageHinkley()
        fired_small, fired_large = [], []
        for value in [10.0] * 8 + [60.0] * 8:
            fired_small.append(small.update(value))
            fired_large.append(large.update(value * 1000.0))
        assert fired_small == fired_large

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PageHinkley(threshold=0.0)
        with pytest.raises(ValueError):
            PageHinkley(alpha=0.0)


class TestDriftMonitor:
    def test_scan_rate_series_finds_spike_at_step_start(self):
        monitor = DriftMonitor()
        found = monitor.scan_rate_series(_spiked_series(), 0.1)
        ups = [d for d in found if d.direction == "up"]
        assert ups and ups[0].signal == "arrival_rate"
        assert ups[0].input == 0
        # The surge starts at step 100 -> t=10.0s; causal detection
        # cannot precede it.
        assert ups[0].t == pytest.approx(10.0)

    def test_per_input_detectors_are_independent(self):
        monitor = DriftMonitor()
        monitor.scan_rate_series(_spiked_series(), 0.1)
        summary = monitor.summary()
        assert set(summary) == {"arrival_rate[0]", "arrival_rate[1]"}

    def test_observe_returns_detection_object(self):
        monitor = DriftMonitor()
        detection = None
        for step in range(20):
            value = 100.0 if step < 10 else 900.0
            got = monitor.observe("feasible_volume", step * 1.0, value)
            detection = detection or got
        assert detection is not None
        assert detection.signal == "feasible_volume"
        assert detection.input is None
        assert monitor.detections


class TestBalanceDecisionAudit:
    def test_every_poll_yields_one_decision(self, balance_run):
        _, events, _ = balance_run
        decisions = RunIndex(events).decisions
        # One control poll per period over the 30s horizon, one record
        # each, with unique monotonically-assigned ids.
        assert len(decisions) == 30
        assert len({d.decision for d in decisions}) == 30
        assert [d.decision for d in decisions] == sorted(
            d.decision for d in decisions
        )

    def test_migrations_map_one_to_one_to_decisions(self, balance_run):
        result, events, _ = balance_run
        assert result.migration_count >= 1
        explanations = RunIndex(events).migrations
        assert len(explanations) == result.migration_count
        for explanation in explanations:
            view = explanation.decision
            assert view is not None
            assert view.actions >= 1
            assert view.reason in ("migrate", "max-moves-exhausted")
            # The decision saw real per-node loads and weighed at least
            # the chosen candidate, with a numeric score.
            assert len(view.loads) == 2
            chosen = view.chosen
            assert len(chosen) == 1
            assert chosen[0]["operator"] == explanation.operator
            assert isinstance(chosen[0]["score"], float)

    def test_drift_detected_before_corrective_migration(self, balance_run):
        _, events, _ = balance_run
        drift = [e for e in events if e["type"] == "drift.detected"]
        applied = [e for e in events if e["type"] == "migration.applied"]
        assert drift and applied
        first_drift = min(e["t"] for e in drift)
        first_move = min(e["t"] for e in applied)
        assert first_drift < first_move
        fields = drift[0]
        assert fields["signal"] == "arrival_rate"
        assert fields["direction"] == "up"
        assert fields["observed"] > fields["baseline"]

    def test_noop_periods_carry_structured_reasons(self, balance_run):
        _, events, _ = balance_run
        no_ops = [
            d for d in RunIndex(events).decisions if d.actions == 0
        ]
        assert no_ops
        assert all(d.reason in NOOP_REASONS for d in no_ops)

    def test_stalls_link_back_to_their_decision(self, balance_run):
        _, events, _ = balance_run
        decision_ids = {
            d.decision for d in RunIndex(events).decisions
            if d.actions > 0
        }
        stalls = [e for e in events if e["type"] == "node.stall"]
        assert stalls
        for stall in stalls:
            assert int(stall["decision"]) in decision_ids

    def test_pause_attribution_sums_stall_work(self, balance_run):
        _, events, _ = balance_run
        served = sum(
            e.pause_served for e in RunIndex(events).migrations
        )
        stalled = sum(
            float(e.get("work", 0.0))
            for e in events
            if e["type"] == "node.stall" and "decision" in e
        )
        assert served == pytest.approx(stalled)

    def test_decision_carries_volume_before_and_after(self, balance_run):
        _, events, _ = balance_run
        for view in RunIndex(events).decisions:
            # Every periodic poll samples the current feasible volume;
            # the projected post-move volume exists only when the
            # decision actually issued moves.
            assert 0.0 <= view.volume_before <= 1.0
            if view.actions > 0:
                assert 0.0 <= view.volume_after <= 1.0
            else:
                assert view.volume_after is None

    def test_snapshot_is_consistent_with_trace(self, balance_run):
        result, events, _ = balance_run
        snapshot = decision_snapshot(events)
        assert snapshot["migrations"] == result.migration_count
        assert snapshot["linked_migrations"] == result.migration_count
        assert snapshot["evaluated"] == len(RunIndex(events).decisions)
        assert sum(snapshot["triggers"].values()) == snapshot["evaluated"]
        assert set(snapshot["no_op"]) <= set(NOOP_REASONS)
        assert snapshot["rejected_candidates"] >= 0

    def test_drift_snapshot(self, balance_run):
        _, events, _ = balance_run
        snapshot = drift_snapshot(events)
        assert snapshot["detected"] >= 1
        assert "arrival_rate" in snapshot["by_signal"]
        assert snapshot["first_t"] == pytest.approx(10.0)

    def test_why_json_and_report_render(self, balance_run):
        result, events, _ = balance_run
        obj = why_json_obj(events)
        assert len(obj["migrations"]) == result.migration_count
        assert obj["migrations"][0]["decision"] is not None
        assert obj["summary"]["evaluated"] > 0
        report = render_why_report(events)
        assert "decisions evaluated" in report
        assert "drift detections" in report
        assert "migrations (" in report
        assert "no-op periods" in report

    def test_telemetry_detached_after_run(self, balance_run):
        _, _, controller = balance_run
        assert controller.telemetry is None


class TestFailoverDecisionAudit:
    @pytest.fixture(scope="class")
    def chaos_run(self):
        graph = random_tree_graph(
            RandomGraphConfig(num_inputs=2, operators_per_tree=8),
            seed=11,
        )
        model = build_load_model(graph)
        mapping = {
            name: index % 3
            for index, name in enumerate(sorted(graph.operator_names))
        }
        placement = placement_from_mapping(model, [1.0] * 3, mapping)
        faults = FaultSchedule([
            FaultEvent(time=5.0, kind="node.crash", node=1),
            FaultEvent(time=12.0, kind="node.recover", node=1),
        ])
        controller = FailoverController(
            policy="volume", samples=64, failback=True
        )
        sink = MemorySink()
        simulator = Simulator(
            placement,
            step_seconds=0.1,
            tracer=Tracer(sink, validate=True),
            controller=controller,
            faults=faults,
        )
        result = simulator.run(rates=[40.0, 40.0], duration=20.0)
        return result, sink.events

    def test_fault_and_recover_triggers_recorded(self, chaos_run):
        _, events = chaos_run
        triggers = {
            d.trigger for d in RunIndex(events).decisions
        }
        assert {"periodic", "fault", "recover"} <= triggers

    def test_fault_decision_scores_survivors_by_volume(self, chaos_run):
        _, events = chaos_run
        fault_decisions = [
            d for d in RunIndex(events).decisions if d.trigger == "fault"
        ]
        assert len(fault_decisions) == 1
        decision = fault_decisions[0]
        assert decision.node == 1
        assert decision.reason == "migrate"
        assert decision.actions >= 1
        # Every displaced operator was scored against both survivors,
        # residual-volume ratios in [0, 1].
        assert len(decision.candidates) == 2 * decision.actions
        for candidate in decision.candidates:
            assert 0.0 <= candidate["score"] <= 1.0
            assert candidate["target"] in (0, 2)

    def test_every_failover_migration_links_to_a_decision(self, chaos_run):
        result, events = chaos_run
        explanations = RunIndex(events).migrations
        assert len(explanations) == result.migration_count
        assert all(e.decision is not None for e in explanations)
        fault_linked = [
            e for e in explanations if e.decision.trigger == "fault"
        ]
        recover_linked = [
            e for e in explanations if e.decision.trigger == "recover"
        ]
        assert fault_linked and recover_linked
        # Evacuation precedes failback.
        assert max(e.t for e in fault_linked) <= min(
            e.t for e in recover_linked
        )

    def test_periodic_polls_record_event_driven_idle(self, chaos_run):
        _, events = chaos_run
        periodic = [
            d for d in RunIndex(events).decisions
            if d.trigger == "periodic"
        ]
        assert periodic
        assert all(d.reason == "event-driven-idle" for d in periodic)
        assert all(d.actions == 0 for d in periodic)


class _BurningWatcher:
    """SloWatcher stub: always burning (duck-typed interface)."""

    burning = True
    last_burn_rate = 2.5

    def observe(self, t, latency, count):
        pass


class TestSloBurnTrigger:
    def test_burning_watcher_labels_decisions(self):
        placement = _skewed_placement()
        controller = LoadBalancingController(
            period=1.0, slo_watcher=_BurningWatcher()
        )
        sink = MemorySink()
        Simulator(
            placement,
            step_seconds=0.1,
            tracer=Tracer(sink, validate=True),
            controller=controller,
        ).run(rates=[100.0, 100.0], duration=5.0)
        decisions = RunIndex(sink.events).decisions
        assert decisions
        assert all(d.trigger == "slo-burn" for d in decisions)
        assert all(
            d.burn_rate == pytest.approx(2.5) for d in decisions
        )

    def test_labelling_does_not_change_behavior(self):
        """Same run with/without a burning watcher: identical result."""
        kwargs = dict(rates=[100.0, 100.0], duration=5.0)
        plain = Simulator(
            _skewed_placement(), step_seconds=0.1,
            controller=LoadBalancingController(period=1.0),
        ).run(**kwargs)
        watched = Simulator(
            _skewed_placement(), step_seconds=0.1,
            controller=LoadBalancingController(
                period=1.0, slo_watcher=_BurningWatcher()
            ),
        ).run(**kwargs)
        assert plain.tuples_out == watched.tuples_out
        assert plain.migration_count == watched.migration_count
        np.testing.assert_allclose(plain.node_busy, watched.node_busy)


class TestDisabledTracingPath:
    def test_untraced_run_attaches_no_telemetry(self):
        placement = _skewed_placement()
        controller = LoadBalancingController(period=1.0)
        result = Simulator(
            placement, step_seconds=0.1, controller=controller,
        ).run(rate_series=_spiked_series(steps=150))
        assert controller.telemetry is None
        assert result.tuples_out > 0


class TestControllerWithoutTelemetryAttribute:
    def test_engine_synthesizes_minimal_records(self):
        """Third-party controllers (no ``telemetry`` attribute of their
        own) get the collector attached and detached like any other, and
        since they never open a record, the engine still yields one
        synthesized ``decision.evaluated`` per poll, reason
        ``unobserved``/``migrate``."""

        class BareController:
            period = 1.0

            def decide(self, now, utilizations, assignment, model,
                       capacities, operator_loads=None):
                return []

        sink = MemorySink()
        controller = BareController()
        Simulator(
            _skewed_placement(), step_seconds=0.1,
            tracer=Tracer(sink, validate=True), controller=controller,
        ).run(rates=[50.0, 50.0], duration=3.0)
        assert controller.telemetry is None
        decisions = RunIndex(sink.events).decisions
        assert decisions
        assert all(d.reason == "unobserved" for d in decisions)
        assert all(d.controller == "BareController" for d in decisions)
        # Synthesized records still carry the observed load snapshot.
        assert all(len(d.loads) == 2 for d in decisions)


class TestDecisionMetrics:
    def test_counters_recorded_per_trigger_and_signal(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        sink = MemorySink()
        Simulator(
            _skewed_placement(), step_seconds=0.1,
            tracer=Tracer(sink, validate=True), metrics=registry,
            controller=LoadBalancingController(period=1.0),
        ).run(rate_series=_spiked_series())
        doc = registry.to_json()
        decisions = doc["rod_decisions_total"]["samples"]
        assert sum(s["value"] for s in decisions) == len(
            RunIndex(sink.events).decisions
        )
        assert {"signal": "arrival_rate[0]"} in [
            s["labels"] for s in doc["rod_drift_statistic"]["samples"]
        ]
        drift_events = [
            e for e in sink.events if e["type"] == "drift.detected"
        ]
        counted = sum(
            s["value"]
            for s in doc["rod_drift_events_total"]["samples"]
        )
        assert counted == len(drift_events)


class TestTelemetryCollector:
    def test_drain_empties_pending(self):
        telemetry = DecisionTelemetry()
        record = telemetry.begin("periodic", "balance", [0.1, 0.2])
        record.add_candidate("op", 0, 1, -0.5, "chosen")
        drained = telemetry.drain()
        assert drained == [record]
        assert telemetry.drain() == []
        assert telemetry.records_created == 1
