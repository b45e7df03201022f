"""Tests for ``repro.faults``: schedules, chaos mode, engine injection,
failover, and the determinism guarantee the CI smoke job relies on."""

import json

import numpy as np
import pytest

from repro import build_load_model, placement_from_mapping
from repro.dynamics import (
    FailoverController,
    residual_volume_ratio,
)
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    chaos_schedule,
    load_fault_schedule,
)
from repro.graphs import Delay, QueryGraph
from repro.obs import MemorySink, Tracer, trace_digest
from repro.obs.runs import snapshot_from_result
from repro.simulator import Simulator


def make_plan(num_nodes=2, cost=0.004, capacities=None):
    g = QueryGraph()
    i = g.add_input("I")
    g.add_operator(Delay("a", cost=cost, selectivity=1.0), [i])
    g.add_operator(Delay("b", cost=cost, selectivity=1.0), [i])
    model = build_load_model(g)
    mapping = {"a": 0, "b": min(1, num_nodes - 1)}
    return placement_from_mapping(
        model, capacities or [1.0] * num_nodes, mapping
    )


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(time=1.0, kind="node.explode", node=0)
        with pytest.raises(ValueError, match="time must be >= 0"):
            FaultEvent(time=-1.0, kind="node.crash", node=0)
        with pytest.raises(ValueError, match="node index"):
            FaultEvent(time=1.0, kind="node.crash")
        with pytest.raises(ValueError, match="operator name"):
            FaultEvent(time=1.0, kind="operator.slowdown", factor=2.0)
        with pytest.raises(ValueError, match="factor > 0"):
            FaultEvent(time=1.0, kind="node.degrade", node=0)
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(time=1.0, kind="rate.spike", factor=2.0,
                       duration=0.0)

    def test_json_round_trip(self):
        event = FaultEvent(time=2.5, kind="node.degrade", node=1,
                           factor=0.5, duration=3.0)
        assert FaultEvent.from_json_obj(event.to_json_obj()) == event
        # None-valued fields are omitted on the wire.
        crash = FaultEvent(time=1.0, kind="node.crash", node=0)
        assert set(crash.to_json_obj()) == {"time", "kind", "node"}

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            FaultEvent.from_json_obj(
                {"time": 1.0, "kind": "node.crash", "node": 0, "boom": 1}
            )
        with pytest.raises(ValueError, match="'time' and 'kind'"):
            FaultEvent.from_json_obj({"kind": "node.crash", "node": 0})

    def test_describe(self):
        text = FaultEvent(time=1.0, kind="operator.slowdown",
                          operator="agg", factor=2.0,
                          duration=1.5).describe()
        assert "operator.slowdown" in text
        assert "operator=agg" in text and "factor=2" in text


class TestFaultSchedule:
    def test_orders_by_time_then_kind(self):
        schedule = FaultSchedule([
            FaultEvent(time=5.0, kind="node.recover", node=0),
            FaultEvent(time=1.0, kind="rate.spike", factor=2.0),
            FaultEvent(time=1.0, kind="node.crash", node=0),
        ])
        kinds = [e.kind for e in schedule]
        assert kinds == ["node.crash", "rate.spike", "node.recover"]

    def test_validate_rejects_bad_schedules(self):
        with pytest.raises(ValueError, match="out of range"):
            FaultSchedule([
                FaultEvent(time=1.0, kind="node.crash", node=5)
            ]).validate(2)
        with pytest.raises(ValueError, match="unknown operator"):
            FaultSchedule([
                FaultEvent(time=1.0, kind="operator.slowdown",
                           operator="ghost", factor=2.0)
            ]).validate(2, operator_names=("a", "b"))
        with pytest.raises(ValueError, match="not down"):
            FaultSchedule([
                FaultEvent(time=1.0, kind="node.recover", node=0)
            ]).validate(2)
        with pytest.raises(ValueError, match="already down"):
            FaultSchedule([
                FaultEvent(time=1.0, kind="node.crash", node=0),
                FaultEvent(time=2.0, kind="node.crash", node=0),
            ]).validate(3)
        with pytest.raises(ValueError, match="every node"):
            FaultSchedule([
                FaultEvent(time=1.0, kind="node.crash", node=0),
                FaultEvent(time=2.0, kind="node.crash", node=1),
            ]).validate(2)

    def test_apply_rate_events(self):
        series = np.ones((10, 2))
        schedule = FaultSchedule([
            FaultEvent(time=0.2, kind="rate.spike", factor=3.0,
                       duration=0.3),
        ])
        out = schedule.apply_rate_events(series, step_seconds=0.1)
        assert out is not series  # copy-on-write
        np.testing.assert_array_equal(series, np.ones((10, 2)))
        np.testing.assert_array_equal(out[2:5], 3.0 * np.ones((3, 2)))
        np.testing.assert_array_equal(out[:2], np.ones((2, 2)))
        np.testing.assert_array_equal(out[5:], np.ones((5, 2)))

    def test_apply_rate_events_no_spikes_is_identity(self):
        series = np.ones((4, 1))
        schedule = FaultSchedule([
            FaultEvent(time=1.0, kind="node.crash", node=0)
        ])
        assert schedule.apply_rate_events(series, 0.1) is series

    def test_json_round_trip_and_loader(self, tmp_path):
        schedule = FaultSchedule([
            FaultEvent(time=1.0, kind="node.crash", node=0),
            FaultEvent(time=4.0, kind="node.recover", node=0),
        ])
        path = tmp_path / "faults.json"
        path.write_text(schedule.to_json())
        loaded = load_fault_schedule(str(path))
        assert loaded.to_json_obj() == schedule.to_json_obj()
        # The documented wrapper form works too.
        wrapped = FaultSchedule.from_json_obj(
            {"faults": schedule.to_json_obj()}
        )
        assert wrapped.to_json_obj() == schedule.to_json_obj()
        with pytest.raises(ValueError, match="list of events"):
            FaultSchedule.from_json_obj({"nope": []})


class TestChaosSchedule:
    def test_deterministic_in_seed(self):
        a = chaos_schedule(3, horizon=20.0, seed=11,
                           operator_names=("x", "y"))
        b = chaos_schedule(3, horizon=20.0, seed=11,
                           operator_names=("x", "y"))
        assert a.to_json_obj() == b.to_json_obj()
        c = chaos_schedule(3, horizon=20.0, seed=12,
                           operator_names=("x", "y"))
        assert a.to_json_obj() != c.to_json_obj()

    def test_generates_every_category(self):
        schedule = chaos_schedule(3, horizon=20.0, seed=5,
                                  operator_names=("x",))
        kinds = {e.kind for e in schedule}
        assert {"node.crash", "node.recover", "node.degrade",
                "operator.slowdown", "rate.spike"} <= kinds
        assert kinds <= set(FAULT_KINDS)

    def test_single_node_cluster_never_crashes(self):
        schedule = chaos_schedule(1, horizon=20.0, seed=5)
        assert all(e.kind != "node.crash" for e in schedule)

    def test_validation(self):
        with pytest.raises(ValueError):
            chaos_schedule(0, horizon=10.0, seed=1)
        with pytest.raises(ValueError):
            chaos_schedule(2, horizon=0.0, seed=1)
        with pytest.raises(ValueError):
            chaos_schedule(2, horizon=10.0, seed=1, intensity=0.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_horizon_and_intensity_rejected(self, value):
        with pytest.raises(ValueError, match="horizon must be finite"):
            chaos_schedule(2, horizon=value, seed=1)
        with pytest.raises(ValueError, match="intensity must be finite"):
            chaos_schedule(2, horizon=10.0, seed=1, intensity=value)

    @staticmethod
    def _max_simultaneous_down(schedule):
        """Walk crash/recover events in time order; peak downed count."""
        down = set()
        peak = 0
        for event in sorted(schedule, key=lambda e: e.time):
            if event.kind == "node.crash":
                down.add(event.node)
            elif event.kind == "node.recover":
                down.discard(event.node)
            peak = max(peak, len(down))
        return peak

    def test_high_intensity_two_node_cluster_keeps_a_survivor(self):
        """Regression: staggered crash cycles never take down both
        nodes of a two-node cluster at once, even at intensity far
        above the node count."""
        for seed in range(12):
            schedule = chaos_schedule(
                2, horizon=30.0, seed=seed, intensity=8.0
            )
            assert self._max_simultaneous_down(schedule) <= 1
            crashes = [e for e in schedule if e.kind == "node.crash"]
            assert len(crashes) == 8

    def test_high_intensity_eventually_exercises_every_node(self):
        victims = set()
        for seed in range(8):
            schedule = chaos_schedule(
                2, horizon=30.0, seed=seed, intensity=8.0
            )
            victims |= {
                e.node for e in schedule if e.kind == "node.crash"
            }
        assert victims == {0, 1}

    def test_single_node_no_crash_even_at_extreme_intensity(self):
        schedule = chaos_schedule(
            1, horizon=20.0, seed=3, intensity=50.0
        )
        assert all(e.kind != "node.crash" for e in schedule)

    def test_tiny_horizon_durations_stay_positive(self):
        """Regression: sub-5ms horizons used to round fault durations
        to zero and fail schedule validation."""
        for seed in range(6):
            schedule = chaos_schedule(
                3, horizon=0.004, seed=seed, intensity=4.0
            )
            for event in schedule:
                if event.duration is not None:
                    assert event.duration > 0.0
                assert event.time >= 0.0

    def test_crash_and_recover_counts_match(self):
        schedule = chaos_schedule(4, horizon=25.0, seed=7, intensity=5.0)
        crashes = sum(1 for e in schedule if e.kind == "node.crash")
        recovers = sum(1 for e in schedule if e.kind == "node.recover")
        assert crashes == recovers == 5


class TestEngineFaultInjection:
    RATES = [100.0]
    DURATION = 8.0

    def run_plan(self, faults=None, controller=None, tracer=None,
                 num_nodes=2):
        plan = make_plan(num_nodes=num_nodes)
        sim = Simulator(plan, step_seconds=0.1, faults=faults,
                        controller=controller, tracer=tracer)
        return sim.run(rates=self.RATES, duration=self.DURATION)

    def test_eager_validation(self):
        bad = FaultSchedule([
            FaultEvent(time=1.0, kind="node.crash", node=9)
        ])
        with pytest.raises(ValueError, match="out of range"):
            self.run_plan(faults=bad)

    def test_crash_strands_work_without_failover(self):
        base = self.run_plan()
        crash = FaultSchedule([
            FaultEvent(time=2.0, kind="node.crash", node=1)
        ])
        crashed = self.run_plan(faults=crash)
        assert crashed.tuples_out < base.tuples_out
        assert crashed.stranded_tuples > 0
        assert crashed.fault_count == 1
        assert "faults=1" in crashed.summary()
        assert "stranded" in crashed.summary()

    def test_failover_restores_throughput(self):
        """The headline acceptance criterion: with a FailoverController
        the crashed node's operators keep producing; without one the
        pipeline stalls."""
        base = self.run_plan()
        crash = FaultSchedule([
            FaultEvent(time=2.0, kind="node.crash", node=1)
        ])
        rescued = self.run_plan(
            faults=crash, controller=FailoverController(samples=128)
        )
        assert rescued.tuples_out == base.tuples_out
        assert rescued.stranded_tuples == 0
        assert rescued.migration_count >= 1
        stalled = self.run_plan(faults=crash)
        assert stalled.tuples_out < rescued.tuples_out

    def test_crashed_node_stops_after_its_in_flight_batch(self):
        """Node 1 is overloaded, so at the crash it is serving a batch
        with more queued behind it: it finishes that batch, goes idle
        and serves nothing more."""
        sink = MemorySink()
        sim = Simulator(
            make_plan(cost=0.02), step_seconds=0.1, tracer=Tracer(sink),
            faults=FaultSchedule([
                FaultEvent(time=2.0, kind="node.crash", node=1)
            ]),
        )
        result = sim.run(rates=self.RATES, duration=self.DURATION)
        after = [
            event["type"] for event in sink.events
            if event.get("node") == 1 and event["t"] >= 2.0
            and event["type"] in ("batch.serviced", "node.idle",
                                  "node.busy")
        ]
        assert after == ["batch.serviced", "node.idle"]
        assert result.stranded_tuples > 0

    def test_recovery_resumes_queued_work(self):
        base = self.run_plan()
        cycle = FaultSchedule([
            FaultEvent(time=2.0, kind="node.crash", node=1),
            FaultEvent(time=4.0, kind="node.recover", node=1),
        ])
        recovered = self.run_plan(faults=cycle)
        assert recovered.stranded_tuples == 0
        assert recovered.tuples_out == base.tuples_out

    def test_degrade_raises_latency(self):
        base = self.run_plan()
        brownout = FaultSchedule([
            FaultEvent(time=1.0, kind="node.degrade", node=0,
                       factor=0.25, duration=4.0)
        ])
        degraded = self.run_plan(faults=brownout)
        assert degraded.latency.mean() > base.latency.mean()
        # Windowed: capacity is restored, so the run still drains.
        assert degraded.stranded_tuples == 0

    def test_operator_slowdown_inflates_work(self):
        base = self.run_plan()
        slow = FaultSchedule([
            FaultEvent(time=1.0, kind="operator.slowdown", operator="a",
                       factor=3.0, duration=4.0)
        ])
        slowed = self.run_plan(faults=slow)
        assert (
            slowed.operator_stats["a"].work_seconds
            > base.operator_stats["a"].work_seconds
        )
        assert slowed.operator_stats["b"].work_seconds == pytest.approx(
            base.operator_stats["b"].work_seconds
        )

    @pytest.mark.parametrize("kind, factor", [
        ("operator.slowdown", 3.0), ("node.degrade", 0.5),
    ])
    def test_overlapping_windows_compound(self, kind, factor):
        """An inner window on the same target multiplies into the outer
        one and, when it closes, leaves the outer one in force: nested
        windows behave exactly like the flattened schedule
        ``f`` on [1, 2), ``f * f`` on [2, 3), ``f`` on [3, 6)."""
        def window(time, duration, window_factor):
            target = {"node": 0} if kind == "node.degrade" else {
                "operator": "a"
            }
            return FaultEvent(time=time, kind=kind, factor=window_factor,
                              duration=duration, **target)

        outer = self.run_plan(faults=FaultSchedule([window(1.0, 5.0, factor)]))
        nested = self.run_plan(faults=FaultSchedule([
            window(1.0, 5.0, factor), window(2.0, 1.0, factor),
        ]))
        flat = self.run_plan(faults=FaultSchedule([
            window(1.0, 1.0, factor), window(2.0, 1.0, factor * factor),
            window(3.0, 3.0, factor),
        ]))
        assert nested.operator_stats == flat.operator_stats
        assert nested.node_busy.tolist() == flat.node_busy.tolist()
        assert vars(nested.latency) == vars(flat.latency)
        assert nested.latency.mean() > outer.latency.mean()

    def test_rate_spike_adds_arrivals(self):
        base = self.run_plan()
        spike = FaultSchedule([
            FaultEvent(time=2.0, kind="rate.spike", factor=2.0,
                       duration=2.0)
        ])
        spiked = self.run_plan(faults=spike)
        assert spiked.tuples_in > base.tuples_in

    def test_fault_events_traced(self):
        sink = MemorySink()
        schedule = FaultSchedule([
            FaultEvent(time=2.0, kind="node.degrade", node=0,
                       factor=0.5, duration=1.0),
            FaultEvent(time=3.0, kind="node.crash", node=1),
        ])
        self.run_plan(faults=schedule, tracer=Tracer(sink),
                      controller=FailoverController(samples=64))
        by_type = {}
        for event in sink.events:
            by_type.setdefault(event["type"], []).append(event)
        assert len(by_type["fault.injected"]) == 2
        assert len(by_type["fault.reverted"]) == 1  # the brownout window
        crash = [e for e in by_type["fault.injected"]
                 if e["kind"] == "node.crash"][0]
        assert crash["node"] == 1
        # Failover shows up as a migration with the failover reason.
        applied = by_type["migration.applied"]
        assert any(e.get("reason") == "failover" for e in applied)
        end = by_type["sim.end"][0]
        assert end["faults"] == 2
        assert end["stranded_tuples"] == 0

    def test_fault_free_trace_has_no_fault_fields(self):
        sink = MemorySink()
        self.run_plan(tracer=Tracer(sink))
        end = [e for e in sink.events if e["type"] == "sim.end"][0]
        assert "faults" not in end
        assert "stranded_tuples" not in end


class TestDeterminism:
    def chaos_run(self, seed=9):
        plan = make_plan(num_nodes=3)
        names = plan.model.graph.operator_names
        schedule = chaos_schedule(3, horizon=8.0, seed=seed,
                                  operator_names=names)
        sink = MemorySink()
        result = Simulator(
            plan, step_seconds=0.1, faults=schedule,
            controller=FailoverController(samples=64),
            tracer=Tracer(sink),
        ).run(rates=[100.0], duration=8.0)
        return result, sink.events

    def test_same_seed_is_bit_identical(self):
        """Same chaos seed => same trace digest and same snapshot —
        the CI determinism gate in miniature."""
        first, events_a = self.chaos_run()
        second, events_b = self.chaos_run()
        assert trace_digest(events_a) == trace_digest(events_b)
        assert snapshot_from_result(first) == snapshot_from_result(second)
        # Wall clocks differ between repeats; the digest must not see
        # them, and the raw event streams must agree on everything else.
        assert [e["type"] for e in events_a] == [e["type"] for e in events_b]

    def test_snapshot_fault_keys_are_conditional(self):
        plan = make_plan()
        clean = Simulator(plan, step_seconds=0.1).run(
            rates=[100.0], duration=4.0
        )
        snapshot = snapshot_from_result(clean)
        assert "faults" not in snapshot
        assert "stranded_tuples" not in snapshot
        faulty, _ = self.chaos_run()
        faulty_snapshot = snapshot_from_result(faulty)
        assert faulty_snapshot["faults"]
        assert "stranded_tuples" in faulty_snapshot


class TestFailoverController:
    def make_model(self):
        g = QueryGraph()
        i = g.add_input("I")
        g.add_operator(Delay("a", cost=0.3, selectivity=1.0), [i])
        g.add_operator(Delay("b", cost=0.2, selectivity=1.0), [i])
        g.add_operator(Delay("c", cost=0.1, selectivity=1.0), [i])
        return build_load_model(g)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="unknown failover policy"):
            FailoverController(policy="hope")
        with pytest.raises(ValueError):
            FailoverController(samples=0)

    def test_decide_never_moves(self):
        model = self.make_model()
        controller = FailoverController()
        moves = controller.decide(
            1.0, np.array([0.9, 0.1]), {"a": 0, "b": 1, "c": 1},
            model, np.ones(2),
        )
        assert moves == []

    def test_failed_node_evacuated_to_survivors(self):
        model = self.make_model()
        assignment = {"a": 0, "b": 1, "c": 0}
        for policy in ("volume", "least_loaded"):
            controller = FailoverController(policy=policy, samples=64)
            moves = controller.on_node_failed(
                2.0, 0, assignment, model, np.ones(3), failed_nodes=[0]
            )
            assert sorted(m.operator for m in moves) == ["a", "c"]
            assert all(m.source == 0 for m in moves)
            assert all(m.target in (1, 2) for m in moves)

    def test_no_survivors_is_a_noop(self):
        model = self.make_model()
        controller = FailoverController()
        moves = controller.on_node_failed(
            2.0, 0, {"a": 0, "b": 0, "c": 0}, model, np.ones(1),
            failed_nodes=[0],
        )
        assert moves == []

    def test_failback_returns_operators_home(self):
        model = self.make_model()
        home = {"a": 0, "b": 1, "c": 0}
        controller = FailoverController(failback=True, samples=64)
        controller.decide(0.0, np.zeros(2), home, model, np.ones(2))
        displaced = {"a": 1, "b": 1, "c": 1}
        back = controller.on_node_recovered(
            5.0, 0, displaced, model, np.ones(2), failed_nodes=[]
        )
        assert sorted(m.operator for m in back) == ["a", "c"]
        assert all(m.target == 0 for m in back)
        # Without failback, recovery changes nothing.
        lazy = FailoverController(samples=64)
        lazy.decide(0.0, np.zeros(2), home, model, np.ones(2))
        assert lazy.on_node_recovered(
            5.0, 0, displaced, model, np.ones(2), failed_nodes=[]
        ) == []


class TestResidualVolume:
    def make_model(self):
        g = QueryGraph()
        i = g.add_input("I")
        g.add_operator(Delay("a", cost=0.4, selectivity=1.0), [i])
        g.add_operator(Delay("b", cost=0.4, selectivity=1.0), [i])
        return build_load_model(g)

    def test_stranded_operator_collapses_ratio(self):
        model = self.make_model()
        assignment = {"a": 0, "b": 1}
        stranded = residual_volume_ratio(
            model, [1.0, 1.0], assignment, failed_nodes=[1], samples=128
        )
        assert stranded == 0.0
        ignored = residual_volume_ratio(
            model, [1.0, 1.0], assignment, failed_nodes=[1], samples=128,
            ignore_stranded=True,
        )
        assert ignored > 0.0

    def test_failed_over_assignment_scores_positive(self):
        model = self.make_model()
        rescued = residual_volume_ratio(
            model, [1.0, 1.0], {"a": 0, "b": 0}, failed_nodes=[1],
            samples=128,
        )
        assert 0.0 < rescued <= 1.0

    def test_all_nodes_failed_is_zero(self):
        model = self.make_model()
        assert residual_volume_ratio(
            model, [1.0], {"a": 0, "b": 0}, failed_nodes=[0]
        ) == 0.0

    def test_no_failures_matches_intact_cluster(self):
        model = self.make_model()
        ratio = residual_volume_ratio(
            model, [1.0, 1.0], {"a": 0, "b": 1}, samples=256
        )
        assert 0.0 < ratio <= 1.0


class TestFaultToleranceExperiment:
    def test_failover_restores_throughput_baseline_stalls(self):
        from repro.experiments import fault_tolerance

        rows = fault_tolerance.run(
            operators_per_tree=6, duration=10.0, samples=128, seed=23
        )
        by_key = {
            (row["algorithm"], row["variant"]): row for row in rows
        }
        algorithms = {row["algorithm"] for row in rows}
        assert algorithms == {"rod", "llf", "correlation"}
        for algorithm in algorithms:
            crash = by_key[(algorithm, "crash")]
            rescued = by_key[(algorithm, "crash_failover_volume")]
            # No-controller baseline stalls: it strands queued work and
            # loses throughput...
            assert crash["stranded_tuples"] > 0
            assert crash["throughput_ratio"] < 0.9
            assert crash["residual_volume_ratio"] == 0.0
            assert crash["recovery_latency_s"] is None
            # ...while failover restores the pipeline.
            assert rescued["throughput_ratio"] > 0.95
            assert rescued["stranded_tuples"] == 0
            assert rescued["failover_moves"] >= 1
            assert rescued["recovery_latency_s"] is not None
            assert rescued["residual_volume_ratio"] > 0.0
