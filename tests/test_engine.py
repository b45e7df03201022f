"""Unit tests for the discrete-event simulation engine."""

import heapq
import os
import tempfile
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import build_load_model, placement_from_mapping
from repro.core.load_model import partition_load_model
from repro.core.rod import rod_place
from repro.dynamics import LoadBalancingController
from repro.experiments.common import make_model
from repro.faults import FaultEvent, FaultSchedule, chaos_schedule
from repro.graphs import Delay, Filter, Map, QueryGraph, WindowJoin
from repro.graphs.generator import monitoring_graph
from repro.obs.trace import (
    JsonlSink,
    MemorySink,
    Tracer,
    read_trace,
    trace_digest,
)
from repro.simulator import Simulator
from repro.simulator import engine
from repro.workload.scenarios import steady_trace_series
from tests.test_engine_golden import NEUTRALITY_CONTROLLERS, fingerprint


def single_op_plan(cost=0.01, selectivity=1.0, capacity=1.0):
    g = QueryGraph()
    i = g.add_input("I")
    g.add_operator(Delay("op", cost=cost, selectivity=selectivity), [i])
    model = build_load_model(g)
    return placement_from_mapping(model, [capacity], {"op": 0})


class TestBasicRuns:
    def test_tuple_conservation_unit_selectivity(self):
        plan = single_op_plan()
        result = Simulator(plan, step_seconds=0.1).run(
            rates=[50.0], duration=10.0
        )
        assert result.tuples_in == 500
        assert result.tuples_out == 500

    def test_selectivity_reduces_output(self):
        plan = single_op_plan(selectivity=0.25)
        result = Simulator(plan, step_seconds=0.1).run(
            rates=[40.0], duration=10.0
        )
        assert result.tuples_out == 100

    def test_utilization_matches_analytic(self):
        # 50 tuples/s * 0.01 s/tuple = 0.5 CPU demand.
        plan = single_op_plan(cost=0.01)
        result = Simulator(plan, step_seconds=0.1).run(
            rates=[50.0], duration=20.0
        )
        assert result.max_utilization == pytest.approx(0.5, abs=0.01)

    def test_capacity_scales_service(self):
        plan = single_op_plan(cost=0.01, capacity=2.0)
        result = Simulator(plan, step_seconds=0.1).run(
            rates=[50.0], duration=20.0
        )
        assert result.max_utilization == pytest.approx(0.25, abs=0.01)

    def test_latency_includes_queueing(self):
        """A batch of B tuples served at cost c has mean completion near
        the batch service time."""
        plan = single_op_plan(cost=0.001)
        result = Simulator(plan, step_seconds=1.0).run(
            rates=[100.0], duration=5.0
        )
        # Each 1 s step delivers 100 tuples taking 0.1 s to drain.
        assert 0.01 <= result.latency.mean() <= 0.2

    def test_overload_accumulates_backlog(self):
        plan = single_op_plan(cost=0.05)  # demand 2.5x capacity at r=50
        result = Simulator(plan, step_seconds=0.1).run(
            rates=[50.0], duration=5.0
        )
        assert result.max_utilization > 2.0
        assert result.backlog_seconds[0] > 1.0
        assert not result.is_feasible()

    def test_operator_stats_recorded(self):
        plan = single_op_plan(cost=0.01, selectivity=0.5)
        result = Simulator(plan, step_seconds=0.1).run(
            rates=[20.0], duration=10.0
        )
        stats = result.operator_stats["op"]
        assert stats.tuples_in == 200
        assert stats.tuples_out == 100
        assert stats.measured_cost == pytest.approx(0.01)
        assert stats.measured_selectivity == pytest.approx(0.5)


class TestPipelines:
    @pytest.fixture
    def chain_plan(self):
        g = QueryGraph()
        s = g.add_input("I")
        s = g.add_operator(Filter("f", cost=0.001, selectivity=0.5), [s])
        g.add_operator(Map("m", cost=0.002), [s])
        model = build_load_model(g)
        return placement_from_mapping(model, [1.0, 1.0], {"f": 0, "m": 1})

    def test_downstream_sees_filtered_stream(self, chain_plan):
        result = Simulator(chain_plan, step_seconds=0.1).run(
            rates=[100.0], duration=10.0
        )
        assert result.operator_stats["f"].tuples_in == 1000
        assert result.operator_stats["m"].tuples_in == 500
        assert result.tuples_out == 500

    def test_sink_latency_keyed_by_stream(self, chain_plan):
        result = Simulator(chain_plan, step_seconds=0.1).run(
            rates=[100.0], duration=5.0
        )
        assert set(result.sink_latency) == {"m.out"}

    def test_fanout_duplicates_tuples(self):
        g = QueryGraph()
        i = g.add_input("I")
        a = g.add_operator(Map("a", cost=0.001), [i])
        g.add_operator(Map("b", cost=0.001), [a])
        g.add_operator(Map("c", cost=0.001), [a])
        model = build_load_model(g)
        plan = placement_from_mapping(model, [1.0], {"a": 0, "b": 0, "c": 0})
        result = Simulator(plan, step_seconds=0.1).run(
            rates=[10.0], duration=10.0
        )
        assert result.operator_stats["b"].tuples_in == 100
        assert result.operator_stats["c"].tuples_in == 100
        assert result.tuples_out == 200


class TestNetworkCosts:
    def make_plan(self, colocate: bool):
        g = QueryGraph()
        i = g.add_input("I")
        a = g.add_operator(Map("a", cost=0.001), [i])
        g.add_operator(Map("b", cost=0.001), [a])
        model = build_load_model(g)
        mapping = {"a": 0, "b": 0} if colocate else {"a": 0, "b": 1}
        return placement_from_mapping(model, [1.0, 1.0], mapping)

    def test_crossing_arc_charges_both_nodes(self):
        split = self.make_plan(colocate=False)
        result = Simulator(
            split, step_seconds=0.1, transfer_costs=0.004
        ).run(rates=[100.0], duration=10.0)
        # Node 0: op a 0.1 + send 0.4; node 1: recv 0.4 + op b 0.1.
        assert result.node_utilization[0] == pytest.approx(0.5, abs=0.02)
        assert result.node_utilization[1] == pytest.approx(0.5, abs=0.02)

    def test_colocated_pays_no_transfer(self):
        together = self.make_plan(colocate=True)
        result = Simulator(
            together, step_seconds=0.1, transfer_costs=0.004
        ).run(rates=[100.0], duration=10.0)
        assert result.node_utilization[0] == pytest.approx(0.2, abs=0.02)

    def test_per_stream_transfer_costs(self):
        split = self.make_plan(colocate=False)
        result = Simulator(
            split, step_seconds=0.1, transfer_costs={"a.out": 0.002}
        ).run(rates=[100.0], duration=10.0)
        assert result.node_utilization[0] == pytest.approx(0.3, abs=0.02)

    def test_cost_for_an_unknown_stream_rejected(self):
        split = self.make_plan(colocate=False)
        with pytest.raises(ValueError, match="no_such_stream"):
            Simulator(split, transfer_costs={"no_such_stream": 1.0})

    def test_negative_cost_on_a_colocated_arc_rejected(self):
        # a -> b never crosses nodes here, so no delivery reads the cost.
        together = self.make_plan(colocate=True)
        with pytest.raises(ValueError, match="'a.out'.*finite >= 0"):
            Simulator(together, transfer_costs={"a.out": -1.0})

    def test_non_finite_cost_rejected_before_any_event(self):
        split = self.make_plan(colocate=False)
        sink = MemorySink()
        with pytest.raises(ValueError, match="finite >= 0"):
            Simulator(
                split, transfer_costs=float("nan"), tracer=Tracer(sink)
            ).run(rates=[100.0], duration=10.0)
        assert sink.events == []


class TestJoins:
    def test_join_load_tracks_quadratic_model(self, join_model):
        from repro.core.rod import rod_place

        plan = rod_place(join_model, [1.0, 1.0])
        rates = [60.0, 60.0]
        result = Simulator(plan, step_seconds=0.01).run(
            rates=rates, duration=20.0
        )
        point = join_model.variable_point(rates)
        predicted = plan.feasible_set().utilizations(point).max()
        assert result.max_utilization == pytest.approx(predicted, rel=0.15)

    def test_step_coarser_than_half_window_rejected(self, join_model):
        from repro.core.rod import rod_place

        plan = rod_place(join_model, [1.0, 1.0])
        with pytest.raises(ValueError, match="half-window"):
            Simulator(plan, step_seconds=0.06)  # window is 0.1


class TestInputValidation:
    def test_series_or_constant_but_not_both(self):
        plan = single_op_plan()
        sim = Simulator(plan)
        with pytest.raises(ValueError, match="not both"):
            sim.run(rate_series=np.ones((10, 1)), rates=[1.0], duration=1.0)
        with pytest.raises(ValueError, match="rate_series"):
            sim.run()
        with pytest.raises(ValueError, match="duration"):
            sim.run(rates=[1.0], duration=0.0)

    def test_series_shape_checked(self):
        plan = single_op_plan()
        with pytest.raises(ValueError, match="shape"):
            Simulator(plan).run(rate_series=np.ones((10, 3)))

    def test_rates_shape_checked(self):
        plan = single_op_plan()
        with pytest.raises(ValueError, match="expected 1 rates"):
            Simulator(plan).run(rates=[1.0, 2.0], duration=1.0)

    def test_step_seconds_positive(self):
        with pytest.raises(ValueError, match="step_seconds"):
            Simulator(single_op_plan(), step_seconds=0.0)

    @pytest.mark.parametrize("duration", [float("inf"), float("nan")])
    def test_duration_finite(self, duration):
        with pytest.raises(ValueError, match="duration must be finite"):
            Simulator(single_op_plan()).run(rates=[1.0], duration=duration)

    @pytest.mark.parametrize("step", [float("inf"), float("nan")])
    def test_step_seconds_finite(self, step):
        with pytest.raises(ValueError, match="step_seconds must be finite"):
            Simulator(single_op_plan(), step_seconds=step)

    @pytest.mark.parametrize("workload", [
        {"rates": [float("nan")], "duration": 1.0},
        {"rate_series": np.array([[40.0], [np.inf], [40.0]])},
    ], ids=["point", "series"])
    def test_non_finite_rate_rejected_before_any_event(self, workload):
        sink = MemorySink()
        sim = Simulator(single_op_plan(), tracer=Tracer(sink))
        with pytest.raises(ValueError, match="input 'I' must be finite"):
            sim.run(**workload)
        assert sink.events == []

    def test_unknown_arrival_kind_rejected_before_any_event(self):
        sink = MemorySink()
        with pytest.raises(ValueError, match="unknown arrival kind: 'bogus'"):
            Simulator(
                single_op_plan(), arrival_kind="bogus", tracer=Tracer(sink)
            )
        assert sink.events == []

    @pytest.mark.parametrize("period", [0.0, float("nan"), float("inf")])
    def test_controller_period_checked_before_any_event(self, period):
        """The engine polls any object with ``period`` and ``decide``;
        a period of 0 would never advance the poll clock, and NaN or
        inf would schedule no poll, so none may build.  Never run here:
        at 0 the poll loop would not return."""

        class BarePoller:
            def decide(self, *args, **kwargs):
                return []

        controller = BarePoller()
        controller.period = period
        sink = MemorySink()
        with pytest.raises(ValueError, match="controller period"):
            Simulator(
                single_op_plan(), controller=controller, tracer=Tracer(sink)
            )
        assert sink.events == []

    def test_work_timeline_sums_to_node_busy(self):
        plan = single_op_plan(cost=0.005)
        result = Simulator(plan, step_seconds=0.1).run(
            rates=[60.0], duration=10.0
        )
        assert result.work_timeline.shape == (100, 1)
        assert result.work_timeline.sum() == pytest.approx(
            result.node_busy.sum()
        )
        for array in (result.node_busy, result.node_utilization,
                      result.backlog_seconds, result.work_timeline):
            assert isinstance(array, np.ndarray)
            assert array.dtype == np.float64

    def test_utilization_timeline_tracks_burst(self):
        plan = single_op_plan(cost=0.005)
        series = np.full((100, 1), 40.0)
        series[50:60] = 120.0
        result = Simulator(plan, step_seconds=0.1).run(rate_series=series)
        utilization = result.utilization_timeline(
            plan.capacities, 0.1
        )[:, 0]
        assert utilization[55] > utilization[20] * 2

    def test_poisson_arrivals_supported(self):
        plan = single_op_plan()
        result = Simulator(
            plan, step_seconds=0.1, arrival_kind="poisson", seed=1
        ).run(rates=[100.0], duration=20.0)
        assert result.tuples_in == pytest.approx(2000, rel=0.1)


class TestControllersSeeLiveCapacities:
    """Controllers get the live capacities as a float64 array: degraded
    inside a brownout window, nominal outside it."""

    NOMINAL = (2.0, 1.0)
    FACTOR = 0.3

    class Recorder:
        period = 1.0

        def __init__(self):
            self.seen = []

        def record(self, hook, now, capacities):
            assert isinstance(capacities, np.ndarray)
            assert capacities.dtype == np.float64
            self.seen.append((hook, now, capacities.tolist()))
            return []

        def decide(self, now, utilizations, assignment, model, capacities,
                   operator_loads=None):
            return self.record("decide", now, capacities)

        def on_node_failed(self, now, node, assignment, model, capacities,
                           failed):
            return self.record("on_node_failed", now, capacities)

        def on_node_recovered(self, now, node, assignment, model,
                              capacities, failed):
            return self.record("on_node_recovered", now, capacities)

    def test_degrade_window_in_decide_and_failover_hooks(self):
        g = QueryGraph()
        i = g.add_input("I")
        a = g.add_operator(Delay("a", cost=0.002, selectivity=1.0), [i])
        g.add_operator(Delay("b", cost=0.002, selectivity=1.0), [a])
        plan = placement_from_mapping(
            build_load_model(g), list(self.NOMINAL), {"a": 0, "b": 1}
        )
        faults = FaultSchedule([
            FaultEvent(time=2.0, kind="node.degrade", node=0,
                       factor=self.FACTOR, duration=3.0),
            FaultEvent(time=3.5, kind="node.crash", node=1),
            FaultEvent(time=6.5, kind="node.recover", node=1),
        ])
        controller = self.Recorder()
        Simulator(
            plan, step_seconds=0.1, controller=controller, faults=faults,
        ).run(rates=[50.0], duration=8.0)
        degraded = [self.NOMINAL[0] * self.FACTOR, self.NOMINAL[1]]
        expected = [
            (hook, now, degraded if 2.0 <= now < 5.0 else list(self.NOMINAL))
            for hook, now, _ in controller.seen
        ]
        assert controller.seen == expected
        assert ("on_node_failed", 3.5, degraded) in controller.seen
        assert ("on_node_recovered", 6.5, list(self.NOMINAL)) in (
            controller.seen
        )
        assert [now for hook, now, _ in controller.seen
                if hook == "decide"] == [float(t) for t in range(1, 9)]


def drawn_simulator(graph_seed, chaos_seed, controller, tracer=None):
    """A three-node run over a drawn monitoring graph (split for the
    elastic controller), with chaos faults when ``chaos_seed`` is set,
    and the rate series it runs on."""
    model = build_load_model(monitoring_graph(2, seed=graph_seed))
    if controller == "elastic":
        model = partition_load_model(
            model, "normalize0", 2, fractions=(0.8, 0.2)
        )
    names = model.graph.operator_names
    placement = placement_from_mapping(
        model, [1.0, 1.0, 1.0],
        {name: k % 3 for k, name in enumerate(names)},
    )
    faults = None if chaos_seed is None else chaos_schedule(
        3, horizon=6.0, seed=chaos_seed, operator_names=names,
    )
    series = np.full((60, 2), 200.0)
    series[20:40, 0] *= 4.0
    simulator = Simulator(
        placement, step_seconds=0.1, faults=faults,
        controller=NEUTRALITY_CONTROLLERS[controller](), tracer=tracer,
    )
    return simulator, series


#: The drawn runs: a graph seed, a chaos seed or none, and a controller.
RUNS = dict(
    graph_seed=st.integers(0, 2**16 - 1),
    chaos_seed=st.none() | st.integers(0, 2**16 - 1),
    controller=st.sampled_from(sorted(NEUTRALITY_CONTROLLERS)),
)


class TestEventSources:
    """The loop takes each event from one of three sources: the events
    known when the run is built, sorted once, a heap of the completions
    and stall ends the handlers create, and a FIFO of the derived
    arrivals they hand on.  It must run them in exactly the order one
    heap holding all three would."""

    @staticmethod
    def single_heap_run(sim, series):
        """The reference loop: every scheduled entry heapified into the
        heap the handlers push onto, and after each handler every
        derived arrival it queued pushed onto that heap with a fresh
        sequence number, popped until the heap is empty."""
        state = engine._Run(sim, sim._resolve_series(series, None, None))
        events, arrivals = state.events, state.arrivals
        events.extend(state.scheduled)
        state.scheduled.clear()
        heapq.heapify(events)
        while events:
            time, _, _, handler, payload = heapq.heappop(events)
            handler(time, payload)
            while arrivals:
                batch = arrivals.popleft()
                heapq.heappush(events, (
                    batch.arrival, engine._ARRIVAL, next(state.sequence),
                    state.on_arrival, batch,
                ))
        return state.result()

    @settings(max_examples=10, deadline=None)
    @given(**RUNS, tracing=st.booleans())
    @example(graph_seed=1, chaos_seed=7, controller="failover", tracing=True)
    def test_merged_loop_equals_single_heap_loop(
        self, graph_seed, chaos_seed, controller, tracing
    ):
        def run(loop):
            sink = MemorySink()
            sim, series = drawn_simulator(
                graph_seed, chaos_seed, controller,
                tracer=Tracer(sink) if tracing else None,
            )
            return fingerprint(loop(sim, series)), trace_digest(sink.events)

        merged = run(lambda sim, series: sim.run(rate_series=series))
        assert merged == run(self.single_heap_run)

    def test_heap_holds_only_in_flight_work(self, monkeypatch):
        """On the benchmark's ``steady`` shape the heap never holds more
        than one completion per node; no arrival, up-front or derived,
        ever enters it."""
        longest = 0

        def heappush(heap, entry):
            nonlocal longest
            heapq.heappush(heap, entry)
            longest = max(longest, len(heap))

        monkeypatch.setattr(engine, "heapq", types.SimpleNamespace(
            heappush=heappush, heappop=heapq.heappop,
        ))
        model = make_model(4, 12, seed=5)
        capacities = [1.0] * 8
        series = steady_trace_series(model, capacities, 300, 0.7, seed=3)
        Simulator(
            rod_place(model, capacities), step_seconds=0.1
        ).run(rate_series=series)
        assert 0 < longest <= len(capacities)

    def test_same_instant_events_run_by_priority(self):
        """At t = 1.0 a fault, a control poll and a source arrival (all
        scheduled) meet a completion (on the heap): fault, then
        control, then completion, then arrival."""
        plan = single_op_plan(cost=0.5)  # one tuple per step, 0.5 s each
        faults = FaultSchedule([FaultEvent(
            time=1.0, kind="operator.slowdown", operator="op",
            factor=2.0, duration=1.0,
        )])
        sink = MemorySink()
        Simulator(
            plan, step_seconds=0.5, faults=faults, tracer=Tracer(sink),
            controller=LoadBalancingController(period=1.0),
        ).run(rates=[2.0], duration=2.0)
        kinds = ("fault.injected", "decision.evaluated", "batch.serviced",
                 "batch.enqueued")
        assert [
            event["type"] for event in sink.events
            if event["t"] == 1.0 and event["type"] in kinds
        ] == list(kinds)

    def test_zero_delay_handoff_keeps_its_place(self):
        """A zero-cost operator completes at the instant its batch
        arrives, and its derived arrival lands at that instant too.  At
        t = 1.0 a fault (scheduled), a completion on node 1 (heap), two
        source arrivals (scheduled), the zero-cost completion and its
        derived arrival meet: the derived arrival runs after the
        completion and after both source arrivals."""
        graph = QueryGraph()
        a, b = graph.add_input("A"), graph.add_input("B")
        free = graph.add_operator(Delay("free", cost=0.0, selectivity=1.0),
                                  [a])
        graph.add_operator(Delay("after", cost=0.25, selectivity=1.0),
                           [free])
        graph.add_operator(Delay("other", cost=0.25, selectivity=1.0), [b])
        plan = placement_from_mapping(
            build_load_model(graph), [1.0, 1.0],
            {"free": 0, "after": 1, "other": 1},
        )
        faults = FaultSchedule([FaultEvent(
            time=1.0, kind="operator.slowdown", operator="after",
            factor=2.0, duration=1.0,
        )])
        sink = MemorySink()
        Simulator(
            plan, step_seconds=0.5, faults=faults, tracer=Tracer(sink),
        ).run(rates=[2.0, 2.0], duration=2.0)
        assert [
            (event["type"], event.get("operator", event.get("node")))
            for event in sink.events if event["t"] == 1.0
        ] == [
            ("fault.injected", "after"),
            ("batch.serviced", "after"), ("node.idle", 1),
            ("batch.enqueued", "free"), ("node.busy", 0),
            ("batch.serviced", "free"), ("node.idle", 0),
            ("batch.enqueued", "other"), ("node.busy", 1),
            ("batch.enqueued", "after"),
        ]
        assert trace_digest(sink.events) == (
            "8feb2c2bdc71a617386953d358a3339553d9db789787f720576fd18b7e15ee04"
        )


class TestKeptRecordsAreTheFile:
    """``simulate --record`` builds its snapshot from the records a
    ``MemorySink`` kept while forwarding them to the trace file, and
    every viewer reads what :func:`read_trace` decodes from that file:
    the two must be the same records."""

    @settings(max_examples=10, deadline=None)
    @given(**RUNS)
    @example(graph_seed=1, chaos_seed=7, controller="failover")
    def test_read_records_equal_kept_records(
        self, graph_seed, chaos_seed, controller
    ):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "trace.jsonl")
            with MemorySink(forward=JsonlSink(path)) as sink:
                sim, series = drawn_simulator(
                    graph_seed, chaos_seed, controller, tracer=Tracer(sink)
                )
                sim.run(rate_series=series)
            events = read_trace(path)
        assert events == sink.events
        assert trace_digest(events) == trace_digest(sink.events)
