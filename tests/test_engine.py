"""Unit tests for the discrete-event simulation engine."""

import numpy as np
import pytest

from repro import build_load_model, placement_from_mapping
from repro.graphs import Delay, Filter, Map, QueryGraph, WindowJoin
from repro.obs.trace import MemorySink, Tracer
from repro.simulator import Simulator


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

    def test_work_timeline_sums_to_node_busy(self):
        plan = single_op_plan(cost=0.005)
        result = Simulator(plan, step_seconds=0.1).run(
            rates=[60.0], duration=10.0
        )
        assert result.work_timeline.shape == (100, 1)
        assert result.work_timeline.sum() == pytest.approx(
            result.node_busy.sum()
        )

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
