"""Edge-case sweep across modules: the paths the main suites skirt."""

import numpy as np
import pytest

from repro import build_load_model, placement_from_mapping, rod_place
from repro.core.clustering import ClusteredModel, Clustering, cluster_operators
from repro.core.plans import diff_placements
from repro.core.viz import compare_feasible_sets
from repro.experiments.common import volume_ratio_runs
from repro.graphs import Delay, QueryGraph, WindowJoin, join_graph
from repro.graphs.partition import partition_operator
from repro.runtime import FnCountWindow, Interpreter, Record, StreamProgram
from repro.simulator import FeasibilityProbe
from repro.simulator.metrics import SimulationResult, LatencyStats


class TestDiffPlacements:
    def test_reports_moves_only(self, example_model, two_nodes):
        a = placement_from_mapping(
            example_model, two_nodes, {"o1": 0, "o2": 0, "o3": 1, "o4": 1}
        )
        b = placement_from_mapping(
            example_model, two_nodes, {"o1": 0, "o2": 1, "o3": 1, "o4": 0}
        )
        diff = diff_placements(a, b)
        assert diff == {"o2": (0, 1), "o4": (1, 0)}

    def test_identical_plans_empty_diff(self, example_model, two_nodes):
        a = rod_place(example_model, two_nodes)
        assert diff_placements(a, a) == {}

    def test_growth_ignored(self, two_nodes):
        g1 = QueryGraph()
        i = g1.add_input("I")
        g1.add_operator(Delay("a", cost=1.0, selectivity=1.0), [i])
        m1 = build_load_model(g1)

        g2 = QueryGraph()
        i = g2.add_input("I")
        g2.add_operator(Delay("a", cost=1.0, selectivity=1.0), [i])
        g2.add_operator(Delay("b", cost=1.0, selectivity=1.0), [i])
        m2 = build_load_model(g2)

        before = placement_from_mapping(m1, two_nodes, {"a": 0})
        after = placement_from_mapping(m2, two_nodes, {"a": 0, "b": 1})
        assert diff_placements(before, after) == {}


class TestFnCountWindow:
    def test_emits_every_n(self):
        op = FnCountWindow("w", size=3, reducer=lambda rs: {"n": len(rs)})
        outs = []
        for t in range(7):
            outs.extend(op.accept(0, Record(t * 0.1, {"v": t})))
        assert [o["n"] for o in outs] == [3, 3]

    def test_grouped_counting(self):
        op = FnCountWindow(
            "w", size=2, reducer=lambda rs: {"n": len(rs)},
            key=lambda d: d["k"],
        )
        op.accept(0, Record(0.0, {"k": "a"}))
        op.accept(0, Record(0.1, {"k": "b"}))
        (out,) = op.accept(0, Record(0.2, {"k": "a"}))
        assert out["key"] == "a"

    def test_partial_window_dropped_at_flush(self):
        op = FnCountWindow("w", size=5, reducer=lambda rs: {"n": len(rs)})
        op.accept(0, Record(0.0, {}))
        assert op.flush() == []

    def test_structural_selectivity(self):
        op = FnCountWindow("w", size=4, reducer=lambda rs: {})
        model_op = op.to_model_operator(selectivity=0.99)  # ignored
        assert model_op.selectivities[0] == pytest.approx(0.25)

    def test_in_a_program(self):
        p = StreamProgram()
        src = p.add_input("src")
        p.add(
            FnCountWindow("batch", size=10,
                          reducer=lambda rs: {"n": len(rs)}),
            [src],
        )
        records = [Record(t * 0.1, {}) for t in range(35)]
        result = Interpreter(p).run({"src": records})
        assert result.selectivities()["batch"] == pytest.approx(0.1, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            FnCountWindow("w", size=0, reducer=lambda rs: {})


class TestClusteringEdges:
    def test_join_endpoint_uses_per_pair_cost(self):
        graph = join_graph(1, downstream_per_join=1, window=0.1, seed=1)
        model = build_load_model(graph)
        # Arc join0 -> jop0 exists; clustering must not crash on the
        # join's lack of a constant per-tuple cost.
        clustering = cluster_operators(
            model, 1e-3, threshold=0.1, max_weight=1.0
        )
        clustering.validate(model)

    def test_clustered_model_unknown_cluster(self, small_tree_model):
        clustering = Clustering(
            groups=tuple((n,) for n in small_tree_model.operator_names)
        )
        clustered = ClusteredModel(small_tree_model, clustering)
        with pytest.raises(KeyError):
            clustered.operator_index("nope")

    def test_group_of(self, small_tree_model):
        clustering = Clustering(
            groups=tuple((n,) for n in small_tree_model.operator_names)
        )
        assert clustering.group_of(small_tree_model.operator_names[2]) == 2
        with pytest.raises(KeyError):
            clustering.group_of("ghost")


class TestProbeWithTransferCosts:
    def test_transfer_costs_shrink_empirical_feasibility(self):
        g = QueryGraph()
        i = g.add_input("I")
        a = g.add_operator(Delay("a", cost=0.004, selectivity=1.0), [i])
        g.add_operator(Delay("b", cost=0.004, selectivity=1.0), [a])
        model = build_load_model(g)
        plan = placement_from_mapping(model, [1.0, 1.0], {"a": 0, "b": 1})
        # At 130/s each node demands 0.52 without transfer but 1.04 once
        # every crossing tuple costs 0.004 to send and receive.
        cheap = FeasibilityProbe(duration=5.0)
        costly = FeasibilityProbe(duration=5.0, transfer_costs=0.004)
        assert cheap.is_feasible(plan, [130.0])
        assert not costly.is_feasible(plan, [130.0])


class TestVizCompareDimensions:
    def test_custom_canvas_size(self, example_model, two_nodes):
        a = placement_from_mapping(
            example_model, two_nodes, {"o1": 0, "o2": 0, "o3": 1, "o4": 1}
        ).feasible_set()
        text = compare_feasible_sets(a, a, width=20, height=5)
        lines = text.splitlines()
        assert any(len(line) == 21 for line in lines)


class TestPartitionCosts:
    def test_custom_route_and_merge_costs_propagate(self):
        g = QueryGraph()
        i = g.add_input("I")
        g.add_operator(Delay("op", cost=1.0, selectivity=1.0), [i])
        rebuilt = partition_operator(
            g, "op", ways=2, route_cost=0.25, merge_cost=0.5
        )
        model = build_load_model(rebuilt)
        route_row = model.operator_load_vector("op.route0")
        merge_row = model.operator_load_vector("op.merge")
        assert route_row[0] == pytest.approx(0.25)
        # Merge sees each instance's output: 2 ports * 0.5 * 0.5 r.
        assert merge_row[0] == pytest.approx(0.5)


class TestExperimentPlumbing:
    def test_volume_ratio_runs_rod_single(self, small_tree_model,
                                          four_nodes):
        runs = volume_ratio_runs(
            "rod", small_tree_model, four_nodes, repeats=5, samples=512
        )
        assert runs.shape == (1,)

    def test_volume_ratio_runs_baseline_repeats(self, small_tree_model,
                                                four_nodes):
        runs = volume_ratio_runs(
            "random", small_tree_model, four_nodes, repeats=4, samples=512
        )
        assert runs.shape == (4,)
        assert np.all((runs >= 0) & (runs <= 1))


class TestMetricsEdges:
    def test_utilization_timeline_requires_recording(self):
        result = SimulationResult(
            duration=1.0,
            node_busy=np.zeros(1),
            node_utilization=np.zeros(1),
            backlog_seconds=np.zeros(1),
            latency=LatencyStats(),
        )
        with pytest.raises(ValueError, match="timeline"):
            result.utilization_timeline(np.ones(1), 0.1)

    def test_migration_pause_counts_both_endpoints(self):
        from repro.dynamics import Migration

        result = SimulationResult(
            duration=1.0,
            node_busy=np.zeros(2),
            node_utilization=np.zeros(2),
            backlog_seconds=np.zeros(2),
            latency=LatencyStats(),
            migrations=[
                Migration("op", 0, 1, pause_seconds=0.3),
            ],
        )
        assert result.total_migration_pause == pytest.approx(0.6)
