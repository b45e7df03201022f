"""Tests for the high-level Deployment facade."""

import numpy as np
import pytest

from repro.deploy import Deployment
from repro.graphs import (
    Delay,
    QueryGraph,
    graph_from_dict,
    graph_to_dict,
    join_graph,
    monitoring_graph,
)


@pytest.fixture
def graph():
    return monitoring_graph(num_links=2, seed=3)


class TestPlan:
    def test_default_rod(self, graph):
        deployment = Deployment.plan(graph, [1.0, 1.0])
        assert 0.0 < deployment.volume_ratio(samples=1024) <= 1.0
        assert "monitoring" in repr(deployment)

    @pytest.mark.parametrize(
        "strategy", ["llf", "connected", "correlation", "random", "milp"]
    )
    def test_baseline_strategies(self, graph, strategy):
        deployment = Deployment.plan(
            graph, [1.0, 1.0], strategy=strategy, seed=1
        )
        assert deployment.placement.num_nodes == 2

    def test_unknown_strategy(self, graph):
        with pytest.raises(ValueError, match="strategy"):
            Deployment.plan(graph, [1.0, 1.0], strategy="magic")

    def test_nonlinear_graph_linearized_automatically(self):
        graph = join_graph(1, downstream_per_join=2, window=0.2, seed=2)
        deployment = Deployment.plan(graph, [1.0, 1.0])
        assert deployment.model.is_linearized

    def test_transfer_costs_trigger_clustering(self, graph):
        plain = Deployment.plan(graph, [1.0, 1.0])
        clustered = Deployment.plan(graph, [1.0, 1.0], transfer_costs=3e-4)
        # Clustering never increases crossings vs the plain ROD plan.
        assert (
            clustered.placement.inter_node_arcs()
            <= plain.placement.inter_node_arcs()
        )

    def test_cluster_flag_validation(self, graph):
        with pytest.raises(ValueError, match="zero"):
            Deployment.plan(graph, [1.0, 1.0], cluster=True)
        with pytest.raises(ValueError, match="ROD"):
            Deployment.plan(
                graph, [1.0, 1.0], strategy="llf",
                transfer_costs=1e-4,
            )

    def test_cost_for_an_unknown_stream_rejected(self, graph):
        with pytest.raises(ValueError, match="no_such_stream"):
            Deployment.plan(
                graph, [1.0, 1.0], transfer_costs={"no_such_stream": 1.0}
            )

    def test_lower_bound_only_with_rod(self, graph):
        floor = np.zeros(2)
        with pytest.raises(ValueError, match="ROD"):
            Deployment.plan(
                graph, [1.0, 1.0], strategy="llf", lower_bound=floor
            )

    def test_comm_aware_ratio_below_plain(self, graph):
        plain = Deployment.plan(graph, [1.0, 1.0])
        costly = Deployment.plan(
            graph, [1.0, 1.0], transfer_costs=5e-4, cluster=False
        )
        assert costly.volume_ratio(samples=1024) <= (
            plain.volume_ratio(samples=1024) + 1e-9
        )


class TestGrow:
    def test_grow_pins_existing(self, graph):
        deployment = Deployment.plan(graph, [1.0, 1.0])
        grown_graph = graph_from_dict(graph_to_dict(graph))
        stream = grown_graph.add_input("link_new")
        grown_graph.add_operator(
            Delay("new_filter", cost=2e-4, selectivity=0.5), [stream]
        )
        grown = deployment.grow(grown_graph)
        for name in deployment.model.operator_names:
            assert grown.placement.node_of(name) == (
                deployment.placement.node_of(name)
            )
        assert "new_filter" in grown.model.operator_names

    def test_grow_carries_floors_by_variable_name(self):
        graph = monitoring_graph(2, seed=1)
        deployment = Deployment.plan(graph, [1.0, 1.0],
                                     lower_bound=[5.0, 5.0])
        grown_graph = graph_from_dict(graph_to_dict(graph))
        stream = grown_graph.add_input("link_new")
        grown_graph.add_operator(
            Delay("new_delay", cost=2e-4, selectivity=1.0), [stream]
        )
        grown = deployment.grow(grown_graph)
        assert grown.model.variables == ("link0", "link1", "link_new")
        assert grown.placement.lower_bound.tolist() == [5.0, 5.0, 0.0]
        for name in deployment.model.operator_names:
            assert grown.placement.node_of(name) == (
                deployment.placement.node_of(name)
            )


class TestExecution:
    def test_simulate(self, graph):
        deployment = Deployment.plan(graph, [1.0, 1.0])
        result = deployment.simulate(rates=[50.0, 50.0], duration=5.0)
        assert result.tuples_in > 0

    def test_probe(self, graph):
        deployment = Deployment.plan(graph, [1.0, 1.0])
        assert deployment.probe([20.0, 20.0], duration=4.0)
        assert not deployment.probe([1e6, 1e6], duration=4.0)

    def test_summary_mentions_key_sections(self, graph):
        deployment = Deployment.plan(graph, [1.0, 1.0])
        text = deployment.summary()
        assert "plane distance" in text
        assert "headroom" in text
        assert "feasible-set ratio" in text
