"""Unit tests for operator clustering (Section 6.3)."""

import numpy as np
import pytest

from repro import build_load_model
from repro.core.clustering import (
    ClusteredModel,
    Clustering,
    cluster_operators,
    communication_feasible_set,
    search_clusterings,
)
from repro.core.rod import rod_place
from repro.graphs import Delay, Map, QueryGraph


@pytest.fixture
def chain_model():
    """I -> a -> b -> c, equal unit costs."""
    g = QueryGraph("chain")
    s = g.add_input("I")
    for name in "abc":
        s = g.add_operator(Delay(name, cost=1.0, selectivity=1.0), [s])
    return build_load_model(g)


class TestClusterOperators:
    def test_zero_transfer_cost_never_merges(self, chain_model):
        clustering = cluster_operators(chain_model, 0.0, threshold=0.1)
        assert clustering.num_clusters == 3

    def test_expensive_arcs_merge(self, chain_model):
        # Transfer 2x the processing cost, threshold 1: merge everything
        # the weight cap allows.
        clustering = cluster_operators(
            chain_model, 2.0, threshold=1.0, max_weight=1.0
        )
        assert clustering.num_clusters < 3

    def test_threshold_blocks_cheap_arcs(self, chain_model):
        clustering = cluster_operators(
            chain_model, 0.5, threshold=1.0, max_weight=1.0
        )
        # Ratio = 0.5 / 1.0 < threshold: nothing merges.
        assert clustering.num_clusters == 3

    def test_weight_cap_blocks_merges(self, chain_model):
        # Each operator holds 1/3 of the stream's load; cap below 2/3
        # forbids any pairwise merge.
        clustering = cluster_operators(
            chain_model, 10.0, threshold=0.1, max_weight=0.5
        )
        assert clustering.num_clusters == 3

    def test_clusters_partition_operators(self, monitoring_model):
        clustering = cluster_operators(
            monitoring_model, 1e-4, threshold=0.5, max_weight=0.6
        )
        clustering.validate(monitoring_model)
        members = sorted(
            name for group in clustering.groups for name in group
        )
        assert members == sorted(monitoring_model.operator_names)

    def test_approaches_accepted(self, chain_model):
        for approach in ("ratio", "weight"):
            cluster_operators(
                chain_model, 2.0, threshold=1.0, max_weight=1.0,
                approach=approach,
            )
        with pytest.raises(ValueError, match="approach"):
            cluster_operators(chain_model, 2.0, approach="magic")

    def test_per_stream_transfer_costs(self, chain_model):
        costs = {"a.out": 5.0}  # only a->b is expensive
        clustering = cluster_operators(
            chain_model, costs, threshold=1.0, max_weight=0.7
        )
        merged = next(g for g in clustering.groups if len(g) > 1)
        assert set(merged) == {"a", "b"}

    def test_negative_transfer_cost_rejected(self, chain_model):
        with pytest.raises(ValueError, match="transfer cost"):
            cluster_operators(chain_model, -1.0)

    def test_cost_for_an_unknown_stream_rejected(self, chain_model):
        with pytest.raises(ValueError, match="no_such_stream"):
            cluster_operators(chain_model, {"no_such_stream": 1.0})

    def test_negative_cost_off_every_arc_rejected(self, chain_model):
        # The input stream I feeds a, but no operator-to-operator arc.
        with pytest.raises(ValueError, match="'I'.*finite >= 0"):
            cluster_operators(chain_model, {"I": -1.0})

    def test_invalid_clustering_rejected(self, chain_model):
        bad = Clustering(groups=(("a",), ("b",)))  # missing c
        with pytest.raises(ValueError, match="partition"):
            bad.validate(chain_model)


class TestClusteredModel:
    def test_rows_are_summed_members(self, chain_model):
        clustering = Clustering(groups=(("a", "b"), ("c",)))
        clustered = ClusteredModel(chain_model, clustering)
        assert clustered.num_operators == 2
        assert np.allclose(clustered.coefficients[0], [2.0])
        assert np.allclose(clustered.coefficients[1], [1.0])

    def test_totals_unchanged(self, chain_model):
        clustering = Clustering(groups=(("a", "b"), ("c",)))
        clustered = ClusteredModel(chain_model, clustering)
        assert np.allclose(
            clustered.column_totals(), chain_model.column_totals()
        )

    def test_expand_keeps_members_together(self, chain_model):
        clustering = Clustering(groups=(("a", "b"), ("c",)))
        clustered = ClusteredModel(chain_model, clustering)
        plan = clustered.expand(rod_place(clustered, [1.0, 1.0]))
        assert plan.node_of("a") == plan.node_of("b")
        assert plan.model is chain_model

    def test_cluster_graph_adjacency(self, chain_model):
        clustering = Clustering(groups=(("a", "b"), ("c",)))
        clustered = ClusteredModel(chain_model, clustering)
        assert clustered.graph.downstream_operators("a+b") == ("c",)
        assert clustered.graph.upstream_operators("c") == ("a+b",)

    def test_rod_with_connections_policy_on_clusters(self, chain_model):
        clustering = Clustering(groups=(("a",), ("b",), ("c",)))
        clustered = ClusteredModel(chain_model, clustering)
        plan = rod_place(
            clustered, [1.0, 1.0], class_one_policy="connections"
        )
        assert len(plan.assignment) == 3


class TestCommunicationFeasibleSet:
    def test_no_cost_matches_plain(self, chain_model):
        plan = rod_place(chain_model, [1.0, 1.0])
        plain = plan.feasible_set()
        comm = communication_feasible_set(plan, 0.0)
        assert np.allclose(
            comm.node_coefficients, plain.node_coefficients
        )

    def test_crossing_arcs_charge_both_nodes(self, chain_model):
        from repro import placement_from_mapping

        plan = placement_from_mapping(
            chain_model, [1.0, 1.0], {"a": 0, "b": 1, "c": 1}
        )
        comm = communication_feasible_set(plan, 0.5)
        plain = plan.node_coefficients()
        delta = comm.node_coefficients - plain
        # One crossing arc (a->b) with unit stream rate: +0.5 on each node.
        assert np.allclose(delta, [[0.5], [0.5]])

    def test_cost_for_an_unknown_stream_rejected(self, chain_model):
        plan = rod_place(chain_model, [1.0, 1.0])
        with pytest.raises(ValueError, match="no_such_stream"):
            communication_feasible_set(plan, {"no_such_stream": 1.0})

    def test_colocated_plan_pays_nothing(self, chain_model):
        from repro import placement_from_mapping

        plan = placement_from_mapping(
            chain_model, [1.0, 1.0], {"a": 0, "b": 0, "c": 0}
        )
        comm = communication_feasible_set(plan, 5.0)
        assert np.allclose(
            comm.node_coefficients, plan.node_coefficients()
        )


class TestSearch:
    def test_search_returns_best_comm_distance(self, monitoring_model):
        result = search_clusterings(
            monitoring_model,
            [1.0, 1.0, 1.0],
            transfer_costs=3e-4,
            thresholds=(0.5, 1.0),
            weight_cap_multipliers=(1.0, 2.0),
        )
        assert result.comm_plane_distance > 0
        assert result.clustering.num_clusters <= monitoring_model.num_operators

    def test_clustered_not_worse_than_plain_under_comm_cost(
        self, monitoring_model
    ):
        caps = [1.0, 1.0, 1.0]
        transfer = 4e-4
        plain = rod_place(monitoring_model, caps)
        plain_distance = communication_feasible_set(
            plain, transfer
        ).plane_distance()
        result = search_clusterings(monitoring_model, caps, transfer)
        assert result.comm_plane_distance >= plain_distance - 1e-9
