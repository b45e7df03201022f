"""Unit tests for the baseline placers (Section 7.2)."""

import numpy as np
import pytest

from repro import build_load_model
from repro.graphs import Delay, QueryGraph, random_tree_graph
from repro.graphs.generator import RandomGraphConfig
from repro.placement import (
    ConnectedPlacer,
    CorrelationPlacer,
    LLFPlacer,
    OptimalPlacer,
    RODPlacer,
    RandomPlacer,
    correlation_coefficient,
    enumerate_assignments,
)


class TestRandomPlacer:
    def test_equal_counts(self, small_tree_model, four_nodes):
        plan = RandomPlacer(seed=1).place(small_tree_model, four_nodes)
        counts = plan.operator_counts()
        assert counts.max() - counts.min() <= 1

    def test_seed_determinism(self, small_tree_model, four_nodes):
        a = RandomPlacer(seed=2).place(small_tree_model, four_nodes)
        b = RandomPlacer(seed=2).place(small_tree_model, four_nodes)
        assert a.assignment == b.assignment

    def test_seeds_differ(self, small_tree_model, four_nodes):
        a = RandomPlacer(seed=2).place(small_tree_model, four_nodes)
        b = RandomPlacer(seed=3).place(small_tree_model, four_nodes)
        assert a.assignment != b.assignment

    def test_empty_model_rejected(self, two_nodes):
        g = QueryGraph()
        g.add_input("I")
        with pytest.raises(ValueError, match="empty"):
            RandomPlacer().place(build_load_model(g), two_nodes)


class TestLLFPlacer:
    def test_balances_load_at_rate_point(self, four_nodes):
        config = RandomGraphConfig(num_inputs=2, operators_per_tree=30)
        model = build_load_model(random_tree_graph(config, seed=4))
        rates = np.ones(2)
        plan = LLFPlacer(rates=rates).place(model, four_nodes)
        loads = plan.node_coefficients() @ rates
        assert loads.max() / loads.min() < 1.3

    def test_largest_operator_goes_first_to_least_loaded(self, example_model,
                                                         two_nodes):
        plan = LLFPlacer(rates=[1.0, 1.0]).place(example_model, two_nodes)
        # o3 (load 9) and o2 (load 6) must land on different nodes.
        assert plan.node_of("o3") != plan.node_of("o2")

    def test_respects_heterogeneous_capacity(self):
        g = QueryGraph()
        i = g.add_input("I")
        for k in range(8):
            g.add_operator(Delay(f"d{k}", cost=1.0, selectivity=1.0), [i])
        model = build_load_model(g)
        plan = LLFPlacer(rates=[1.0]).place(model, np.array([3.0, 1.0]))
        counts = plan.operator_counts()
        assert counts[0] == 6 and counts[1] == 2

    def test_default_rates_all_ones(self, small_tree_model, four_nodes):
        LLFPlacer().place(small_tree_model, four_nodes)  # must not raise

    def test_rate_validation(self, small_tree_model, four_nodes):
        with pytest.raises(ValueError):
            LLFPlacer(rates=[1.0]).place(small_tree_model, four_nodes)
        with pytest.raises(ValueError):
            LLFPlacer(rates=[-1.0, 1.0, 1.0]).place(
                small_tree_model, four_nodes
            )


class TestConnectedPlacer:
    def test_keeps_more_arcs_local_than_random(self, four_nodes):
        config = RandomGraphConfig(num_inputs=3, operators_per_tree=15)
        model = build_load_model(random_tree_graph(config, seed=6))
        connected = ConnectedPlacer().place(model, four_nodes)
        rand = RandomPlacer(seed=1).place(model, four_nodes)
        assert connected.inter_node_arcs() < rand.inter_node_arcs()

    def test_all_operators_assigned(self, monitoring_model, four_nodes):
        plan = ConnectedPlacer().place(monitoring_model, four_nodes)
        assert len(plan.assignment) == monitoring_model.num_operators

    def test_load_roughly_balanced(self, four_nodes):
        config = RandomGraphConfig(num_inputs=4, operators_per_tree=20)
        model = build_load_model(random_tree_graph(config, seed=8))
        rates = np.ones(4)
        plan = ConnectedPlacer(rates=rates).place(model, four_nodes)
        loads = plan.node_coefficients() @ rates
        assert loads.max() <= 2.0 * loads.mean()


class TestCorrelationPlacer:
    def test_separates_correlated_operators(self, two_nodes):
        """Two heavy operators fed by the same input stream spike
        together; the correlation scheme must split them."""
        g = QueryGraph()
        i = g.add_input("I")
        g.add_operator(Delay("h1", cost=5.0, selectivity=1.0), [i])
        g.add_operator(Delay("h2", cost=5.0, selectivity=1.0), [i])
        model = build_load_model(g)
        rng = np.random.default_rng(0)
        series = rng.uniform(0.1, 2.0, size=(64, 1))
        plan = CorrelationPlacer(series).place(model, two_nodes)
        assert plan.node_of("h1") != plan.node_of("h2")

    def test_series_validation(self):
        with pytest.raises(ValueError, match="time steps"):
            CorrelationPlacer(np.ones((1, 3)))
        with pytest.raises(ValueError, match=">= 0"):
            CorrelationPlacer(-np.ones((4, 3)))
        with pytest.raises(ValueError, match="slack"):
            CorrelationPlacer(np.ones((4, 3)), balance_slack=-0.1)

    def test_series_width_must_match_model(self, small_tree_model,
                                           four_nodes):
        placer = CorrelationPlacer(np.ones((16, 2)))
        with pytest.raises(ValueError, match="variables"):
            placer.place(small_tree_model, four_nodes)

    def test_correlation_coefficient(self):
        a = np.array([1.0, 2.0, 3.0])
        assert correlation_coefficient(a, a) == pytest.approx(1.0)
        assert correlation_coefficient(a, -a) == pytest.approx(-1.0)
        assert correlation_coefficient(a, np.zeros(3)) == 0.0
        with pytest.raises(ValueError):
            correlation_coefficient(a, np.ones(4))


class TestOptimalPlacer:
    def test_enumeration_counts_homogeneous(self):
        # Restricted growth strings for m=3 ops, n=2 nodes: B(3 into <=2)=4.
        plans = list(enumerate_assignments(3, 2, homogeneous=True))
        assert len(plans) == 4
        assert all(p[0] == 0 for p in plans)

    def test_enumeration_counts_heterogeneous(self):
        plans = list(enumerate_assignments(2, 3, homogeneous=False))
        assert len(plans) == 9

    def test_enumeration_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_assignments(0, 2, True))
        with pytest.raises(ValueError):
            list(enumerate_assignments(2, 0, True))

    def test_optimal_at_least_rod_on_example(self, example_model, two_nodes):
        optimal = OptimalPlacer().place(example_model, two_nodes)
        rod = RODPlacer().place(example_model, two_nodes)
        assert (
            optimal.feasible_set().exact_volume()
            >= rod.feasible_set().exact_volume() - 1e-9
        )

    def test_refuses_large_instances(self, two_nodes):
        config = RandomGraphConfig(num_inputs=2, operators_per_tree=12)
        model = build_load_model(random_tree_graph(config, seed=9))
        placer = OptimalPlacer(max_operators=10)
        with pytest.raises(ValueError, match="refusing"):
            placer.place(model, two_nodes)


class TestRODPlacerAdapter:
    def test_adapter_matches_rod_place(self, small_tree_model, four_nodes):
        from repro.core.rod import rod_place

        adapter = RODPlacer().place(small_tree_model, four_nodes)
        direct = rod_place(small_tree_model, four_nodes)
        assert adapter.assignment == direct.assignment

    def test_repr(self):
        assert "rod" in repr(RODPlacer())
