"""Cross-module property tests (hypothesis)."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro import build_load_model
from repro.core.analysis import axis_headroom, headroom
from repro.core.clustering import cluster_operators
from repro.core.rod import rod_extend, rod_place
from repro.graphs import graph_from_dict, graph_to_dict, random_tree_graph
from repro.graphs.generator import RandomGraphConfig
from repro.simulator import Simulator

seeds = st.integers(0, 10_000)


def small_model(seed, num_inputs=2, ops=5):
    config = RandomGraphConfig(
        num_inputs=num_inputs, operators_per_tree=ops
    )
    return build_load_model(random_tree_graph(config, seed=seed))


class TestSerializationProperties:
    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(1, 3), st.integers(1, 8))
    def test_roundtrip_preserves_load_model(self, seed, inputs, ops):
        graph = random_tree_graph(
            RandomGraphConfig(num_inputs=inputs, operators_per_tree=ops),
            seed=seed,
        )
        rebuilt = graph_from_dict(graph_to_dict(graph))
        a = build_load_model(graph)
        b = build_load_model(rebuilt)
        assert a.variables == b.variables
        assert np.allclose(a.coefficients, b.coefficients)


class TestClusteringProperties:
    @settings(max_examples=20, deadline=None)
    @given(seeds, st.floats(0.1, 5.0, allow_nan=False),
           st.floats(0.1, 4.0, allow_nan=False))
    def test_clustering_is_always_a_partition(self, seed, threshold, cost):
        model = small_model(seed)
        clustering = cluster_operators(
            model, cost * 1e-4, threshold=threshold, max_weight=0.8
        )
        clustering.validate(model)  # raises if not a partition

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_zero_cost_never_clusters(self, seed):
        model = small_model(seed)
        clustering = cluster_operators(model, 0.0, threshold=0.1)
        assert clustering.num_clusters == model.num_operators


class TestRodExtendProperties:
    @settings(max_examples=15, deadline=None)
    @given(seeds, st.integers(2, 4))
    def test_extend_pins_existing_and_covers_new(self, seed, nodes):
        base_config = RandomGraphConfig(num_inputs=2, operators_per_tree=4)
        base_graph = random_tree_graph(base_config, seed=seed)
        base_model = build_load_model(base_graph)
        placement = rod_place(base_model, [1.0] * nodes)

        # Grow: append an extra tree on a new stream.
        import random as pyrandom

        from repro.graphs.generator import _random_delay

        grown = graph_from_dict(graph_to_dict(base_graph))
        stream = grown.add_input("extra")
        rng = pyrandom.Random(seed + 1)
        for k in range(3):
            stream = grown.add_operator(
                _random_delay(f"x{k}", rng, base_config), [stream]
            )
        new_model = build_load_model(grown)
        extended = rod_extend(placement, new_model)
        for name in base_model.operator_names:
            assert extended.node_of(name) == placement.node_of(name)
        assert np.allclose(
            extended.node_coefficients().sum(axis=0),
            new_model.column_totals(),
        )


class TestAnalysisProperties:
    @settings(max_examples=20, deadline=None)
    @given(seeds, st.floats(0.05, 0.9, allow_nan=False))
    def test_headroom_scaling_is_exact_boundary(self, seed, utilization):
        from repro.workload.rates import scale_point_to_utilization

        model = small_model(seed)
        plan = rod_place(model, [1.0, 1.0])
        rates = scale_point_to_utilization(
            model, [1.0, 1.0], np.ones(model.num_variables), utilization
        )
        scale = headroom(plan, rates)
        fs = plan.feasible_set()
        assert fs.is_feasible(rates * scale, slack=1e-9)
        assert not fs.is_feasible(rates * scale * (1 + 1e-6), slack=0.0)

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(0, 1))
    def test_axis_headroom_is_exact_boundary(self, seed, axis):
        model = small_model(seed)
        plan = rod_place(model, [1.0, 1.0])
        rates = np.full(model.num_variables, 1.0)
        fs = plan.feasible_set()
        assume(fs.is_feasible(rates))
        extra = axis_headroom(plan, rates, axis)
        assume(np.isfinite(extra))
        burst = rates.copy()
        burst[axis] += extra
        assert fs.is_feasible(burst, slack=1e-9)


class TestSharpBoundary:
    """The simulator agrees with the feasible set at its edge.

    The ray runs along the normal of the node hyperplane nearest the
    origin, the direction of least headroom ``C_i / ||L^n_i||``; every
    other hyperplane lies farther along it.  A ROD plan must keep up at
    ``1 - EPS`` of the boundary rate and fall behind at ``1 + EPS``.

    Keeping up means no node saturated and a drain after the horizon
    that does not grow when the horizon doubles.  A fixed drain
    allowance cannot judge it: ``is_feasible(backlog_tolerance=0.1)``
    fails the pinned example, a stable plan whose last batches take
    0.106 s to cross its three nodes after a 20 s run (0.105 s after
    60 s).
    """

    EPS = 0.1
    STEP = 0.1

    @pytest.mark.parametrize("capacities", ["homogeneous", "heterogeneous"])
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, inputs=st.integers(2, 4), ops=st.integers(2, 6),
           nodes=st.integers(2, 4),
           weights=st.lists(st.floats(0.5, 2.0), min_size=4, max_size=4))
    @example(seed=4, inputs=2, ops=4, nodes=3, weights=[1.0] * 4)
    def test_keeps_up_inside_falls_behind_outside(
        self, capacities, seed, inputs, ops, nodes, weights
    ):
        model = small_model(seed, num_inputs=inputs, ops=ops)
        plan = rod_place(model, (
            [1.0] * nodes if capacities == "homogeneous" else weights[:nodes]
        ))
        ln = plan.node_coefficients()
        norms = np.linalg.norm(ln, axis=1)
        loaded = np.flatnonzero(norms > 0)
        nearest = loaded[np.argmin(plan.capacities[loaded] / norms[loaded])]
        direction = ln[nearest] / norms[nearest]
        boundary = direction * headroom(plan, direction)
        assert plan.feasible_set().utilizations(boundary)[nearest] == (
            pytest.approx(1.0)
        )

        def run(factor, seconds):
            return Simulator(plan, step_seconds=self.STEP).run(
                rates=boundary * factor, duration=seconds
            )

        inside, longer = run(1 - self.EPS, 20.0), run(1 - self.EPS, 40.0)
        assert inside.max_utilization <= 0.99
        assert longer.backlog_seconds.max() <= (
            inside.backlog_seconds.max() + self.STEP
        )
        # Above 1 the nearest node has more work than time: it saturates.
        assert not run(1 + self.EPS, 20.0).is_feasible(backlog_tolerance=0.1)


class TestEngineProperties:
    @settings(max_examples=10, deadline=None)
    @given(seeds, st.floats(10.0, 200.0, allow_nan=False))
    def test_tuple_conservation_and_utilization(self, seed, rate):
        """Simulated demand matches the analytic model for any linear
        workload at any constant rate."""
        model = small_model(seed, num_inputs=1, ops=4)
        plan = rod_place(model, [1.0, 1.0])
        result = Simulator(plan, step_seconds=0.1).run(
            rates=[rate], duration=5.0
        )
        expected = plan.feasible_set().node_loads([rate])
        measured = result.node_busy / 5.0
        assert np.allclose(measured, expected, rtol=0.05, atol=1e-4)
        # Every source tuple is processed by the root operators.
        roots = [
            name for name in model.operator_names
            if not model.graph.upstream_operators(name)
        ]
        for name in roots:
            assert (
                result.operator_stats[name].tuples_in == result.tuples_in
            )
