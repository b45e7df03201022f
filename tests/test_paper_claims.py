"""The paper's formal claims, as executable assertions.

Each test pins one statement from Sections 3-5 — not a reproduction of
an experiment's numbers, but the mathematical claim itself, checked on
randomized instances:

* Theorem 1: the ideal feasible set is a superset of every plan's
  (volume bound) and is achieved exactly by the ideal coefficient
  matrix.
* §4.1: if every axis distance is at least ``a_k``, the simplex with
  intercepts ``a_k`` fits inside the feasible set —
  ``V(F) >= V(F*) * prod_k min_i (1/w_ik)`` (MMAD's lower bound).
* §4.2: the feasible set contains the orthant part of the radius-``r``
  hypersphere, ``r = min_i 1/||W_i||`` (MMPD's lower bound).
* §5: ROD's plan is optimal on the worked example, near-optimal on
  small random instances (the 0.82 floor reported in §7.3.1).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_load_model, placement_from_mapping
from repro.core import geometry
from repro.core.rod import rod_place
from repro.core.volume import polytope
from repro.graphs import random_tree_graph
from repro.graphs.generator import RandomGraphConfig
from repro.placement import OptimalPlacer

seeds = st.integers(0, 100_000)


def random_plan_weights(seed: int, n: int = 3, d: int = 2):
    rng = np.random.default_rng(seed)
    ln = rng.uniform(0.1, 2.0, size=(n, d))
    caps = np.ones(n)
    totals = ln.sum(axis=0)
    weights = geometry.weight_matrix(ln, caps, totals)
    volume = polytope.polytope_volume(ln, caps)
    ideal = geometry.ideal_volume(caps, totals)
    return weights, volume, ideal


class TestTheorem1:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_ideal_set_bounds_every_plan(self, seed):
        _, volume, ideal = random_plan_weights(seed)
        assert volume <= ideal * (1 + 1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seeds, st.integers(2, 4), st.integers(1, 3))
    def test_ideal_matrix_achieves_the_bound(self, seed, n, d):
        """l*_ik = l_k C_i / C_T collapses all hyperplanes onto the
        ideal one, reaching the bound exactly."""
        rng = np.random.default_rng(seed)
        totals = rng.uniform(0.5, 5.0, size=d)
        caps = rng.uniform(0.5, 2.0, size=n)
        ideal_ln = np.outer(caps / caps.sum(), totals)
        volume = polytope.polytope_volume(ideal_ln, caps)
        assert volume == pytest.approx(
            geometry.ideal_volume(caps, totals), rel=1e-6
        )


class TestSection41AxisDistanceBound:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_volume_at_least_axis_distance_product(self, seed):
        weights, volume, ideal = random_plan_weights(seed)
        min_axis = geometry.axis_distances(weights).min(axis=0)
        lower_bound = ideal * float(np.prod(min_axis))
        assert volume >= lower_bound * (1 - 1e-9)


class TestSection42PlaneDistanceBound:
    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_volume_at_least_hypersphere(self, seed):
        weights, volume, ideal = random_plan_weights(seed)
        d = weights.shape[1]
        r = geometry.min_plane_distance(weights)
        rho = r / geometry.ideal_plane_distance(d)
        lower_bound = ideal * geometry.hypersphere_volume_fraction(rho, d)
        assert volume >= lower_bound * (1 - 1e-6)

    def test_figure9_envelope_uses_this_bound(self):
        """The bound is tight enough to be informative: for a plan at
        plane distance equal to the ideal's, it certifies a substantial
        fraction of the ideal volume."""
        assert geometry.hypersphere_volume_fraction(1.0, 2) > 0.7
        assert geometry.hypersphere_volume_fraction(1.0, 3) > 0.4


class TestSection5RodQuality:
    def test_rod_optimal_on_worked_example(self, example_model, two_nodes):
        import itertools

        best = max(
            placement_from_mapping(
                example_model, two_nodes,
                dict(zip(example_model.operator_names, assignment)),
            ).feasible_set().exact_volume()
            for assignment in itertools.product((0, 1), repeat=4)
        )
        rod_volume = rod_place(
            example_model, two_nodes
        ).feasible_set().exact_volume()
        assert rod_volume == pytest.approx(best)

    @pytest.mark.parametrize("seed", [11, 22, 33, 44])
    def test_rod_within_paper_floor_of_optimal(self, seed, two_nodes):
        """§7.3.1 reports ROD/optimal >= 0.82; hold a slightly looser
        floor across random small instances."""
        config = RandomGraphConfig(num_inputs=2, operators_per_tree=4)
        model = build_load_model(random_tree_graph(config, seed=seed))
        rod_volume = rod_place(
            model, two_nodes
        ).feasible_set().exact_volume()
        optimal_volume = OptimalPlacer().place(
            model, two_nodes
        ).feasible_set().exact_volume()
        assert rod_volume >= 0.75 * optimal_volume

    def test_class_one_choices_cannot_shrink_the_bound(self, two_nodes):
        """§5.2's claim: while Class I nodes exist, the maximum
        achievable feasible set is untouched — all candidate hyperplanes
        stay above the ideal hyperplane."""
        from repro.graphs import Delay, QueryGraph

        g = QueryGraph()
        i = g.add_input("I")
        for k in range(8):
            g.add_operator(Delay(f"d{k}", cost=1.0, selectivity=1.0), [i])
        model = build_load_model(g)
        steps = []
        rod_place(model, two_nodes, steps=steps)
        for step in steps:
            if step.chosen_from_class_one:
                # Candidate distance of the chosen node is at least the
                # ideal hyperplane's distance from the origin.
                chosen = step.candidate_distances[step.node]
                assert chosen >= geometry.ideal_plane_distance(
                    model.num_variables
                ) - 1e-9
