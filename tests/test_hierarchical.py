"""Hierarchical group-then-refine placement: node groups, parity, and scale."""

import numpy as np
import pytest

from repro.check import check_plan_document
from repro.experiments.common import make_model
from repro.placement import AnnealingPlacer, HierarchicalPlacer
from repro.placement.hierarchical import RestrictedModel, derive_seed


@pytest.fixture(scope="module")
def mid_model():
    return make_model(6, 32, seed=2)


def hierarchical(seed=0, **overrides):
    config = dict(group_size=8, refine_iterations=100, samples=512,
                  score_batch=16, seed=seed)
    config.update(overrides)
    return HierarchicalPlacer(**config)


class TestNodeGroups:
    def test_groups_partition_all_nodes(self):
        placer = HierarchicalPlacer(group_size=4)
        caps = np.array([1.0] * 10)
        groups = placer.node_groups(caps)
        flat = sorted(node for group in groups for node in group)
        assert flat == list(range(10))
        assert all(len(group) <= 4 for group in groups)

    def test_round_robin_balances_capacity(self):
        placer = HierarchicalPlacer(group_size=2)
        caps = np.array([4.0, 3.0, 2.0, 1.0])
        groups = placer.node_groups(caps)
        totals = sorted(float(caps[g].sum()) for g in groups)
        # Largest-first dealing pairs 4 with 1 and 3 with 2.
        assert totals == [5.0, 5.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            HierarchicalPlacer(group_size=0)
        with pytest.raises(ValueError):
            HierarchicalPlacer(refine_iterations=0)
        with pytest.raises(ValueError):
            HierarchicalPlacer(score_batch=0)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3) == derive_seed(42, 3)

    def test_distinct_across_indices_and_bases(self):
        seeds = {derive_seed(base, index)
                 for base in range(10) for index in range(100)}
        assert len(seeds) == 1000

    def test_neighbouring_bases_do_not_alias(self):
        # base_seed + index collides trivially (e.g. (7, 1) vs (8, 0));
        # the mixed derivation must not.
        assert derive_seed(7, 1) != derive_seed(8, 0)


class TestRestrictedModel:
    def test_subset_with_global_totals(self, mid_model):
        sub = RestrictedModel(mid_model, (3, 5, 8))
        assert sub.num_operators == 3
        assert sub.num_variables == mid_model.num_variables
        assert np.array_equal(sub.column_totals(),
                              mid_model.column_totals())
        assert sub.operator_names == tuple(
            mid_model.operator_names[j] for j in (3, 5, 8)
        )
        assert sub.operator_index(sub.operator_names[1]) == 1

    def test_validation(self, mid_model):
        with pytest.raises(ValueError):
            RestrictedModel(mid_model, (1, 1))
        with pytest.raises(IndexError):
            RestrictedModel(mid_model, (mid_model.num_operators,))
        with pytest.raises(KeyError):
            RestrictedModel(mid_model, (0,)).operator_index("nope")


class TestPlacementParity:
    def test_volume_within_five_percent_of_flat(self):
        # The acceptance bound of the scale path: decomposition may not
        # cost more than 5% of the flat baseline's feasible-set volume.
        for seed in (1, 2, 3):
            model = make_model(6, 32, seed=seed)
            caps = [1.0] * 48
            flat = AnnealingPlacer(seed=5).place(model, caps)
            hier = hierarchical(seed=5).place(model, caps)
            flat_volume = flat.volume_ratio(samples=4096)
            hier_volume = hier.volume_ratio(samples=4096)
            assert hier_volume >= 0.95 * flat_volume

    def test_plan_document_passes_invariant_checks(self, mid_model):
        plan = hierarchical().place(mid_model, [1.0] * 48)
        report = check_plan_document(plan.to_document(), model=mid_model)
        assert report.ok, report.format()

    def test_every_operator_assigned_in_range(self, mid_model):
        plan = hierarchical().place(mid_model, [1.0] * 48)
        assert len(plan.assignment) == mid_model.num_operators
        assert all(0 <= node < 48 for node in plan.assignment)

    def test_deterministic_for_seed(self, mid_model):
        caps = [1.0] * 48
        first = hierarchical(seed=9).place(mid_model, caps)
        second = hierarchical(seed=9).place(mid_model, caps)
        assert first.assignment == second.assignment

    def test_single_group_falls_back_to_flat(self, mid_model):
        plan = hierarchical(group_size=64).place(mid_model, [1.0] * 6)
        assert len(plan.assignment) == mid_model.num_operators
        assert all(0 <= node < 6 for node in plan.assignment)

    def test_heterogeneous_capacities(self, mid_model):
        caps = [2.0 if i % 3 == 0 else 1.0 for i in range(48)]
        plan = hierarchical(seed=2).place(mid_model, caps)
        assert plan.volume_ratio(samples=2048) >= 0.0


class TestThousandNodeScale:
    def test_thousand_node_sixty_four_stream_end_to_end(self):
        # The tentpole's headline scale: 1000 nodes, 64 input streams,
        # 2048 operators, end to end through the hierarchical path.
        model = make_model(64, 32, seed=1)
        assert model.num_variables == 64
        placer = hierarchical(refine_iterations=50, samples=256)
        plan = placer.place(model, [1.0] * 1000)
        assert len(plan.assignment) == model.num_operators
        used = set(plan.assignment)
        assert len(used) == 1000  # every node carries load at this size
        report = check_plan_document(plan.to_document(), model=model)
        assert report.ok, report.format()
