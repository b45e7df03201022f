"""Smoke and shape tests for every experiment harness."""

from pathlib import Path

import numpy as np
import pytest

from repro import paper
from repro.experiments import (
    ablations,
    balance_bound,
    clustering_experiment,
    dimensions,
    dynamic_migration,
    fidelity,
    fig2_traces,
    fig9_plane_distance,
    format_rows,
    heterogeneous,
    latency,
    linearization_value,
    lower_bound,
    nonlinear,
    optimal_gap,
    partitioning,
    qmc_convergence,
    resiliency,
    scheduling_ablation,
)
from repro.experiments.common import ALGORITHMS, make_model, make_placer

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


class TestCommon:
    def test_make_model_dimensions(self):
        model = make_model(3, 5, seed=1)
        assert model.num_variables == 3
        assert model.num_operators == 15

    def test_make_placer_all_algorithms(self):
        model = make_model(2, 4, seed=1)
        for name in ALGORITHMS:
            placer = make_placer(name, model, run_seed=1)
            plan = placer.place(model, [1.0, 1.0])
            assert len(plan.assignment) == model.num_operators

    def test_make_placer_unknown(self):
        model = make_model(2, 4, seed=1)
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_placer("hashring", model, run_seed=1)

    def test_format_rows_alignment(self):
        text = format_rows([{"a": 1, "b": 0.5}, {"a": 20, "b": 0.25}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "0.5000" in text

    def test_format_rows_empty(self):
        assert format_rows([]) == "(no rows)"


class TestFig2:
    def test_rows_and_burstiness(self):
        rows = fig2_traces.run(steps=1024, seed=1)
        assert [r["trace"] for r in rows] == ["PKT", "TCP", "HTTP"]
        for row in rows:
            assert row["normalized_std"] > 0.1
            assert row["hurst"] > 0.55  # self-similar


class TestFig9:
    def test_scatter_and_bins(self):
        rows = fig9_plane_distance.run(count=100, samples=512, seed=1)
        assert len(rows) == 100
        assert all(0 <= r["volume_ratio"] <= 1 for r in rows)
        bins = fig9_plane_distance.binned(rows, bins=5)
        assert bins
        # Envelope trend: mean ratio grows with r/r*.
        means = [b["mean_ratio"] for b in bins]
        assert means[-1] > means[0]

    def test_lower_bound_below_minimum(self):
        rows = fig9_plane_distance.run(count=150, samples=512, seed=2)
        for b in fig9_plane_distance.binned(rows, bins=5):
            assert b["sphere_lower_bound"] <= b["min_ratio"] + 0.05

    def test_binned_validation(self):
        with pytest.raises(ValueError):
            fig9_plane_distance.binned([], bins=0)
        assert fig9_plane_distance.binned([], bins=3) == []


class TestResiliency:
    def test_figure14_shape(self):
        rows = resiliency.run(
            operator_counts=(20, 40),
            num_inputs=2,
            num_nodes=4,
            repeats=3,
            graph_repeats=1,
            samples=1024,
        )
        by_key = {(r["operators"], r["algorithm"]): r for r in rows}
        for count in (20, 40):
            rod = by_key[(count, "rod")]["ratio_to_ideal"]
            for name in ALGORITHMS:
                assert by_key[(count, name)]["ratio_to_ideal"] <= rod + 0.02
        # More operators -> ROD closer to ideal.
        assert (
            by_key[(40, "rod")]["ratio_to_ideal"]
            >= by_key[(20, "rod")]["ratio_to_ideal"] - 0.02
        )

    def test_rejects_nondivisible_counts(self):
        with pytest.raises(ValueError, match="multiple"):
            resiliency.run(operator_counts=(25,), num_inputs=2, repeats=1)


class TestOptimalGap:
    def test_ratios_in_range(self):
        rows = optimal_gap.run(
            dimensions=(2,), operators_per_tree=3, graphs_per_dimension=2
        )
        for row in rows:
            assert 0.5 <= row["rod_over_optimal"] <= 1.0 + 1e-9
        agg = optimal_gap.aggregate(rows)
        assert agg["min_ratio"] <= agg["mean_ratio"]

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            optimal_gap.aggregate([])


class TestDimensions:
    def test_ratio_to_rod_at_most_one_ish(self):
        rows = dimensions.run(
            input_counts=(2, 3),
            operators_per_tree=8,
            num_nodes=4,
            repeats=2,
            samples=1024,
        )
        assert {r["inputs"] for r in rows} == {2, 3}
        for row in rows:
            assert row["ratio_to_rod"] <= 1.1


class TestLatency:
    def test_rows_schema_and_overload_shape(self):
        rows = latency.run(
            utilizations=(0.5,),
            steps=100,
            algorithms=("rod", "connected"),
        )
        assert len(rows) == 2
        by_alg = {r["algorithm"]: r for r in rows}
        assert (
            by_alg["rod"]["p95_latency_ms"]
            <= by_alg["connected"]["p95_latency_ms"] + 1e-6
        )


class TestLowerBound:
    def test_zero_floor_variants_agree(self):
        rows = lower_bound.run(floor_fractions=(0.0,), samples=512)
        by_alg = {r["algorithm"]: r for r in rows}
        assert by_alg["rod"]["restricted_ratio"] == pytest.approx(
            by_alg["rod_lb"]["restricted_ratio"]
        )

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            lower_bound.run(floor_fractions=(1.5,))
        with pytest.raises(ValueError, match="seeds"):
            lower_bound.run(seeds=())

    def test_paper_scale_is_the_committed_table(self):
        """The default call averages seeds 43-46, as the committed
        ``benchmarks/results/lower_bound.txt`` (and EXPERIMENTS.md) do."""
        committed = (RESULTS / "lower_bound.txt").read_text()
        table = format_rows(lower_bound.run())
        assert [line.rstrip() for line in table.splitlines()] == [
            line.rstrip() for line in committed.splitlines()
        ]


class TestNonlinear:
    def test_rod_not_dominated(self):
        rows = nonlinear.run(
            directions=8, num_nodes=3, algorithms=("rod", "random")
        )
        by_alg = {r["algorithm"]: r for r in rows}
        assert (
            by_alg["rod"]["feasible_fraction"]
            >= by_alg["random"]["feasible_fraction"] - 0.05
        )
        assert by_alg["rod"]["aux_variables"] == 2

    def test_saturation_scale_is_exact(self, join_model):
        direction = np.ones(join_model.num_inputs)
        scale = nonlinear.saturation_scale(join_model, [1.0, 1.0], direction)
        total = join_model.graph.total_load(scale * direction)
        assert total == pytest.approx(2.0, rel=1e-4)


class TestClustering:
    def test_clustering_not_worse(self):
        rows = clustering_experiment.run(
            cost_multipliers=(1.0,), samples=512
        )
        by_strategy = {r["strategy"]: r for r in rows}
        assert (
            by_strategy["rod_clustered"]["comm_plane_distance"]
            >= by_strategy["rod_plain"]["comm_plane_distance"] - 1e-9
        )


class TestFidelity:
    def test_high_agreement(self):
        rows = fidelity.run(points=8, duration=4.0)
        row = rows[0]
        assert row["agreement_rate"] + row["near_boundary_disagreements"] / 8 \
            >= 0.99
        assert row["mean_utilization_error"] < 0.05


class TestHeterogeneous:
    def test_rod_dominates_on_skewed_profile(self):
        rows = heterogeneous.run(
            operators_per_tree=8,
            repeats=2,
            samples=1024,
            profiles=("skewed",),
        )
        by_alg = {r["algorithm"]: r for r in rows}
        for name in ("llf", "random", "connected"):
            assert (
                by_alg[name]["ratio_to_ideal"]
                <= by_alg["rod"]["ratio_to_ideal"] + 0.02
            )
        assert by_alg["rod"]["rod_capacity_share_error"] < 0.1

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            heterogeneous.run(profiles=("galactic",))


class TestDynamicMigration:
    def test_scenarios_and_strategies_covered(self):
        rows = dynamic_migration.run(steps=120)
        scenarios = {r["scenario"] for r in rows}
        strategies = {r["strategy"] for r in rows}
        assert scenarios == {"burst", "shift"}
        assert strategies == {
            "static_rod",
            "static_llf",
            "dynamic_llf_aggressive",
            "dynamic_llf_conservative",
        }
        for row in rows:
            if row["strategy"].startswith("static"):
                assert row["migrations"] == 0


class TestPartitioning:
    def test_rod_improves_with_partitioning(self):
        rows = partitioning.run(
            ways_options=(1, 4), samples=1024, algorithms=("rod",)
        )
        by_ways = {r["ways"]: r for r in rows}
        assert (
            by_ways[4]["ratio_to_ideal"] > by_ways[1]["ratio_to_ideal"]
        )
        assert by_ways[4]["operators"] > by_ways[1]["operators"]


class TestBalanceBound:
    def test_milp_is_a_true_lower_bound(self):
        rows = balance_bound.run(
            graph_seeds=(3,), regimes=(2,), samples=512
        )
        for row in rows:
            assert row["rod_max_weight"] >= row["optimal_max_weight"] - 1e-6
            assert row["balance_gap"] >= -1e-9


class TestQmcConvergence:
    def test_errors_shrink(self):
        rows = qmc_convergence.run(
            sample_counts=(256, 4096), graph_seeds=(2, 4), mc_repeats=2
        )
        assert rows[-1]["halton_mean_abs_error"] <= (
            rows[0]["halton_mean_abs_error"] + 1e-9
        )


class TestSchedulingAblation:
    def test_policies_share_throughput(self):
        rows = scheduling_ablation.run(steps=100)
        assert len({r["tuples_out"] for r in rows}) == 1


class TestLinearizationValue:
    def test_rows_and_validation(self):
        rows = linearization_value.run(
            selectivities=(0.3, 0.5, 0.7), workload_seeds=(0, 1)
        )
        assert rows[-1]["realized_selectivity"] == "worst-case"
        for row in rows:
            assert 0 < row["linearized_ratio"] <= 1
        with pytest.raises(ValueError, match="selectivities"):
            linearization_value.run(selectivities=(0.0,))


class TestProtocolComparison:
    def test_small_run_schema(self):
        rows = fidelity.run_protocol_comparison(points=6, duration=3.0)
        assert {r["algorithm"] for r in rows} == {"rod", "llf"}
        for row in rows:
            assert 0 <= row["empirical_fraction"] <= 1


class TestAblations:
    def test_ordering_rows(self):
        rows = ablations.run_ordering(random_orders=2, samples=512)
        assert [r["ordering"] for r in rows] == [
            "norm_descending",
            "graph_order",
            "random_mean_of_2",
        ]

    def test_policy_rows(self):
        rows = ablations.run_class_one_policy(samples=512)
        assert {r["policy"] for r in rows} == {
            "plane", "first", "random", "connections"
        }

    def test_artifact_shows_the_committed_class_one_arcs(self):
        """``experiment ablations`` keeps the Class I arc counts, the
        numbers behind "connections yields the fewest inter-node arcs"."""
        committed = (RESULTS / "ablation_class_one_policy.txt").read_text()
        expected = {
            line.split()[0]: int(line.split()[3])
            for line in committed.splitlines()[2:]
        }
        arcs = {
            row["ordering"].replace("class-one policy: ", ""):
                row["inter_node_arcs"]
            for row in paper.run("ablations", quick=True)
            if "inter_node_arcs" in row
        }
        assert arcs == expected == {
            "plane": 63, "first": 65, "random": 65, "connections": 63,
        }


class TestArtifactTables:
    @pytest.mark.parametrize("artifact_id, key", [
        ("optimal-gap", "mean_ratio"),   # the aggregate row
        ("elasticity", "p95_latency_ms"),  # the runtime legs
    ])
    def test_every_column_a_row_carries_is_printed(self, artifact_id, key):
        rows = paper.run(artifact_id, quick=True)
        header, _, *lines = format_rows(rows).splitlines()
        assert set(header.split()) == {k for row in rows for k in row}
        assert f"{rows[-1][key]:.4f}" in lines[-1]
