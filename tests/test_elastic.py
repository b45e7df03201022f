"""Elastic parallelism: skew model, load-model surgery, placer,
runtime repartitioning, and the semantic-transparency invariant."""

import numpy as np
import pytest

from repro.core.load_model import (
    build_load_model,
    merge_load_model,
    partition_load_model,
)
from repro.core.plans import placement_from_mapping
from repro.dynamics import ElasticityController, Repartition
from repro.elastic import (
    KeyHistogram,
    partition_program,
    rebalanced_fractions,
    stable_key_hash,
    stable_unit_hash,
)
from repro.graphs.operators import Delay
from repro.graphs.partition import partition_operator
from repro.graphs.query_graph import QueryGraph
from repro.obs import MemorySink, Tracer
from repro.placement import ElasticPlacer, LLFPlacer, RODPlacer
from repro.runtime import (
    DistributedInterpreter,
    FnAggregate,
    FnMap,
    Interpreter,
    Record,
    StreamProgram,
)
from repro.simulator.engine import Simulator


def skewed_graph(hot_cost: float = 3e-3) -> QueryGraph:
    """One operator too heavy for any single unit-capacity node."""
    g = QueryGraph()
    i = g.add_input("I")
    g.add_operator(Delay("hot", cost=hot_cost, selectivity=0.8), [i])
    g.add_operator(Delay("mid", cost=hot_cost / 7.5, selectivity=0.5),
                   ["hot.out"])
    return g


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_key_hash("user-17") == stable_key_hash("user-17")
        assert stable_unit_hash(("a", 3)) == stable_unit_hash(("a", 3))

    def test_unit_range(self):
        for key in ["x", 0, (1, "y"), None, 3.5]:
            assert 0.0 <= stable_unit_hash(key) < 1.0

    def test_known_value_pins_the_hash_function(self):
        # crc32(b"'k'") — a change to the hashing scheme silently
        # reshuffles every deployed partition, so pin it.
        import zlib

        assert stable_key_hash("k") == zlib.crc32(b"'k'")


class TestKeyHistogram:
    def test_balanced_cut_under_skew(self):
        histogram = KeyHistogram()
        for index in range(64):
            histogram.observe(f"key{index}", 100.0 if index < 4 else 1.0)
        fractions = histogram.fractions(4)
        assert sum(fractions) == pytest.approx(1.0)
        shares = histogram.observed_shares(fractions)
        # Hot keys force uneven widths but near-even observed weight.
        assert max(shares) < 0.5

    def test_uniform_fallback_when_too_few_keys(self):
        histogram = KeyHistogram({"only": 5.0})
        assert histogram.fractions(4) == (0.25, 0.25, 0.25, 0.25)
        assert KeyHistogram().fractions(2) == (0.5, 0.5)

    def test_uniform_widths_expose_skew(self):
        histogram = KeyHistogram()
        for index in range(32):
            histogram.observe(f"key{index}", 50.0 if index == 0 else 1.0)
        shares = histogram.observed_shares((0.5, 0.5))
        assert max(shares) > 0.6

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            KeyHistogram().observe("k", -1.0)


class TestRebalancedFractions:
    def test_equalizes_uniform_density(self):
        # Loads proportional to fractions mean uniform density: the
        # correction is the uniform split.
        result = rebalanced_fractions((0.8, 0.2), (0.8, 0.2))
        assert result == pytest.approx((0.5, 0.5))

    def test_shrinks_the_hot_range(self):
        result = rebalanced_fractions((0.5, 0.5), (3.0, 1.0))
        assert result[0] < result[1]
        assert sum(result) == pytest.approx(1.0)

    def test_zero_load_is_floored_not_infinite(self):
        result = rebalanced_fractions((0.5, 0.5), (1.0, 0.0))
        assert 0.0 < result[0] < 1.0
        assert sum(result) == pytest.approx(1.0)

    def test_min_fraction_clamps(self):
        result = rebalanced_fractions(
            (0.5, 0.5), (1000.0, 1.0), min_fraction=0.1
        )
        assert min(result) == pytest.approx(0.1)
        assert sum(result) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            rebalanced_fractions((0.5, 0.5), (1.0,))
        with pytest.raises(ValueError, match="min_fraction"):
            rebalanced_fractions((0.5, 0.5), (1.0, 1.0),
                                 min_fraction=0.6)


class TestPartitionLoadModel:
    def test_matches_full_rebuild(self):
        graph = skewed_graph()
        surgical = partition_load_model(
            build_load_model(graph), "hot", 3, fractions=(0.5, 0.3, 0.2)
        )
        rebuilt = build_load_model(partition_operator(
            graph, "hot", 3, fractions=(0.5, 0.3, 0.2)
        ))
        assert surgical.operator_names == rebuilt.operator_names
        np.testing.assert_allclose(
            surgical.coefficients, rebuilt.coefficients, atol=1e-15
        )

    def test_shapes_and_columns(self):
        model = build_load_model(skewed_graph())
        split = partition_load_model(model, "hot", 4)
        # 1 operator becomes 4 routes + 4 instances + 1 merge.
        assert split.num_operators == model.num_operators + 8
        # Rate variables (columns) are untouched by partitioning.
        assert split.num_variables == model.num_variables
        assert split.variables == model.variables
        for part in range(4):
            assert f"hot.route{part}.out" in split.stream_coefficients
            assert f"hot.part{part}.out" in split.stream_coefficients

    def test_load_conserved_without_overhead(self):
        model = build_load_model(skewed_graph())
        split = partition_load_model(
            model, "hot", 4, route_cost=0.0, merge_cost=0.0
        )
        np.testing.assert_allclose(
            split.column_totals(), model.column_totals(), atol=1e-15
        )

    def test_merge_inverts_exactly(self):
        model = build_load_model(skewed_graph())
        split = partition_load_model(model, "hot", 2,
                                     fractions=(0.7, 0.3))
        merged = merge_load_model(split, "hot")
        assert merged.operator_names == model.operator_names
        assert np.array_equal(merged.coefficients, model.coefficients)
        assert not merged.graph.partition_groups

    def test_merge_requires_a_group(self):
        model = build_load_model(skewed_graph())
        with pytest.raises(KeyError):
            merge_load_model(model, "hot")


def _map_program():
    program = StreamProgram("transparent")
    src = program.add_input("src")
    program.add(
        FnMap("scale", lambda d: {"k": d["k"], "v": d["v"] * 2}),
        [src],
    )
    return program


def _skewed_records(count: int = 200):
    # Zipf-flavoured keys: key0 dominates.
    keys = ["key0", "key0", "key0", "key1", "key2"]
    return [
        Record(t * 0.01, {"k": keys[t % len(keys)], "v": t})
        for t in range(count)
    ]


class TestPartitionProgramTransparency:
    @pytest.mark.parametrize("ways", [2, 4])
    def test_stateless_split_is_bit_identical(self, ways):
        records = _skewed_records()
        base = Interpreter(_map_program()).run({"src": records})
        split_program = partition_program(
            _map_program(), "scale", ways, key=lambda d: d["k"]
        )
        split = Interpreter(split_program).run({"src": records})
        (base_sink,) = base.sink_records.values()
        (split_sink,) = split.sink_records.values()
        assert split_sink == base_sink

    def test_every_record_lands_in_exactly_one_partition(self):
        records = _skewed_records()
        program = partition_program(
            _map_program(), "scale", 4, key=lambda d: d["k"]
        )
        result = Interpreter(program).run({"src": records})
        route_out = sum(
            result.operator_out[f"scale.route{part}"] for part in range(4)
        )
        assert route_out == len(records)

    @pytest.mark.parametrize("ways", [1, 2, 4])
    def test_distributed_answers_identical_at_any_parallelism(
        self, ways
    ):
        records = _skewed_records()

        def build():
            program = StreamProgram("grouped")
            src = program.add_input("src")
            scaled = program.add(
                FnMap("scale", lambda d: {"k": d["k"], "v": d["v"]}),
                [src],
            )
            program.add(
                FnAggregate(
                    "sum", window=0.5,
                    reducer=lambda rs: {
                        "total": sum(r.data["v"] for r in rs)
                    },
                    key=lambda d: d["k"],
                ),
                [scaled],
            )
            return program

        baseline = Interpreter(build()).run({"src": records})
        program = build() if ways == 1 else partition_program(
            build(), "scale", ways, key=lambda d: d["k"]
        )
        nodes = max(2, ways)
        assignment = {
            name: index % nodes
            for index, name in enumerate(program.operator_names)
        }
        outcome = DistributedInterpreter(
            program, assignment, nodes
        ).run({"src": records})
        assert outcome.result.sink_records["sum.out"] == (
            baseline.sink_records["sum.out"]
        )

    def test_skewed_fractions_route_by_hash_range(self):
        records = _skewed_records()
        histogram = KeyHistogram()
        for record in records:
            histogram.observe(record.data["k"])
        fractions = histogram.fractions(2)
        program = partition_program(
            _map_program(), "scale", 2, key=lambda d: d["k"],
            fractions=fractions,
        )
        result = Interpreter(program).run({"src": records})
        counts = [
            result.operator_out[f"scale.route{part}"] for part in range(2)
        ]
        assert sum(counts) == len(records)
        shares = histogram.observed_shares(fractions)
        assert counts[0] / len(records) == pytest.approx(
            shares[0], abs=0.02
        )

    def test_arity_validation(self):
        program = StreamProgram("bad")
        a = program.add_input("a")
        b = program.add_input("b")
        from repro.runtime import FnUnion

        program.add(FnUnion("u", arity=2), [a, b])
        with pytest.raises(ValueError, match="single-input"):
            partition_program(program, "u", 2, key=lambda d: d["k"])


class TestElasticPlacer:
    def test_lifts_the_static_ceiling(self):
        model = build_load_model(skewed_graph())
        caps = [1.0] * 4
        static_ratio = max(
            RODPlacer().place(model, caps).volume_ratio(samples=2048,
                                                        seed=0),
            LLFPlacer().place(model, caps).volume_ratio(samples=2048,
                                                        seed=0),
        )
        assert static_ratio < 0.5  # the premise: one hot op caps it
        placer = ElasticPlacer(target_ratio=0.9, samples=2048, seed=0)
        elastic_ratio = placer.place(model, caps).volume_ratio(
            samples=2048, seed=0
        )
        assert elastic_ratio > static_ratio + 0.2
        assert any(
            entry["action"] == "split" and entry["kept"]
            for entry in placer.history
        )

    def test_no_split_when_target_already_met(self):
        model = build_load_model(skewed_graph())
        placer = ElasticPlacer(target_ratio=0.01, samples=1024, seed=0)
        placement = placer.place(model, [1.0] * 4)
        assert placer.history == []
        assert placement.model.graph.partition_groups == {}

    def test_unhelpful_split_is_rolled_back(self):
        # A single node: splitting cannot widen the feasible set.
        model = build_load_model(skewed_graph())
        placer = ElasticPlacer(target_ratio=0.99, samples=1024, seed=0)
        placement = placer.place(model, [4.0])
        assert placement.model.graph.partition_groups == {}
        assert all(
            not entry["kept"] for entry in placer.history
        )

    def test_emits_split_trace_events(self):
        sink = MemorySink()
        model = build_load_model(skewed_graph())
        placer = ElasticPlacer(
            target_ratio=0.9, samples=1024, seed=0, tracer=Tracer(sink)
        )
        placer.place(model, [1.0] * 4)
        kinds = {event["type"] for event in sink.events}
        assert "elastic.split" in kinds

    def test_validation(self):
        with pytest.raises(ValueError, match="target_ratio"):
            ElasticPlacer(target_ratio=0.0)
        with pytest.raises(ValueError, match="ways"):
            ElasticPlacer(ways=1)


def _partitioned_placement(fractions=(0.8, 0.2)):
    model = partition_load_model(
        build_load_model(skewed_graph()), "hot", len(fractions),
        fractions=fractions,
    )
    mapping = {
        "hot.route0": 2, "hot.part0": 0,
        "hot.route1": 2, "hot.part1": 1,
        "hot.merge": 2, "mid": 2,
    }
    return placement_from_mapping(model, [1.0] * 3, mapping)


class TestElasticityController:
    def _decide(self, controller, placement, loads, now=1.0):
        return controller.decide(
            now,
            np.zeros(placement.num_nodes),
            placement.to_mapping(),
            placement.model,
            np.ones(placement.num_nodes),
            operator_loads=loads,
        )

    def test_hot_group_repartitions_toward_balance(self):
        placement = _partitioned_placement()
        controller = ElasticityController(period=1.0, smoothing=1.0)
        moves = self._decide(
            controller, placement,
            {"hot.part0": 0.8, "hot.part1": 0.2},
        )
        assert len(moves) == 1
        move = moves[0]
        assert isinstance(move, Repartition)
        assert move.operator == "hot"
        assert move.fractions == pytest.approx((0.5, 0.5))
        assert controller.history == moves

    def test_cooldown_pins_a_just_rebalanced_group(self):
        placement = _partitioned_placement()
        controller = ElasticityController(
            period=1.0, smoothing=1.0, cooldown=10.0
        )
        loads = {"hot.part0": 0.8, "hot.part1": 0.2}
        assert self._decide(controller, placement, loads, now=1.0)
        assert self._decide(
            controller, placement, loads, now=2.0
        ) == []
        # Past the cooldown the group is actionable again.
        assert self._decide(controller, placement, loads, now=12.0)

    def test_balanced_group_is_left_alone(self):
        placement = _partitioned_placement(fractions=(0.5, 0.5))
        controller = ElasticityController(period=1.0, smoothing=1.0)
        assert self._decide(
            controller, placement,
            {"hot.part0": 0.31, "hot.part1": 0.29},
        ) == []

    def test_cold_skewed_group_resets_to_uniform(self):
        placement = _partitioned_placement(fractions=(0.8, 0.2))
        controller = ElasticityController(
            period=1.0, smoothing=1.0, cold_load=0.05
        )
        moves = self._decide(
            controller, placement,
            {"hot.part0": 0.008, "hot.part1": 0.002},
        )
        assert len(moves) == 1
        assert moves[0].fractions == pytest.approx((0.5, 0.5))

    def test_histogram_supplies_balanced_shares(self):
        histogram = KeyHistogram()
        for index in range(64):
            histogram.observe(f"key{index}",
                              100.0 if index < 4 else 1.0)
        placement = _partitioned_placement()
        controller = ElasticityController(
            period=1.0, smoothing=1.0, histograms={"hot": histogram}
        )
        (move,) = self._decide(
            controller, placement,
            {"hot.part0": 0.8, "hot.part1": 0.2},
        )
        assert move.fractions == pytest.approx(
            histogram.observed_shares(histogram.fractions(2))
        )

    def test_no_partition_groups_is_a_noop(self):
        model = build_load_model(skewed_graph())
        placement = placement_from_mapping(
            model, [1.0] * 2, {"hot": 0, "mid": 1}
        )
        controller = ElasticityController(period=1.0)
        assert self._decide(
            controller, placement, {"hot": 0.9, "mid": 0.1}
        ) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="hot_threshold"):
            ElasticityController(hot_threshold=1.0)
        with pytest.raises(ValueError, match="smoothing"):
            ElasticityController(smoothing=0.0)
        with pytest.raises(ValueError, match="cooldown"):
            ElasticityController(cooldown=-1.0)


class TestEngineRepartition:
    def _run(self, controller=None, tracer=None, duration=6.0):
        placement = _partitioned_placement()
        simulator = Simulator(
            placement, step_seconds=0.1, controller=controller,
            tracer=tracer,
        )
        return simulator.run(rates=[400.0], duration=duration)

    def test_repartition_evens_node_load_without_migrating(self):
        static = self._run()
        controller = ElasticityController(period=1.0)
        elastic = self._run(controller=controller)
        assert static.migration_count == 0
        assert elastic.migration_count == 0
        assert len(controller.history) >= 1
        assert elastic.max_utilization < static.max_utilization - 0.2

    def test_trace_carries_repartition_and_decision(self):
        sink = MemorySink()
        controller = ElasticityController(period=1.0)
        self._run(controller=controller, tracer=Tracer(sink))
        repartitions = [
            event for event in sink.events
            if event["type"] == "elastic.repartition"
        ]
        assert repartitions
        first = repartitions[0]
        assert first["operator"] == "hot"
        assert first["fractions"] == pytest.approx((0.5, 0.5))
        assert first["decision"] >= 0
        decisions = [
            event for event in sink.events
            if event["type"] == "decision.evaluated"
            and event.get("reason") == "repartition"
        ]
        assert decisions
        assert decisions[0]["trigger"] in ("split", "merge")
        (end,) = [
            event for event in sink.events if event["type"] == "sim.end"
        ]
        assert end["repartitions"] == len(repartitions)
        assert end["migrations"] == 0

    def test_untraced_sim_end_has_no_repartition_key_when_none_fired(
        self,
    ):
        sink = MemorySink()
        self._run(tracer=Tracer(sink))
        (end,) = [
            event for event in sink.events if event["type"] == "sim.end"
        ]
        assert "repartitions" not in end

    def test_runs_are_deterministic(self):
        first = self._run(ElasticityController(period=1.0))
        second = self._run(ElasticityController(period=1.0))
        assert first.tuples_out == second.tuples_out
        assert first.latency.mean() == second.latency.mean()
        np.testing.assert_array_equal(first.node_busy, second.node_busy)

    def test_stale_repartition_is_ignored(self):
        class Stale(ElasticityController):
            fired = False

            def decide(self, now, *args, **kwargs):
                if not self.fired:
                    self.fired = True
                    return [Repartition(
                        operator="ghost", fractions=(0.5, 0.5),
                        pause_seconds=0.1,
                    ), Repartition(
                        operator="hot", fractions=(0.25, 0.25, 0.5),
                        pause_seconds=0.1,
                    )]
                return []

        result = self._run(Stale(period=1.0))
        assert result.migration_count == 0
