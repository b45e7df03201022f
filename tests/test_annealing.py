"""Unit tests for the annealing placer."""

import math
import random

import numpy as np
import pytest

from repro.core.rod import rod_place
from repro.core.volume import cache, qmc
from repro.experiments.common import make_model
from repro.placement import AnnealingPlacer


def _reference_place(placer, model, capacities):
    """The pre-optimization scorer: full weight-matrix rescore per move.

    Inlined here as the oracle for the incremental implementation — the
    two must make bit-identical acceptance decisions for the same seed.
    """
    caps = np.asarray(capacities, dtype=float)
    n = caps.shape[0]
    m = model.num_operators
    rng = random.Random(placer.seed)
    totals = model.column_totals()
    safe_totals = np.where(totals > 1e-12, totals, 1.0)
    capacity_share = caps / caps.sum()
    points = qmc.sample_unit_simplex(
        placer.samples, model.num_variables, method="halton"
    )

    if placer.start == "rod":
        assignment = list(rod_place(model, caps).assignment)
    else:
        assignment = [rng.randrange(n) for _ in range(m)]

    node_coeffs = np.zeros((n, model.num_variables))
    for j, node in enumerate(assignment):
        node_coeffs[node] += model.coefficients[j]

    def score(coeffs):
        share = coeffs / safe_totals
        share[:, totals <= 1e-12] = 0.0
        weights = share / capacity_share[:, None]
        feasible = np.all(points @ weights.T <= 1.0 + 1e-12, axis=1)
        return float(np.mean(feasible))

    current = score(node_coeffs)
    best = current
    best_assignment = tuple(assignment)
    temperature = placer.initial_temperature
    for _ in range(placer.iterations):
        j = rng.randrange(m)
        source = assignment[j]
        target = rng.randrange(n - 1)
        if target >= source:
            target += 1
        row = model.coefficients[j]
        node_coeffs[source] -= row
        node_coeffs[target] += row
        candidate = score(node_coeffs)
        delta = candidate - current
        if delta >= 0 or (
            temperature > 0
            and rng.random() < math.exp(delta / temperature)
        ):
            assignment[j] = target
            current = candidate
            if current > best:
                best = current
                best_assignment = tuple(assignment)
        else:
            node_coeffs[source] += row
            node_coeffs[target] -= row
        temperature *= placer.cooling
    return best_assignment


class TestAnnealingPlacer:
    def test_polish_never_worse_than_rod(self, small_tree_model,
                                         four_nodes):
        rod_plan = rod_place(small_tree_model, four_nodes)
        annealed = AnnealingPlacer(
            iterations=500, samples=1024, start="rod", seed=1
        ).place(small_tree_model, four_nodes)
        assert annealed.volume_ratio(samples=2048) >= (
            rod_plan.volume_ratio(samples=2048) - 0.02
        )

    def test_random_start_produces_valid_plan(self, small_tree_model,
                                              four_nodes):
        plan = AnnealingPlacer(
            iterations=300, samples=512, start="random", seed=2
        ).place(small_tree_model, four_nodes)
        assert len(plan.assignment) == small_tree_model.num_operators
        assert set(plan.assignment) <= set(range(4))

    def test_deterministic_for_seed(self, small_tree_model, four_nodes):
        kwargs = dict(iterations=200, samples=512, start="random", seed=3)
        a = AnnealingPlacer(**kwargs).place(small_tree_model, four_nodes)
        b = AnnealingPlacer(**kwargs).place(small_tree_model, four_nodes)
        assert a.assignment == b.assignment

    def test_more_iterations_do_not_hurt(self, small_tree_model,
                                         four_nodes):
        short = AnnealingPlacer(
            iterations=100, samples=1024, start="random", seed=4,
            initial_temperature=0.0,
        ).place(small_tree_model, four_nodes)
        long = AnnealingPlacer(
            iterations=2000, samples=1024, start="random", seed=4,
            initial_temperature=0.0,
        ).place(small_tree_model, four_nodes)
        # Greedy (zero-temperature) hill climbing is monotone in budget.
        assert long.volume_ratio(samples=2048) >= (
            short.volume_ratio(samples=2048) - 1e-9
        )

    def test_single_node_noop(self, small_tree_model):
        # n=1: no alternative target exists; must still terminate.
        plan = AnnealingPlacer(iterations=10, samples=256, seed=5).place(
            small_tree_model, [1.0]
        )
        assert set(plan.assignment) == {0}

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealingPlacer(iterations=0)
        with pytest.raises(ValueError):
            AnnealingPlacer(samples=0)
        with pytest.raises(ValueError):
            AnnealingPlacer(cooling=1.5)
        with pytest.raises(ValueError):
            AnnealingPlacer(initial_temperature=-1.0)
        with pytest.raises(ValueError):
            AnnealingPlacer(start="lukewarm")


class TestIncrementalScoring:
    """The optimized scorer must replay the old one's decisions exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("start", ["rod", "random"])
    def test_matches_full_rescoring_reference(self, small_tree_model,
                                              four_nodes, seed, start):
        placer = AnnealingPlacer(
            iterations=400, samples=512, start=start, seed=seed
        )
        plan = placer.place(small_tree_model, four_nodes)
        assert plan.assignment == _reference_place(
            placer, small_tree_model, four_nodes
        )

    def test_matches_reference_with_heterogeneous_capacities(
        self, small_tree_model
    ):
        capacities = [2.0, 1.0, 0.5, 1.5]
        placer = AnnealingPlacer(
            iterations=300, samples=512, start="random", seed=7
        )
        plan = placer.place(small_tree_model, capacities)
        assert plan.assignment == _reference_place(
            placer, small_tree_model, capacities
        )


class TestSharedSampleCache:
    def test_repeat_placements_share_cached_points(self, small_tree_model,
                                                   four_nodes):
        # Identical configurations must produce identical plans, and the
        # second run must reuse the first run's sample points instead of
        # regenerating them.
        cache.clear_cache()
        kwargs = dict(iterations=100, samples=512, start="rod", seed=9)
        first = AnnealingPlacer(**kwargs).place(small_tree_model, four_nodes)
        misses_after_first = cache.cache_stats()["misses"]
        second = AnnealingPlacer(**kwargs).place(small_tree_model, four_nodes)
        stats = cache.cache_stats()
        assert first.assignment == second.assignment
        assert stats["misses"] == misses_after_first
        assert stats["hits"] >= 1

    def test_placer_and_evaluation_share_one_stream(self, small_tree_model,
                                                    four_nodes):
        # The placer's scoring points and a later volume_ratio() call
        # draw from the same cached stream (same dimension/method/seed).
        cache.clear_cache()
        plan = AnnealingPlacer(
            iterations=50, samples=512, seed=1
        ).place(small_tree_model, four_nodes)
        misses = cache.cache_stats()["misses"]
        plan.volume_ratio(samples=512)
        stats = cache.cache_stats()
        assert stats["misses"] == misses
        assert stats["hits"] >= 1


class _Spy:
    """An enabled tracer that keeps what it is sent."""

    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, event_type, **fields):
        self.events.append((event_type, fields))

    def fields(self, event_type):
        return [f for t, f in self.events if t == event_type]


class TestBatchedScoring:
    def test_batched_plan_is_valid_and_deterministic(self, small_tree_model,
                                                     four_nodes):
        config = dict(iterations=400, samples=512, seed=3, score_batch=8)
        first = AnnealingPlacer(**config).place(small_tree_model, four_nodes)
        second = AnnealingPlacer(**config).place(small_tree_model, four_nodes)
        assert first.assignment == second.assignment
        assert all(0 <= node < 4 for node in first.assignment)

    def test_batched_polish_never_worse_than_rod(self, small_tree_model,
                                                 four_nodes):
        rod_volume = rod_place(
            small_tree_model, four_nodes
        ).volume_ratio(samples=2048)
        plan = AnnealingPlacer(
            iterations=600, samples=1024, seed=1, score_batch=16
        ).place(small_tree_model, four_nodes)
        assert plan.volume_ratio(samples=2048) >= rod_volume - 1e-9

    def test_count_of_256_violated_nodes_does_not_wrap(self):
        # 256 near-zero nodes each hold two operators, so every sample
        # is violated on exactly 256 nodes and most moves keep it so;
        # an int8 sum reads that count as 0, a feasible sample, and a
        # traced round would score above 0.0.
        model = make_model(2, 256, seed=0)
        capacities = [1e-9] * 256 + [1.0]
        spy = _Spy()
        plan = AnnealingPlacer(
            iterations=16, samples=64, seed=0, score_batch=8,
            initial_assignment=[j // 2 for j in range(512)],
            tracer=spy, trace_every=1,
        ).place(model, capacities)
        rounds = spy.fields("placement.iteration")
        assert len(rounds) == 2
        assert all(f["current"] == 0.0 and f["best"] == 0.0 for f in rounds)
        assert plan.volume_ratio(samples=64) == 0.0

    def test_batch_counts_against_iteration_budget(self, small_tree_model,
                                                   four_nodes):
        # A K-proposal round spends K iterations: a budget of K draws
        # exactly one round, so huge K cannot multiply the work done.
        spy = _Spy()
        AnnealingPlacer(
            iterations=64, samples=256, seed=0, score_batch=64,
            tracer=spy, trace_every=1,
        ).place(small_tree_model, four_nodes)
        rounds = spy.fields("placement.iteration")
        assert rounds, "batched search should trace its rounds"
        assert max(f["iteration"] for f in rounds) <= 64


class TestRefinementKnobs:
    def test_initial_assignment_overrides_start(self, small_tree_model,
                                                four_nodes):
        m = small_tree_model.num_operators
        pinned = tuple(j % 4 for j in range(m))
        plan = AnnealingPlacer(
            iterations=1, samples=256, seed=0, initial_temperature=0.0,
            initial_assignment=pinned,
        ).place(small_tree_model, four_nodes)
        # One zero-temperature iteration can apply at most one move.
        moved = sum(1 for a, b in zip(plan.assignment, pinned) if a != b)
        assert moved <= 1

    def test_all_true_mask_is_bit_identical_to_no_mask(self,
                                                       small_tree_model,
                                                       four_nodes):
        config = dict(iterations=300, samples=512, seed=5)
        bare = AnnealingPlacer(**config).place(small_tree_model, four_nodes)
        masked = AnnealingPlacer(
            sample_mask=np.ones(512, dtype=bool), **config
        ).place(small_tree_model, four_nodes)
        assert bare.assignment == masked.assignment

    def test_mask_shape_validated(self):
        with pytest.raises(ValueError):
            AnnealingPlacer(samples=128, sample_mask=np.ones(64, dtype=bool))

    def test_total_capacity_validated(self):
        with pytest.raises(ValueError):
            AnnealingPlacer(total_capacity=0.0)

    def test_score_batch_and_jobs_validated(self):
        with pytest.raises(ValueError):
            AnnealingPlacer(score_batch=0)
        # Candidates are scored inline; there is no worker-count knob.
        with pytest.raises(TypeError):
            AnnealingPlacer(jobs=2)

    def test_total_capacity_override_scores_against_global_share(
            self, small_tree_model):
        # Refining two nodes of a notional eight-node cluster: the
        # override shrinks each node's capacity share, so plans that
        # look feasible locally score as infeasible globally.
        local = AnnealingPlacer(iterations=50, samples=512, seed=2)
        global_view = AnnealingPlacer(
            iterations=50, samples=512, seed=2, total_capacity=8.0
        )
        caps = [1.0, 1.0]
        loose = local.place(small_tree_model, caps)
        tight = global_view.place(small_tree_model, caps)
        assert len(tight.assignment) == len(loose.assignment)
