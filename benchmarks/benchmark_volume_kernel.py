"""pytest-benchmark suite for the fast volume kernel.

Covers the four hot paths the perf work targets: raw Halton generation,
the memoized sample-point cache's hit path, the feasible-fraction
estimate, and an annealing placement with incremental scoring.

Run standalone::

    PYTHONPATH=src python -m pytest benchmarks/benchmark_volume_kernel.py \
        -q --benchmark-json=/tmp/bench_volume.json

Scale tiers (cumulative, see ``conftest.py``): ``--tier mid`` adds the
hierarchical-vs-flat placement race at 384 operators / 96 nodes, which
asserts the scale path's headline numbers — hierarchical+batched at
least 4x faster than flat annealing with final volume within 5%.
``--tier large`` adds the 1000-node / 64-stream run. Refresh the full
baseline with ``--tier large``.

CI compares the fresh JSON against the committed baseline
``benchmarks/BENCH_volume.json`` via ``check_volume_budget.py``; refresh
the baseline with the command above (writing to the baseline path) after
an intentional kernel change.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.volume import cache, qmc
from repro.experiments.common import make_model
from repro.placement import AnnealingPlacer, HierarchicalPlacer


@pytest.fixture(autouse=True)
def fresh_cache():
    cache.clear_cache()
    yield
    cache.clear_cache()


def test_halton_generation(benchmark):
    """Vectorized Halton points: 20k x 8 without a per-point loop."""
    result = benchmark(qmc.halton, 20_000, 8)
    assert result.shape == (20_000, 8)


def test_cache_hit_path(benchmark):
    """Serving memoized points must cost a lookup plus a slice."""
    cache.simplex_points(8192, 5)  # warm

    def hit():
        return cache.simplex_points(4096, 5)

    result = benchmark(hit)
    assert result.shape == (4096, 5)
    assert cache.cache_stats()["misses"] == 1


def test_feasible_fraction(benchmark):
    rng = np.random.default_rng(7)
    weights = rng.uniform(0.5, 3.0, size=(10, 5))

    def estimate():
        return qmc.feasible_fraction(weights, samples=8192)

    fraction = benchmark(estimate)
    assert 0.0 <= fraction <= 1.0


def test_annealing_place(benchmark):
    """Incremental scoring: O(samples) per move, not a full rescore."""
    model = make_model(5, 8, seed=3)
    capacities = [1.0] * 10
    placer = AnnealingPlacer(iterations=1000, samples=1024, seed=1)
    placer.place(model, capacities)  # warm the sample cache

    plan = benchmark(placer.place, model, capacities)
    assert len(plan.assignment) == model.num_operators


# --- mid tier: the hierarchical-vs-flat placement race -----------------

_MID_HIER = dict(group_size=8, refine_iterations=100, samples=512,
                 score_batch=16, seed=5)


def test_mid_hierarchical_vs_flat(benchmark, require_tier):
    """The scale path's acceptance numbers, asserted as a benchmark:
    hierarchical group-then-refine with batched scoring is at least 4x
    faster than flat annealing at 384 operators / 96 nodes, and gives
    up no more than 5% of the flat baseline's feasible-set volume."""
    require_tier("mid")
    model = make_model(6, 64, seed=5)
    capacities = [1.0] * 96
    flat = AnnealingPlacer(seed=5)
    hier = HierarchicalPlacer(**_MID_HIER)

    flat_plan = flat.place(model, capacities)  # warm the sample cache
    flat_times = []
    for _ in range(3):
        start = time.perf_counter()
        flat_plan = flat.place(model, capacities)
        flat_times.append(time.perf_counter() - start)

    hier_plan = benchmark(hier.place, model, capacities)

    hier_time = benchmark.stats.stats.min
    flat_time = min(flat_times)
    assert flat_time >= 4.0 * hier_time, (
        f"hierarchical {hier_time * 1e3:.1f} ms vs "
        f"flat {flat_time * 1e3:.1f} ms: speedup below 4x"
    )
    flat_volume = flat_plan.volume_ratio(samples=4096)
    hier_volume = hier_plan.volume_ratio(samples=4096)
    assert hier_volume >= 0.95 * flat_volume, (
        f"hierarchical volume {hier_volume:.4f} is more than 5% below "
        f"flat volume {flat_volume:.4f}"
    )


def test_mid_flat_annealing_place(benchmark, require_tier):
    """Flat annealing at mid scale — the baseline side of the race,
    tracked on its own so a regression in either placer is visible."""
    require_tier("mid")
    model = make_model(6, 64, seed=5)
    capacities = [1.0] * 96
    placer = AnnealingPlacer(seed=5)
    placer.place(model, capacities)  # warm the sample cache

    plan = benchmark.pedantic(placer.place, args=(model, capacities),
                              rounds=3, iterations=1)
    assert len(plan.assignment) == model.num_operators


# --- large tier: 1000 nodes, 64 input streams --------------------------


def test_large_thousand_node_hierarchical(benchmark, require_tier):
    """End-to-end hierarchical placement of 2048 operators over 1000
    nodes in a 64-stream model — the tentpole's headline scale."""
    require_tier("large")
    model = make_model(64, 32, seed=1)
    placer = HierarchicalPlacer(group_size=8, refine_iterations=50,
                                samples=256, score_batch=16, seed=5)
    capacities = [1.0] * 1000
    placer.place(model, capacities)  # warm the sample cache

    plan = benchmark.pedantic(placer.place, args=(model, capacities),
                              rounds=3, iterations=1)
    assert len(plan.assignment) == model.num_operators
    assert len(set(plan.assignment)) == 1000
