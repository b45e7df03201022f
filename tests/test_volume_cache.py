"""Tests for the process-wide QMC sample-point cache."""

import numpy as np
import pytest

from repro.core.volume import cache, qmc
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def isolated_cache():
    """Every test starts (and leaves) with an empty cache."""
    cache.clear_cache()
    yield
    cache.clear_cache()


class TestHitsAndMisses:
    def test_first_request_is_a_miss(self):
        cache.simplex_points(64, 3)
        stats = cache.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 0
        assert stats["entries"] == 1

    def test_identical_request_hits(self):
        first = cache.simplex_points(64, 3)
        second = cache.simplex_points(64, 3)
        assert cache.cache_stats()["hits"] == 1
        np.testing.assert_array_equal(first, second)
        # Same storage, not a copy.
        assert np.shares_memory(first, second)

    def test_prefix_request_hits(self):
        full = cache.simplex_points(128, 3)
        prefix = cache.simplex_points(32, 3)
        assert cache.cache_stats()["hits"] == 1
        np.testing.assert_array_equal(full[:32], prefix)
        assert np.shares_memory(full, prefix)

    def test_distinct_streams_do_not_collide(self):
        cache.simplex_points(64, 3)
        cache.simplex_points(64, 4)
        cache.simplex_points(64, 3, method="random", seed=1)
        stats = cache.cache_stats()
        assert stats["misses"] == 3
        assert stats["entries"] == 3

    def test_halton_streams_ignore_the_seed(self):
        # Halton points do not depend on the seed: two requests that
        # differ only in it share one generation.
        first = cache.simplex_points(64, 3, seed=1)
        second = cache.simplex_points(64, 3, seed=2)
        stats = cache.cache_stats()
        assert (stats["misses"], stats["hits"]) == (1, 1)
        assert np.shares_memory(first, second)


class TestCorrectness:
    def test_matches_fresh_generation(self):
        cached = cache.simplex_points(100, 4)
        fresh = qmc.generate_unit_simplex(100, 4)
        np.testing.assert_array_equal(cached, fresh)

    def test_halton_extension_is_bit_identical(self):
        # Growing a cached stream generates only the tail; the result
        # must equal a one-shot generation of the larger count.
        cache.simplex_points(50, 3)
        grown = cache.simplex_points(200, 3)
        np.testing.assert_array_equal(
            grown, qmc.generate_unit_simplex(200, 3)
        )
        # One generation + one extension, no full regeneration.
        assert cache.cache_stats()["misses"] == 2

    def test_seeded_random_extension_is_bit_identical(self):
        cache.simplex_points(50, 3, method="random", seed=9)
        grown = cache.simplex_points(200, 3, method="random", seed=9)
        np.testing.assert_array_equal(
            grown,
            qmc.generate_unit_simplex(200, 3, method="random", seed=9),
        )

    def test_earlier_views_stay_valid_after_growth(self):
        small = cache.simplex_points(20, 3)
        snapshot = small.copy()
        cache.simplex_points(500, 3)
        np.testing.assert_array_equal(small, snapshot)


class TestReadOnlyContract:
    def test_returned_arrays_are_read_only(self):
        points = cache.simplex_points(32, 3)
        with pytest.raises(ValueError):
            points[0, 0] = 0.5

    def test_unseeded_random_bypasses_cache_but_stays_read_only(self):
        points = cache.simplex_points(32, 3, method="random")
        assert cache.cache_stats()["entries"] == 0
        with pytest.raises(ValueError):
            points += 1.0

    def test_sample_unit_simplex_serves_from_cache(self):
        # The public qmc entry point and the cache hand out one storage.
        a = qmc.sample_unit_simplex(64, 3)
        b = cache.simplex_points(64, 3)
        assert np.shares_memory(a, b)
        assert cache.cache_stats()["hits"] == 1


class TestEviction:
    def test_lru_eviction_beyond_capacity(self):
        for seed in range(cache.MAX_ENTRIES + 5):
            cache.simplex_points(8, 2, method="random", seed=seed)
        stats = cache.cache_stats()
        assert stats["entries"] == cache.MAX_ENTRIES
        assert stats["evictions"] == 5

    def test_clear_cache_resets_everything(self):
        cache.simplex_points(64, 3)
        cache.clear_cache()
        stats = cache.cache_stats()
        assert stats == {
            "hits": 0, "misses": 0, "evictions": 0,
            "entries": 0, "points": 0,
        }


class TestValidationAndMetrics:
    def test_validation(self):
        with pytest.raises(ValueError):
            cache.simplex_points(-1, 2)
        with pytest.raises(ValueError):
            cache.simplex_points(8, 0)
        with pytest.raises(ValueError, match="method"):
            cache.simplex_points(8, 2, method="sobol")

    def test_publish_metrics(self):
        cache.simplex_points(64, 3)
        cache.simplex_points(64, 3)
        registry = MetricsRegistry()
        cache.publish_metrics(registry)
        rendered = registry.render_prometheus()
        assert "repro_volume_cache_hits 1" in rendered
        assert "repro_volume_cache_misses 1" in rendered
        assert "repro_volume_cache_points 64" in rendered
