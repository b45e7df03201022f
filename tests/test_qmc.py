"""Unit tests for Quasi-Monte-Carlo volume estimation."""

import numpy as np
import pytest

from repro.core.feasible_set import FeasibleSet
from repro.core.volume import axis_sampled_fraction, binding_axis_order, qmc


def random_sparse_weights(rng, n, d, density=0.15):
    """A weight matrix shaped like a large-cluster plan: few active
    columns per node, magnitudes straddling the feasibility threshold."""
    w = np.zeros((n, d))
    for i in range(n):
        active = rng.choice(d, size=max(1, int(density * d)), replace=False)
        w[i, active] = rng.uniform(0.2, 3.0, size=active.size)
    return w


class TestVanDerCorput:
    def test_base2_prefix(self):
        seq = qmc.van_der_corput(7, 2)
        assert np.allclose(
            seq, [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875]
        )

    def test_base3_prefix(self):
        seq = qmc.van_der_corput(3, 3)
        assert np.allclose(seq, [1 / 3, 2 / 3, 1 / 9])

    def test_skip_continues_sequence(self):
        full = qmc.van_der_corput(10, 2)
        tail = qmc.van_der_corput(5, 2, skip=5)
        assert np.allclose(full[5:], tail)

    def test_values_in_unit_interval(self):
        seq = qmc.van_der_corput(200, 5)
        assert np.all((seq >= 0) & (seq < 1))

    def test_low_discrepancy(self):
        # First 2^k - 1 base-2 points are perfectly stratified.
        seq = qmc.van_der_corput(255, 2)
        hist, _ = np.histogram(seq, bins=16, range=(0, 1))
        assert hist.max() - hist.min() <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            qmc.van_der_corput(3, 1)
        with pytest.raises(ValueError):
            qmc.van_der_corput(-1, 2)


class TestHalton:
    def test_shape_and_range(self):
        pts = qmc.halton(100, 4)
        assert pts.shape == (100, 4)
        assert np.all((pts >= 0) & (pts < 1))

    def test_columns_use_distinct_primes(self):
        pts = qmc.halton(8, 2)
        assert np.allclose(pts[:, 0], qmc.van_der_corput(8, 2))
        assert np.allclose(pts[:, 1], qmc.van_der_corput(8, 3))

    def test_high_dimensions_supported(self):
        # The prime table grows on demand; there is no 32-dim cap.
        pts = qmc.halton(10, 100)
        assert pts.shape == (10, 100)
        assert np.all((pts >= 0) & (pts < 1))
        with pytest.raises(ValueError):
            qmc.halton(10, 0)

    def test_skip_continues_sequence(self):
        full = qmc.halton(64, 5)
        tail = qmc.halton(24, 5, skip=40)
        np.testing.assert_array_equal(full[40:], tail)

    def test_first_primes(self):
        assert qmc.first_primes(5) == (2, 3, 5, 7, 11)
        with pytest.raises(ValueError):
            qmc.first_primes(-1)

    def test_first_primes_beyond_legacy_cap(self):
        primes = qmc.first_primes(100)
        assert len(primes) == 100
        assert primes[32] == 137  # 33rd prime, past the old 32-dim table
        assert primes[99] == 541
        # The table grows monotonically and stays prime.
        assert all(b > a for a, b in zip(primes, primes[1:]))

    def test_matches_scalar_reference(self):
        def scalar_vdc(count, base, skip=0):
            out = []
            for index in range(skip + 1, skip + count + 1):
                value, denom = 0.0, 1.0
                while index:
                    index, digit = divmod(index, base)
                    denom *= base
                    value += digit / denom
                out.append(value)
            return np.asarray(out)

        for base in (2, 3, 5, 13):
            for skip in (0, 7):
                np.testing.assert_array_equal(
                    qmc.van_der_corput(257, base, skip=skip),
                    scalar_vdc(257, base, skip=skip),
                )

    def test_large_generation(self):
        # Acceptance check: 100k x 8 generates vectorized and agrees
        # with the per-column van der Corput definition.
        pts = qmc.halton(100_000, 8)
        assert pts.shape == (100_000, 8)
        bases = qmc.first_primes(8)
        for k in (0, 3, 7):
            np.testing.assert_array_equal(
                pts[:, k], qmc.van_der_corput(100_000, bases[k])
            )


class TestSimplexSampling:
    def test_points_inside_simplex(self):
        pts = qmc.sample_unit_simplex(500, 3)
        assert np.all(pts >= 0)
        assert np.all(pts.sum(axis=1) <= 1.0 + 1e-12)

    def test_random_method_inside_simplex(self):
        pts = qmc.sample_unit_simplex(500, 4, method="random", seed=1)
        assert np.all(pts >= 0)
        assert np.all(pts.sum(axis=1) <= 1.0 + 1e-12)

    def test_mean_matches_uniform_simplex(self):
        # Uniform over {x >= 0, sum <= 1} has E[x_k] = 1 / (d + 1).
        pts = qmc.sample_unit_simplex(8192, 2)
        assert np.allclose(pts.mean(axis=0), 1 / 3, atol=0.01)

    def test_spacings_construction(self):
        cube = np.array([[0.7, 0.2, 0.5]])
        simplex = qmc.simplex_from_cube(cube)
        assert np.allclose(simplex, [[0.2, 0.3, 0.2]])

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            qmc.sample_unit_simplex(10, 2, method="sobol")

    def test_validation(self):
        with pytest.raises(ValueError):
            qmc.sample_unit_simplex(-1, 2)
        with pytest.raises(ValueError, match="2-D"):
            qmc.simplex_from_cube(np.zeros(3))


class TestFeasibleFraction:
    def test_ideal_weights_fill_simplex(self):
        w = np.ones((3, 4))
        assert qmc.feasible_fraction(w, samples=512) == 1.0

    def test_doubled_weights_halve_per_axis(self):
        # W = 2 * ones: feasible iff sum x <= 1/2, a simplex scaled by
        # 1/2 in d dims -> fraction (1/2)^d.
        for d in (1, 2, 3):
            w = 2.0 * np.ones((1, d))
            frac = qmc.feasible_fraction(w, samples=1 << 14)
            assert frac == pytest.approx(0.5 ** d, abs=0.02)

    def test_agrees_with_random_sampling(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0.5, 3.0, size=(4, 3))
        halton = qmc.feasible_fraction(w, samples=1 << 14, method="halton")
        plain = qmc.feasible_fraction(
            w, samples=1 << 15, method="random", seed=11
        )
        assert halton == pytest.approx(plain, abs=0.02)

    def test_lower_bound_restricts_region(self):
        w = np.array([[1.5, 1.0]])
        free = qmc.feasible_fraction(w, samples=4096)
        floored = qmc.feasible_fraction(
            w, samples=4096, lower_bound=np.array([0.4, 0.0])
        )
        assert floored < free

    def test_lower_bound_outside_simplex_is_zero(self):
        w = np.ones((1, 2))
        assert qmc.feasible_fraction(
            w, samples=64, lower_bound=np.array([0.7, 0.5])
        ) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            qmc.feasible_fraction(np.ones(3))
        with pytest.raises(ValueError, match="sample"):
            qmc.feasible_fraction(np.ones((1, 2)), samples=0)
        with pytest.raises(ValueError, match="lower bound"):
            qmc.feasible_fraction(
                np.ones((1, 2)), lower_bound=np.array([0.1])
            )


class TestBindingAxisOrder:
    def test_orders_by_worst_column_weight(self):
        w = np.array([[0.1, 3.0, 0.5], [0.2, 0.1, 0.4]])
        assert list(binding_axis_order(w)) == [1, 2, 0]

    def test_ties_stay_stable(self):
        w = np.array([[0.5, 0.5, 0.5]])
        assert list(binding_axis_order(w)) == [0, 1, 2]


class TestAxisSampledFraction:
    def test_matches_reference_within_error_bars(self):
        # Moderate dimension: the reference full-Halton estimate is
        # trustworthy, so the axis-sampled one must agree within a few
        # standard errors.
        rng = np.random.default_rng(3)
        w = random_sparse_weights(rng, 32, 12, density=0.3)
        reference = qmc.feasible_fraction(w, samples=8192)
        ratio, se = axis_sampled_fraction(w, samples=8192, axis_budget=6,
                                          seed=0)
        assert se > 0.0
        assert abs(ratio - reference) <= max(5.0 * se, 0.02)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(5)
        w = random_sparse_weights(rng, 32, 12)
        a = axis_sampled_fraction(w, samples=2048, axis_budget=4, seed=9)
        b = axis_sampled_fraction(w, samples=2048, axis_budget=4, seed=9)
        assert a == b

    def test_different_seed_changes_filler_axes(self):
        rng = np.random.default_rng(5)
        w = random_sparse_weights(rng, 32, 24, density=0.1)
        a, _ = axis_sampled_fraction(w, samples=1024, axis_budget=4, seed=1)
        b, _ = axis_sampled_fraction(w, samples=1024, axis_budget=4, seed=2)
        # Not required to differ mathematically, but identical values on
        # both seeds would mean the seed is ignored; allow equality only
        # when the estimate is saturated.
        assert a != b or a in (0.0, 1.0)

    def test_axis_budget_at_least_dimension_is_full_halton(self):
        rng = np.random.default_rng(8)
        w = random_sparse_weights(rng, 16, 6, density=0.4)
        ratio, _ = axis_sampled_fraction(w, samples=2048, axis_budget=6,
                                         seed=0)
        assert 0.0 <= ratio <= 1.0

    def test_feasible_set_surface(self):
        rng = np.random.default_rng(13)
        ln = rng.uniform(0.0, 1.0, size=(24, 10))
        ln[rng.random(ln.shape) < 0.7] = 0.0
        fs = FeasibleSet(ln, np.ones(24))
        ratio, se = fs.volume_ratio_axis_sampled(samples=2048, axis_budget=4)
        assert 0.0 <= ratio <= 1.0
        assert se >= 0.0
