"""Unit tests for Quasi-Monte-Carlo volume estimation."""

import math

import numpy as np
import pytest

from repro.core.volume import qmc


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


class TestStreamingFraction:
    def test_converges_to_batch_estimate(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0.5, 2.5, size=(3, 3))
        final = None
        for n, frac, se in qmc.stream_feasible_fraction(
            w, batch=512, max_samples=4096
        ):
            final = (n, frac, se)
        assert final is not None
        n, frac, se = final
        assert n == 4096
        assert frac == qmc.feasible_fraction(w, samples=4096)
        assert se > 0

    def test_standard_error_shrinks(self):
        w = 1.5 * np.ones((2, 2))
        ses = [
            se
            for _, _, se in qmc.stream_feasible_fraction(
                w, batch=256, max_samples=4096
            )
        ]
        assert ses[-1] < ses[0]

    def test_target_se_terminates_early(self):
        rng = np.random.default_rng(5)
        w = rng.uniform(0.5, 2.5, size=(3, 3))
        # A loose target stops well short of the full budget...
        loose = qmc.feasible_fraction(
            w, samples=1 << 16, target_se=0.05, batch=256
        )
        # ...and the early value matches a direct estimate at the
        # point where the stream would have stopped.
        stopped_at = None
        for n, frac, se in qmc.stream_feasible_fraction(
            w, batch=256, max_samples=1 << 16
        ):
            if se <= 0.05:
                stopped_at = (n, frac)
                break
        assert stopped_at is not None
        assert loose == stopped_at[1]

    def test_target_se_caps_at_budget(self):
        w = 1.5 * np.ones((2, 2))
        # Unreachable target: runs to the sample cap, matching the
        # plain estimate exactly.
        assert qmc.feasible_fraction(
            w, samples=2048, target_se=1e-9, batch=512
        ) == qmc.feasible_fraction(w, samples=2048)
