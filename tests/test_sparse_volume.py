"""Sparse scoring and axis-sampled QMC (the scale path of the kernel).

The contract under test is exactness: on default settings the sparse
representation must return *bit-identical* volume ratios to the dense
kernel — representation is a speed/memory knob, never a result knob.
The axis-sampled estimator is the explicitly opt-in exception and is
tested for statistical sanity instead.
"""

import numpy as np
import pytest

from repro.core.feasible_set import FeasibleSet
from repro.core.volume import (
    GUARD_BAND,
    SparseWeights,
    axis_sampled_fraction,
    binding_axis_order,
    sparse_feasible_mask,
)
from repro.core.volume import qmc


def random_sparse_weights(rng, n, d, density=0.15):
    """A weight matrix shaped like a large-cluster plan: few active
    columns per node, magnitudes straddling the feasibility threshold."""
    w = np.zeros((n, d))
    for i in range(n):
        active = rng.choice(d, size=max(1, int(density * d)), replace=False)
        w[i, active] = rng.uniform(0.2, 3.0, size=active.size)
    return w


class TestSparseWeights:
    def test_row_storage_and_density(self):
        w = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
        sparse = SparseWeights(w)
        assert sparse.num_nodes == 2 and sparse.dimension == 3
        assert [list(c) for c in sparse.columns] == [[1], [0, 2]]
        assert sparse.nnz == 3
        assert sparse.density == pytest.approx(0.5)
        assert np.array_equal(sparse.dense(), w)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            SparseWeights(np.zeros(4))

    def test_mask_rejects_mismatched_points(self):
        sparse = SparseWeights(np.eye(3))
        with pytest.raises(ValueError):
            sparse_feasible_mask(sparse, np.zeros((5, 2)))


class TestSparseDenseBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_masks_match_dense_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n, d = 40, 24
        w = random_sparse_weights(rng, n, d)
        points = qmc.sample_unit_simplex(1024, d, method="halton")
        sparse_mask, _ = sparse_feasible_mask(SparseWeights(w), points)
        dense_mask = np.all(points @ w.T <= 1.0 + 1e-12, axis=1)
        assert np.array_equal(sparse_mask, dense_mask)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_feasible_fraction_identical_across_representations(self, seed):
        rng = np.random.default_rng(seed)
        w = random_sparse_weights(rng, 48, 16)
        dense = qmc.feasible_fraction(w, samples=2048, representation="dense")
        sparse = qmc.feasible_fraction(w, samples=2048,
                                       representation="sparse")
        auto = qmc.feasible_fraction(w, samples=2048, representation="auto")
        assert sparse == dense
        assert auto == dense

    def test_volume_ratio_identical_through_feasible_set(self):
        rng = np.random.default_rng(7)
        ln = rng.uniform(0.0, 1.0, size=(40, 12))
        ln[rng.random(ln.shape) < 0.8] = 0.0
        fs = FeasibleSet(ln, np.ones(40))
        assert fs.volume_ratio(representation="sparse") == fs.volume_ratio(
            representation="dense"
        )

    def test_guard_band_sample_rescored_densely(self):
        # One node exactly on the threshold at a known sample: the
        # sparse path must flag it and return the dense decision.
        w = np.array([[1.0, 0.0], [0.0, 0.5]])
        points = np.array([[1.0 + 1e-12, 0.0], [0.2, 0.2]])
        mask, rescored = sparse_feasible_mask(SparseWeights(w), points)
        dense = np.all(points @ w.T <= 1.0 + 1e-12, axis=1)
        assert rescored >= 1
        assert np.array_equal(mask, dense)

    def test_guard_band_is_wide_against_rounding(self):
        # Documented contract: band sits far above d*eps dot rounding.
        assert GUARD_BAND >= 1e5 * 64 * np.finfo(float).eps

    def test_unknown_representation_rejected(self):
        with pytest.raises(ValueError):
            qmc.feasible_fraction(np.eye(3), samples=16,
                                  representation="csr")


class TestAutoHeuristic:
    def test_small_or_dense_stays_dense(self):
        assert qmc._resolve_sparse(np.eye(8), "auto") is None
        dense_big = np.ones((64, 8))
        assert qmc._resolve_sparse(dense_big, "auto") is None

    def test_large_sparse_switches(self):
        w = np.zeros((64, 32))
        w[:, 0] = 1.0
        resolved = qmc._resolve_sparse(w, "auto")
        assert isinstance(resolved, SparseWeights)

    def test_explicit_override_wins(self):
        w = np.zeros((64, 32))
        w[:, 0] = 1.0
        assert qmc._resolve_sparse(w, "dense") is None
        assert isinstance(qmc._resolve_sparse(np.eye(4), "sparse"),
                          SparseWeights)


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
