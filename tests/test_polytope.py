"""Unit tests for exact polytope volumes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.feasible_set import FeasibleSet
from repro.core.rod import rod_place
from repro.core.volume import polytope, qmc
from repro.experiments.common import make_model


class TestVertices:
    def test_box_vertices(self):
        # x <= 1, y <= 2 with x, y >= 0: a rectangle.
        ln = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = polytope.polytope_vertices(ln, [1.0, 2.0])
        expected = {(0, 0), (1, 0), (0, 2), (1, 2)}
        assert {tuple(p) for p in np.round(v, 6)} == expected

    def test_unbounded_raises(self):
        ln = np.array([[1.0, 0.0]])  # nothing constrains axis 1
        with pytest.raises(ValueError, match="unbounded"):
            polytope.polytope_vertices(ln, [1.0])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            polytope.polytope_vertices(np.ones(2), [1.0])
        with pytest.raises(ValueError, match="capacity"):
            polytope.polytope_vertices(np.ones((2, 2)), [1.0])


class TestVolume:
    def test_rectangle(self):
        ln = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert polytope.polytope_volume(ln, [2.0, 3.0]) == pytest.approx(6.0)

    def test_simplex(self):
        # x + y <= 1 in the positive quadrant: area 1/2.
        ln = np.array([[1.0, 1.0]])
        assert polytope.polytope_volume(ln, [1.0]) == pytest.approx(0.5)

    def test_3d_simplex(self):
        ln = np.array([[2.0, 1.0, 4.0]])
        # intercepts 1/2, 1, 1/4 -> volume = prod / 3!
        expected = (0.5 * 1.0 * 0.25) / 6
        assert polytope.polytope_volume(ln, [1.0]) == pytest.approx(expected)

    def test_1d_segment(self):
        ln = np.array([[2.0], [4.0]])
        assert polytope.polytope_volume(ln, [1.0, 1.0]) == pytest.approx(0.25)

    def test_degenerate_zero_capacity_direction(self):
        # Two constraints forcing a lower-dimensional set.
        ln = np.array([[1.0, 0.0], [1.0, 1.0]])
        vol = polytope.polytope_volume(ln, [0.0001, 1.0])
        assert vol < 0.001

    def test_intersection_of_planes(self):
        # Two crossing constraints; volume computable by decomposition.
        ln = np.array([[2.0, 1.0], [1.0, 2.0]])
        vol = polytope.polytope_volume(ln, [1.0, 1.0])
        # Quadrilateral (0,0), (1/2,0), (1/3,1/3), (0,1/2): shoelace 1/6.
        assert vol == pytest.approx(1 / 6, rel=1e-6)

    def test_simplex_volume_helper(self):
        assert polytope.simplex_volume([1.0, 2.0, 3.0]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            polytope.simplex_volume([1.0, 0.0])


class TestFeasibleVolumeWithLowerBound:
    def test_translation(self):
        ln = np.array([[1.0, 1.0]])
        full = polytope.feasible_volume(ln, [1.0])
        above = polytope.feasible_volume(
            ln, [1.0], lower_bound=np.array([0.5, 0.0])
        )
        # Remaining region is the simplex scaled by 1/2: quarter the area.
        assert above == pytest.approx(full / 4)

    def test_floor_overloading_node_gives_zero(self):
        ln = np.array([[1.0, 1.0]])
        assert polytope.feasible_volume(
            ln, [1.0], lower_bound=np.array([2.0, 0.0])
        ) == 0.0

    def test_validation(self):
        ln = np.array([[1.0, 1.0]])
        with pytest.raises(ValueError, match="shape"):
            polytope.feasible_volume(ln, [1.0], lower_bound=np.array([1.0]))
        with pytest.raises(ValueError, match=">= 0"):
            polytope.feasible_volume(
                ln, [1.0], lower_bound=np.array([-1.0, 0.0])
            )


def _rod_coefficients(d, ops, seed, nodes):
    """``L^n`` of ROD's plan for ``make_model(d, ops, seed)`` on
    ``nodes`` unit-capacity nodes."""
    model = make_model(d, ops, seed)
    return rod_place(model, [1.0] * nodes).node_coefficients()


#: Five fixed 3x2 matrices, kept as explicit examples.
_FIXED = np.random.default_rng(3).uniform(0.2, 2.0, size=(5, 3, 2))


class TestAgreementWithQMC:
    @settings(max_examples=50, deadline=None)
    @given(ln=st.builds(
        _rod_coefficients,
        d=st.sampled_from([2, 3]),
        ops=st.integers(2, 5),
        seed=st.integers(0, 2**16 - 1),
        nodes=st.integers(2, 4),
    ))
    @example(ln=_FIXED[0])
    @example(ln=_FIXED[1])
    @example(ln=_FIXED[2])
    @example(ln=_FIXED[3])
    @example(ln=_FIXED[4])
    def test_exact_matches_estimate(self, ln):
        # The QMC ratio lies within four standard errors of the exact
        # one; the error bar is the spread of 512-point Halton blocks.
        fs = FeasibleSet(ln, np.ones(len(ln)))
        w = fs.weights()
        estimate = qmc.feasible_fraction(w, samples=1 << 14)
        _, se = qmc.axis_sampled_fraction(
            w, samples=1 << 14, axis_budget=w.shape[1], seed=0
        )
        assert abs(estimate - fs.exact_volume_ratio()) <= 4 * se
