"""Exact feasible-set volumes for small dimensions.

The feasible set ``F = {R >= 0 : L^n R <= C}`` is a convex polytope.  For
the small instances where the paper compares against the optimal plan
(Section 7.3.1: at most two nodes and five input streams), exact volumes
are tractable by vertex enumeration — every vertex is the intersection of
``d`` of the ``n + d`` constraint hyperplanes — followed by a convex-hull
volume computation.

The exhaustive :mod:`repro.placement.optimal` placer uses these exact
volumes so that "optimal" really is the volume-maximizing plan rather than
an estimate.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "polytope_vertices",
    "polytope_volume",
    "feasible_volume",
    "simplex_volume",
]

_TOL = 1e-9


def _halfspaces(
    node_coefficients: np.ndarray, capacities: np.ndarray
) -> tuple:
    """Stack node constraints and non-negativity into ``A x <= b`` form."""
    ln = np.asarray(node_coefficients, dtype=float)
    c = np.asarray(capacities, dtype=float)
    if ln.ndim != 2:
        raise ValueError(f"L^n must be 2-D, got shape {ln.shape}")
    if c.shape != (ln.shape[0],):
        raise ValueError(
            f"capacity shape {c.shape} does not match n={ln.shape[0]}"
        )
    d = ln.shape[1]
    a = np.vstack([ln, -np.eye(d)])
    b = np.concatenate([c, np.zeros(d)])
    return a, b


def polytope_vertices(
    node_coefficients: np.ndarray, capacities: Sequence[float]
) -> np.ndarray:
    """All vertices of ``{R >= 0 : L^n R <= C}`` by basis enumeration.

    Returns an array of shape ``(v, d)``.  Raises ``ValueError`` if the
    polytope is unbounded (some variable carries no positive load on any
    node), since its volume — and hence a resilience comparison — is then
    meaningless in absolute terms.
    """
    a, b = _halfspaces(
        np.asarray(node_coefficients, float), np.asarray(capacities, float)
    )
    d = a.shape[1]
    ln = np.asarray(node_coefficients, dtype=float)
    unbounded = ~np.any(ln > _TOL, axis=0)
    if np.any(unbounded):
        raise ValueError(
            "polytope is unbounded along axes "
            f"{np.nonzero(unbounded)[0].tolist()}: no node carries load "
            "from those variables"
        )
    # Scale-invariant tolerances: coefficients may be ~1e-3 (costs in CPU
    # seconds), making raw determinants ~1e-3^d; compare against the
    # Hadamard bound (product of row norms) instead of an absolute cut.
    row_norms = np.linalg.norm(a, axis=1)
    constraint_scale = np.maximum(np.abs(b), 1.0)
    vertices = []
    for rows in itertools.combinations(range(a.shape[0]), d):
        index = list(rows)
        sub_a = a[index]
        hadamard = float(np.prod(row_norms[index]))
        if hadamard <= 0.0:
            continue
        if abs(np.linalg.det(sub_a)) < 1e-12 * hadamard:
            continue
        point = np.linalg.solve(sub_a, b[index])
        if np.all(a @ point <= b + _TOL * constraint_scale):
            vertices.append(point)
    if not vertices:
        return np.zeros((0, d))
    # Deduplicate on rounded keys but keep exact coordinates.
    stacked = np.vstack(vertices)
    _, first_indices = np.unique(
        np.round(stacked, 9), axis=0, return_index=True
    )
    return stacked[np.sort(first_indices)]


def polytope_volume(
    node_coefficients: np.ndarray, capacities: Sequence[float]
) -> float:
    """Exact volume of ``{R >= 0 : L^n R <= C}``.

    Returns 0.0 for degenerate (lower-dimensional) feasible sets.
    """
    vertices = polytope_vertices(node_coefficients, capacities)
    d = np.asarray(node_coefficients).shape[1]
    if d == 1:
        if vertices.size == 0:
            return 0.0
        return float(vertices.max() - vertices.min())
    if vertices.shape[0] <= d:
        return 0.0
    # Imported here so that importing the package does not load SciPy.
    from scipy.spatial import ConvexHull, QhullError

    try:
        return float(ConvexHull(vertices).volume)
    except QhullError:
        return 0.0


def feasible_volume(
    node_coefficients: np.ndarray,
    capacities: Sequence[float],
    lower_bound: Optional[Sequence[float]] = None,
) -> float:
    """Exact volume of the feasible set, optionally above a rate floor.

    With ``lower_bound`` B the volume of ``{R >= B : L^n R <= C}`` is
    computed by translating the polytope: substitute ``R = B + S`` with
    ``S >= 0`` and capacities reduced by ``L^n B``.  Returns 0.0 if the
    lower bound itself overloads some node.
    """
    ln = np.asarray(node_coefficients, dtype=float)
    c = np.asarray(capacities, dtype=float)
    if lower_bound is None:
        return polytope_volume(ln, c)
    b = np.asarray(lower_bound, dtype=float)
    if b.shape != (ln.shape[1],):
        raise ValueError(
            f"lower bound shape {b.shape} does not match d={ln.shape[1]}"
        )
    if np.any(b < 0):
        raise ValueError(f"lower bound must be >= 0, got {b!r}")
    residual = c - ln @ b
    if np.any(residual < -_TOL):
        return 0.0
    return polytope_volume(ln, np.maximum(residual, 0.0))


def simplex_volume(intercepts: Sequence[float]) -> float:
    """Volume of ``{x >= 0, sum x_k / t_k <= 1}`` = ``prod t_k / d!``.

    Convenience for closed-form checks in tests.
    """
    t = np.asarray(intercepts, dtype=float)
    if np.any(t <= 0):
        raise ValueError(f"intercepts must be > 0, got {t!r}")
    d = t.shape[0]
    return float(np.prod(t) / math.factorial(d))
