"""Quasi-Monte-Carlo estimation of feasible-set volume (Section 7.1).

The paper computes feasible-set sizes "using Quasi Monte Carlo
integration".  We reproduce that with Halton low-discrepancy sequences,
plus a plain pseudo-random fallback for variance checks.

The key trick that keeps every estimate a direct *ratio to the ideal
feasible set*: Theorem 1 makes the ideal simplex
``{x >= 0, sum_k x_k <= 1}`` (in normalized coordinates) a superset of
every achievable feasible set.  Sampling uniformly *inside that simplex*
and testing ``W x <= 1`` therefore estimates
``V(F(A)) / V(F*)`` with no wasted samples outside the ideal set.

Uniform simplex sampling uses the classical spacings construction: the
ordered coordinates of a point of ``[0,1]^d`` have spacings uniformly
distributed over the simplex, which works equally for pseudo-random and
low-discrepancy input points.

Performance notes (this module is the repro's inner loop):

* :func:`van_der_corput` is fully vectorized — one :func:`numpy.divmod`
  per *digit position*, never a Python loop over points — and digit
  contributions accumulate in the same least-significant-first order as
  the scalar recurrence, so results are bit-identical to it.
* :func:`sample_unit_simplex` serves points from the process-wide
  memoized cache in :mod:`repro.core.volume.cache`; every consumer of a
  ``(dimension, method, seed)`` stream shares one generation.  Returned
  arrays are **read-only** views.
* Point ``skip + i`` of a stream equals point ``i`` of the same stream
  generated with ``skip`` more points skipped — streams are resumable,
  which is what lets the cache grow a Halton stream by generating only
  its missing tail.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "first_primes",
    "van_der_corput",
    "halton",
    "simplex_from_cube",
    "sample_unit_simplex",
    "feasible_fraction",
    "axis_sampled_fraction",
    "binding_axis_order",
]

#: Points per replicate block of :func:`axis_sampled_fraction`.
_AXIS_BLOCK = 512

# Seed prime table (enough for 32-dimensional rate spaces without
# sieving); ``first_primes`` extends it on demand for higher dimensions.
_PRIMES: List[int] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
]


def _sieve_limit(count: int) -> int:
    """An upper bound on the ``count``-th prime (Rosser's theorem)."""
    if count < 6:
        return 13
    n = float(count)
    return int(n * (math.log(n) + math.log(math.log(n)))) + 1


def _grow_primes(count: int) -> None:
    """Extend the module prime table to at least ``count`` entries."""
    limit = _sieve_limit(count)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):  # noqa: REPRO506  # sieve striding: O(sqrt limit) iterations, not per-point
        if mask[p]:
            mask[p * p:: p] = False
    primes = np.flatnonzero(mask)
    _PRIMES[:] = [int(p) for p in primes[: max(count, len(_PRIMES))]]


def first_primes(count: int) -> Tuple[int, ...]:
    """The first ``count`` primes (Halton bases), sieved on demand."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count > len(_PRIMES):
        _grow_primes(count)
    return tuple(_PRIMES[:count])


def van_der_corput(count: int, base: int, skip: int = 0) -> np.ndarray:
    """The van der Corput low-discrepancy sequence in the given base.

    Returns elements ``skip+1 .. skip+count`` (the sequence's 0th element
    is 0 and is conventionally skipped).  Vectorized over points: the
    loop below runs once per *digit position* (``O(log_base(skip +
    count))`` iterations), peeling the least-significant digit of every
    index at once — the same order the scalar recurrence accumulates in,
    so the output is bit-identical to it.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if count < 0 or skip < 0:
        raise ValueError("count and skip must be >= 0")
    indices = np.arange(skip + 1, skip + count + 1, dtype=np.int64)
    out = np.zeros(count)
    denom = 1.0
    while indices.size and indices.any():
        indices, digits = np.divmod(indices, base)
        denom *= base
        out += digits / denom
    return out


def halton(count: int, dimension: int, skip: int = 0) -> np.ndarray:
    """``count`` points of the ``dimension``-D Halton sequence in [0,1)^d."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    bases = first_primes(dimension)
    return np.column_stack(
        [van_der_corput(count, base, skip=skip) for base in bases]
    )


def simplex_from_cube(points: np.ndarray) -> np.ndarray:
    """Map unit-cube points to the simplex ``{x >= 0, sum x <= 1}``.

    Uses sorted spacings: if ``u_(1) <= ... <= u_(d)`` are the ordered
    coordinates, the spacings ``(u_(1), u_(2)-u_(1), ...)`` are uniform on
    the simplex when the input is uniform on the cube.  Row-local, so any
    slice of rows maps exactly as it would inside a larger batch.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected 2-D point array, got shape {pts.shape}")
    ordered = np.sort(pts, axis=1)
    return np.diff(ordered, axis=1, prepend=0.0)


def generate_unit_simplex(
    count: int,
    dimension: int,
    method: str = "halton",
    seed: Optional[int] = None,
    skip: int = 0,
) -> np.ndarray:
    """Generate simplex points without consulting the cache (always fresh).

    The ``skip`` parameter resumes the stream for both methods: Halton
    indices shift, and the pseudo-random stream is replayed from its seed
    and sliced, so batch ``[skip, skip+count)`` always equals the same
    rows of a one-shot generation.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if skip < 0:
        raise ValueError("skip must be >= 0")
    if method == "halton":
        cube = halton(count, dimension, skip=skip)
    elif method == "random":
        rng = np.random.default_rng(seed)
        cube = rng.random((skip + count, dimension))[skip:]
    else:
        raise ValueError(f"unknown sampling method: {method!r}")
    return simplex_from_cube(cube)


def sample_unit_simplex(
    count: int,
    dimension: int,
    method: str = "halton",
    seed: Optional[int] = None,
) -> np.ndarray:
    """Uniform points in the unit simplex, QMC (default) or pseudo-random.

    Served from the process-wide memoized cache
    (:mod:`repro.core.volume.cache`): repeated requests for the same
    stream — the annealing placer, :meth:`FeasibleSet.volume_ratio`,
    every experiment harness — share a single generation.  The returned
    array is **read-only**; callers that need to write must copy.
    Unseeded pseudo-random requests bypass the cache (they are
    non-reproducible by construction) but are read-only too.  Halton
    points do not depend on ``seed``.
    """
    # Imported here, not at module top: the cache generates through this
    # module's functions, so a top-level import would be circular.
    from . import cache as _cache

    return _cache.simplex_points(count, dimension, method=method, seed=seed)


def _prepare_weights(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"weight matrix must be 2-D, got shape {w.shape}")
    return w


def _prepare_bound(
    lower_bound: Optional[Sequence[float]], dimension: int
) -> Tuple[Optional[np.ndarray], float]:
    """Validated ``(B̂, scale)``; ``scale <= 0`` means an empty region."""
    if lower_bound is None:
        return None, 1.0
    b = np.asarray(lower_bound, dtype=float)
    if b.shape != (dimension,):
        raise ValueError(
            f"lower bound shape {b.shape} does not match d={dimension}"
        )
    return b, 1.0 - float(b.sum())


def _feasible_count(
    w: np.ndarray,
    points: np.ndarray,
    bound: Optional[np.ndarray],
    scale: float,
) -> int:
    """Number of (optionally bound-shifted) points with ``W x <= 1``."""
    if bound is not None:
        points = bound + scale * points
    feasible = np.all(points @ w.T <= 1.0 + 1e-12, axis=1)
    return int(np.count_nonzero(feasible))


def feasible_fraction(
    weights: np.ndarray,
    samples: int = 4096,
    method: str = "halton",
    seed: Optional[int] = None,
    lower_bound: Optional[Sequence[float]] = None,
) -> float:
    """Estimate ``V(F(A)) / V(F*)`` for a weight matrix ``W``.

    A normalized point ``x`` is feasible iff ``W x <= 1`` for every node.
    With a normalized ``lower_bound`` ``B̂``, sampling happens inside the
    *shifted* ideal simplex ``{x >= B̂, sum x <= 1}`` and the returned
    fraction is relative to that restricted ideal region (the workload-set
    restriction of Section 6.1).  Returns 0.0 when the lower bound itself
    lies on or outside the ideal hyperplane.
    """
    w = _prepare_weights(weights)
    if samples < 1:
        raise ValueError("need at least one sample")
    bound, scale = _prepare_bound(lower_bound, w.shape[1])
    if bound is not None and scale <= 0.0:
        return 0.0
    points = sample_unit_simplex(samples, w.shape[1], method=method, seed=seed)
    return _feasible_count(w, points, bound, scale) / samples


def binding_axis_order(weights: np.ndarray) -> np.ndarray:
    """Axes ordered by how strongly they bind feasibility, most first.

    An axis (rate variable) ``k`` binds feasibility through the largest
    weight any node places on it: the half-space ``W_i x <= 1`` clips
    the simplex along axis ``k`` at ``1 / w_ik``, so
    ``score_k = max_i w_ik`` measures how much of the ideal extent the
    tightest node leaves.  Ties break toward the lower axis index so the
    order is deterministic.
    """
    w = _prepare_weights(weights)
    scores = w.max(axis=0) if w.shape[0] else np.zeros(w.shape[1])
    # stable sort on negated scores: descending score, ascending index.
    return np.argsort(-scores, kind="stable")


def axis_sampled_fraction(
    weights: np.ndarray,
    samples: int = 4096,
    axis_budget: int = 16,
    seed: int = 0,
    lower_bound: Optional[Sequence[float]] = None,
) -> Tuple[float, float]:
    """High-d volume ratio via importance-weighted axis-sampled QMC.

    Halton bases are a finite resource: in very high dimension the late
    (large-prime) coordinates of a Halton point correlate badly before
    astronomically many samples.  This estimator spends the
    low-discrepancy budget where it matters — the ``axis_budget`` axes
    that bind feasibility hardest (see :func:`binding_axis_order`) get
    the first Halton bases — and fills the remaining axes with seeded
    pseudo-random uniforms.  The mixed cube maps through the same
    spacings construction, so the estimate is still unbiased; what
    changes is *which* axes enjoy QMC's accelerated convergence.

    Returns ``(fraction, se)``.  The standard error comes from treating
    each 512-point block as one replicate and taking the spread of the
    per-block fractions — an honest empirical error bar, because the
    pseudo-random axes re-randomize every block.  With a single block it
    falls back to a Laplace-smoothed binomial estimate.

    This estimator is **opt-in** (nothing routes through it by default):
    its point stream differs from :func:`feasible_fraction`'s, so it is
    *not* bit-identical to the reference path.  Use it when ``d`` is
    large enough (≳ 48) that full-dimensional Halton degrades.
    """
    w = _prepare_weights(weights)
    if samples < 1:
        raise ValueError("need at least one sample")
    if axis_budget < 1:
        raise ValueError("axis_budget must be >= 1")
    dimension = w.shape[1]
    bound, scale = _prepare_bound(lower_bound, dimension)
    if bound is not None and scale <= 0.0:
        return 0.0, 0.0
    axis_budget = min(axis_budget, dimension)
    order = binding_axis_order(w)
    qmc_axes = order[:axis_budget]
    rng = np.random.default_rng(seed)

    seen = 0
    count = 0
    block_fractions: List[float] = []
    while seen < samples:
        take = min(_AXIS_BLOCK, samples - seen)
        cube = rng.random((take, dimension))
        cube[:, qmc_axes] = halton(take, axis_budget, skip=seen)
        points = simplex_from_cube(cube)
        block = _feasible_count(w, points, bound, scale)
        count += block
        block_fractions.append(block / take)
        seen += take
    fraction = count / seen
    if len(block_fractions) > 1:
        spread = float(np.std(block_fractions, ddof=1))
        se = spread / math.sqrt(len(block_fractions))
    else:
        # Single block: fall back to the binomial heuristic.
        smoothed = (count + 1.0) / (seen + 2.0)
        se = math.sqrt(smoothed * (1.0 - smoothed) / seen)
    return fraction, se
