"""Feasible sets of operator distribution plans (Section 2.3).

A :class:`FeasibleSet` packages a node load coefficient matrix ``L^n``, a
capacity vector ``C`` and (optionally) a workload lower bound ``B`` and
answers every question the paper asks of it: point feasibility, node
utilizations, the normalized weight matrix and its axis/plane distances,
and the feasible-set volume both as a QMC ratio to the ideal set and —
for small dimensions — exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import geometry
from .volume import polytope, qmc

__all__ = ["FeasibleSet"]


@dataclass(frozen=True)
class FeasibleSet:
    """The set ``{R in D : L^n R <= C}`` with ``D = {R >= B}``.

    Attributes
    ----------
    node_coefficients:
        ``L^n``, shape ``(n, d)``.
    capacities:
        ``C``, shape ``(n,)``.
    column_totals:
        ``l_k`` — total load coefficient per variable across *all*
        operators.  Defaults to the column sums of ``L^n``, which is exact
        whenever the plan places every operator.
    lower_bound:
        Physical rate floor ``B`` (Section 6.1); defaults to the origin.
    """

    node_coefficients: np.ndarray
    capacities: np.ndarray
    column_totals: np.ndarray = field(default=None)  # type: ignore[assignment]
    lower_bound: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        ln = np.asarray(self.node_coefficients, dtype=float)
        if ln.ndim != 2:
            raise ValueError(f"L^n must be 2-D, got shape {ln.shape}")
        if np.any(ln < 0):
            raise ValueError("load coefficients must be >= 0")
        c = geometry.validate_capacities(self.capacities)
        if c.shape[0] != ln.shape[0]:
            raise ValueError(
                f"L^n has {ln.shape[0]} rows but C has {c.shape[0]} entries"
            )
        totals = (
            ln.sum(axis=0)
            if self.column_totals is None
            else np.asarray(self.column_totals, dtype=float)
        )
        if totals.shape != (ln.shape[1],):
            raise ValueError(
                f"column totals shape {totals.shape} "
                f"does not match d={ln.shape[1]}"
            )
        bound = self.lower_bound
        if bound is not None:
            bound = np.asarray(bound, dtype=float)
            if bound.shape != (ln.shape[1],):
                raise ValueError(
                    f"lower bound shape {bound.shape} "
                    f"does not match d={ln.shape[1]}"
                )
            if np.any(bound < 0):
                raise ValueError("lower bound must be >= 0")
        object.__setattr__(self, "node_coefficients", ln)
        object.__setattr__(self, "capacities", c)
        object.__setattr__(self, "column_totals", totals)
        object.__setattr__(self, "lower_bound", bound)

    # ------------------------------------------------------------ dimensions

    @property
    def num_nodes(self) -> int:
        return self.node_coefficients.shape[0]

    @property
    def dimension(self) -> int:
        return self.node_coefficients.shape[1]

    @property
    def total_capacity(self) -> float:
        return float(self.capacities.sum())

    # --------------------------------------------------------- feasibility

    def node_loads(self, rates: Sequence[float]) -> np.ndarray:
        """``L^n R`` — CPU demand per node at rate point ``R``."""
        r = np.asarray(rates, dtype=float)
        if r.shape != (self.dimension,):
            raise ValueError(
                f"expected {self.dimension} rates, got shape {r.shape}"
            )
        return self.node_coefficients @ r

    def utilizations(self, rates: Sequence[float]) -> np.ndarray:
        """Per-node load / capacity; feasible points have all entries <= 1."""
        return self.node_loads(rates) / self.capacities

    def is_feasible(self, rates: Sequence[float], slack: float = 0.0) -> bool:
        """Whether no node is overloaded at ``R`` (within ``slack``)."""
        in_domain = (
            True
            if self.lower_bound is None
            else bool(np.all(np.asarray(rates, float) >= self.lower_bound - 1e-12))
        )
        return in_domain and bool(
            np.all(self.utilizations(rates) <= 1.0 + slack)
        )

    def bottleneck(self, rates: Sequence[float]) -> int:
        """Index of the most-utilized node at ``R``."""
        return int(np.argmax(self.utilizations(rates)))

    # ------------------------------------------------------------- geometry

    def weights(self) -> np.ndarray:
        """Normalized weight matrix ``W`` (Section 3.3)."""
        return geometry.weight_matrix(
            self.node_coefficients, self.capacities, self.column_totals
        )

    def plane_distance(self) -> float:
        """MMPD objective ``r``: distance of the closest node hyperplane.

        Measured from the normalized lower bound when one is set
        (Section 6.1), from the origin otherwise.
        """
        w = self.weights()
        if self.lower_bound is None:
            return geometry.min_plane_distance(w)
        b_hat = self.normalized_lower_bound()
        return float(np.min(geometry.plane_distance_from_point(w, b_hat)))

    def axis_distances(self) -> np.ndarray:
        """Per-node, per-axis distances ``1/w_ik`` (MMAD's metric)."""
        return geometry.axis_distances(self.weights())

    def min_axis_distances(self) -> np.ndarray:
        """Per-axis minimum over nodes — what MMAD maximizes."""
        return self.axis_distances().min(axis=0)

    def normalized_lower_bound(self) -> np.ndarray:
        """``B̂`` — the lower bound mapped into normalized space."""
        bound = (
            np.zeros(self.dimension)
            if self.lower_bound is None
            else self.lower_bound
        )
        return geometry.normalize_lower_bound(
            bound, self.column_totals, self.total_capacity
        )

    # --------------------------------------------------------------- volume

    def ideal_volume(self) -> float:
        """Volume of the ideal feasible set ``F*`` (Theorem 1)."""
        base = geometry.ideal_volume(self.capacities, self.column_totals)
        if self.lower_bound is None or math.isinf(base):
            return base
        scale = 1.0 - float(self.normalized_lower_bound().sum())
        if scale <= 0:
            return 0.0
        return base * scale ** self.dimension

    def volume_ratio(
        self,
        samples: int = 4096,
        method: str = "halton",
        seed: Optional[int] = None,
    ) -> float:
        """QMC estimate of ``V(F) / V(F*)`` (in ``[0, 1]``); see
        :func:`repro.core.volume.qmc.feasible_fraction`."""
        bound = (
            None if self.lower_bound is None else self.normalized_lower_bound()
        )
        return qmc.feasible_fraction(
            self.weights(),
            samples=samples,
            method=method,
            seed=seed,
            lower_bound=bound,
        )

    def volume_ratio_axis_sampled(
        self,
        samples: int = 4096,
        axis_budget: int = 16,
        seed: int = 0,
    ) -> "tuple[float, float]":
        """Opt-in high-d estimate of ``V(F) / V(F*)``: ``(ratio, se)``.

        Spends the Halton budget on the ``axis_budget`` axes that bind
        feasibility hardest and fills the rest with seeded pseudo-random
        uniforms (see :func:`repro.core.volume.qmc.axis_sampled_fraction`).
        Not bit-identical to :meth:`volume_ratio` — use when the
        dimension is high enough (≳ 48) that full-dimensional Halton
        degrades, and read the returned standard error.
        """
        bound = (
            None if self.lower_bound is None else self.normalized_lower_bound()
        )
        return qmc.axis_sampled_fraction(
            self.weights(),
            samples=samples,
            axis_budget=axis_budget,
            seed=seed,
            lower_bound=bound,
        )

    def volume(
        self,
        samples: int = 4096,
        method: str = "halton",
        seed: Optional[int] = None,
    ) -> float:
        """QMC estimate of the absolute feasible-set volume."""
        ideal = self.ideal_volume()
        if math.isinf(ideal):
            raise ValueError(
                "feasible set is unbounded (some variable carries no load); "
                "only ratios are meaningful"
            )
        return ideal * self.volume_ratio(samples=samples, method=method, seed=seed)

    def exact_volume(self) -> float:
        """Exact volume by vertex enumeration (small ``n + d`` only)."""
        return polytope.feasible_volume(
            self.node_coefficients,
            self.capacities,
            lower_bound=self.lower_bound,
        )

    def exact_volume_ratio(self) -> float:
        """Exact ``V(F) / V(F*)``; requires a bounded ideal set."""
        ideal = self.ideal_volume()
        if math.isinf(ideal):
            raise ValueError("ideal volume is unbounded")
        if math.isclose(ideal, 0.0, abs_tol=1e-300):
            return 0.0
        return self.exact_volume() / ideal

    def vertices(self) -> np.ndarray:
        """Corner points of the feasible polytope (small ``n + d`` only).

        The intersections of node hyperplanes and axes that Figures 5/6
        mark — e.g. a node hyperplane's axis intercept ``C_i / l^n_ik``
        shows up as a vertex when it binds.
        """
        return polytope.polytope_vertices(
            self.node_coefficients, self.capacities
        )
