"""Exhaustive optimal placement for small instances (Section 7.3.1).

The paper compares ROD against the true volume-maximizing plan "on small
query graphs ... on two nodes", reporting a mean ROD/optimal ratio of 0.95
and a minimum of 0.82.  This placer enumerates every assignment (with a
symmetry reduction for identical nodes) and scores each by exact polytope
volume.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..core.load_model import LoadModel
from ..core.plans import Placement
from ..core.volume import polytope
from .base import Placer

__all__ = ["OptimalPlacer", "enumerate_assignments"]

# Enumerating n^m assignments explodes quickly; refuse clearly above this.
MAX_OPERATORS = 18


def enumerate_assignments(
    num_operators: int, num_nodes: int, homogeneous: bool
) -> Iterator[Tuple[int, ...]]:
    """All operator→node assignments, up to node relabelling if homogeneous.

    For identical nodes the first operator is pinned to node 0 and each
    subsequent operator may only use node indices at most one above the
    highest index used so far — the canonical enumeration of set
    partitions into at most ``num_nodes`` blocks (restricted growth
    strings), which visits each distinct plan exactly once.
    """
    if num_operators < 1:
        raise ValueError("need at least one operator")
    if num_nodes < 1:
        raise ValueError("need at least one node")
    if not homogeneous:
        yield from itertools.product(range(num_nodes), repeat=num_operators)
        return

    def grow(prefix: Tuple[int, ...], max_used: int) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == num_operators:
            yield prefix
            return
        limit = min(max_used + 1, num_nodes - 1)
        for node in range(limit + 1):
            yield from grow(prefix + (node,), max(max_used, node))

    yield from grow((0,), 0)


class OptimalPlacer(Placer):
    """Brute-force feasible-set-volume maximization."""

    name = "optimal"

    def __init__(self, max_operators: int = MAX_OPERATORS) -> None:
        self.max_operators = max_operators

    def place(
        self, model: LoadModel, capacities: Sequence[float]
    ) -> Placement:
        caps = self._validated(model, capacities)
        m = model.num_operators
        if m > self.max_operators:
            raise ValueError(
                f"refusing exhaustive search over {caps.shape[0]}^{m} plans; "
                f"the optimal placer is limited to {self.max_operators} "
                "operators"
            )
        homogeneous = bool(np.all(caps == caps[0]))
        assignment = self._search_exact(model, caps, homogeneous)
        return Placement(
            model=model, capacities=caps, assignment=assignment
        )

    def _search_exact(
        self, model: LoadModel, caps: np.ndarray, homogeneous: bool
    ) -> Tuple[int, ...]:
        """Enumerate plans scoring each by exact polytope volume.

        Consecutive assignments share a prefix, so ``L^n`` is patched
        from per-depth prefix snapshots rather than rebuilt dense from
        zeros for every candidate.  Each snapshot extends the previous
        one by a single ascending-index row add — exactly the arithmetic
        of a from-scratch accumulation, so scores are bit-identical to
        the naive rebuild.
        """
        m = model.num_operators
        n = caps.shape[0]
        best_assignment: Optional[Tuple[int, ...]] = None
        best_score = -np.inf
        # prefix[j] is L^n with operators 0..j-1 placed.
        prefix = [np.zeros((n, model.num_variables))]
        previous: Optional[Tuple[int, ...]] = None
        for assignment in enumerate_assignments(m, n, homogeneous):
            if previous is None:
                shared = 0
            else:
                shared = m
                for j in range(m):
                    if assignment[j] != previous[j]:
                        shared = j
                        break
            del prefix[shared + 1:]
            for j in range(shared, m):
                ln = prefix[-1].copy()
                ln[assignment[j]] += model.coefficients[j]
                prefix.append(ln)
            ln = prefix[-1]
            previous = assignment
            try:
                score = polytope.polytope_volume(ln, caps)
            except ValueError:
                # Unbounded: some variable unloaded on every node can only
                # happen for models with zero-coefficient variables; treat
                # as maximal (constraint-free direction).
                score = np.inf
            if score > best_score:
                best_score = score
                best_assignment = assignment
        assert best_assignment is not None
        return best_assignment
