"""Simulated-annealing placement: direct feasible-volume search.

A third yardstick for ROD, complementing the exhaustive search (exact
but capped at ~15 operators) and the MILP (scales further but optimizes
balance, not volume): anneal over assignments with the QMC volume ratio
as the objective, evaluated against one fixed set of low-discrepancy
sample points so all candidate plans are scored on identical ground.

Moves reassign one random operator to a random other node; temperature
decays geometrically.  Starting from ROD's plan measures how much *pure
search time* improves on the greedy answer; starting from random
measures how much the greedy structure itself is worth.

Scoring is *incremental*.  A candidate's weight-matrix row for node
``i`` is ``w_i = (L^n_i / l) / (C_i / C_T)``, and a sample ``x`` is
feasible iff ``x . w_i <= 1`` for every node — equivalently, iff the
*unscaled* per-node dot ``x . (L^n_i / l)`` stays below the node's
capacity share.  Because ``L^n_i`` is a sum of operator rows, that dot
is a sum of per-operator dots ``x . (L^o_j / l)``, which depend on
neither the assignment nor the node.  So the placer computes all
``samples x m`` operator dots once (one matmul), keeps per-node dot
columns plus a per-sample count of violated nodes, and updates a move
by adding/subtracting one operator-dot column on the source and target
nodes — ``O(samples)`` per iteration instead of the full
``O(samples * n * d)`` rescoring matmul, with bit-identical acceptance
decisions for the same seed.

With ``score_batch=K > 1`` the search draws K proposals per round,
scores them all from the *current* state in one vectorized pass, then
walks them in draw order and applies the first accepted move; the
round's remaining proposals are discarded because their scores went
stale the moment one was applied.  The default ``score_batch=1`` keeps
the classic one-proposal-per-iteration loop bit-identical to previous
releases.

``total_capacity`` overrides the denominator ``C_T`` of the capacity
shares.  The hierarchical placer uses this to refine a node *group*
in isolation while scoring against the cluster-wide normalization, so
per-group volume ratios remain comparable across groups.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.load_model import LoadModel
from ..core.plans import Placement
from ..core.rod import rod_place
from ..core.volume import qmc
from ..obs.trace import NULL_TRACER, Tracer
from .base import Placer

__all__ = ["AnnealingPlacer"]


class AnnealingPlacer(Placer):
    """Metropolis search over placements, maximizing QMC volume ratio."""

    name = "annealing"

    def __init__(
        self,
        iterations: int = 5000,
        samples: int = 2048,
        initial_temperature: float = 0.05,
        cooling: float = 0.999,
        start: str = "rod",
        seed: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        trace_every: int = 250,
        score_batch: int = 1,
        total_capacity: Optional[float] = None,
        initial_assignment: Optional[Sequence[int]] = None,
        sample_mask: Optional[np.ndarray] = None,
    ) -> None:
        """``start`` is ``"rod"`` (polish the greedy plan) or
        ``"random"`` (search from scratch).  With a ``tracer``, a
        ``placement.iteration`` event is emitted every ``trace_every``
        iterations and whenever the search finds a new best plan.
        ``score_batch`` draws and scores K proposals per round (first
        accepted wins).  ``total_capacity`` overrides the normalization
        denominator ``C_T`` (hierarchical refinement scores a node group
        against the cluster-wide total).
        ``initial_assignment`` overrides ``start`` with an explicit
        warm-start assignment.  ``sample_mask`` (bool per sample)
        excludes masked-out samples from the objective — the
        hierarchical placer masks samples already infeasible *outside*
        the group being refined, so each group optimizes the global
        feasible count rather than its local one."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if not 0 < cooling <= 1:
            raise ValueError("cooling must be in (0, 1]")
        if initial_temperature < 0:
            raise ValueError("initial temperature must be >= 0")
        if start not in ("rod", "random"):
            raise ValueError(f"unknown start {start!r}")
        if trace_every < 1:
            raise ValueError("trace_every must be >= 1")
        if score_batch < 1:
            raise ValueError("score_batch must be >= 1")
        if total_capacity is not None and total_capacity <= 0:
            raise ValueError("total_capacity must be > 0")
        if sample_mask is not None:
            sample_mask = np.asarray(sample_mask, dtype=bool)
            if sample_mask.shape != (samples,):
                raise ValueError(
                    f"sample mask shape {sample_mask.shape} does not "
                    f"match samples={samples}"
                )
        self.iterations = iterations
        self.samples = samples
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.start = start
        self.seed = seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_every = trace_every
        self.score_batch = score_batch
        self.total_capacity = total_capacity
        self.initial_assignment = (
            None if initial_assignment is None
            else tuple(int(i) for i in initial_assignment)
        )
        self.sample_mask = sample_mask

    def place(
        self, model: LoadModel, capacities: Sequence[float]
    ) -> Placement:
        caps = self._validated(model, capacities)
        n = caps.shape[0]
        if n == 1:
            # Only one assignment exists; nothing to search.
            return rod_place(model, caps)
        m = model.num_operators
        rng = random.Random(self.seed)
        samples = self.samples
        totals = model.column_totals()
        safe_totals = np.where(totals > 1e-12, totals, 1.0)
        total_capacity = (
            self.total_capacity
            if self.total_capacity is not None
            else float(caps.sum())
        )
        capacity_share = caps / total_capacity
        # Fixed evaluation points: identical ground for every candidate.
        points = qmc.sample_unit_simplex(
            samples, model.num_variables, method="halton"
        )

        if self.initial_assignment is not None:
            if len(self.initial_assignment) != m:
                raise ValueError(
                    f"initial assignment covers "
                    f"{len(self.initial_assignment)} operators but the "
                    f"model has {m}"
                )
            assignment = list(self.initial_assignment)
        elif self.start == "rod":
            assignment = list(rod_place(model, caps).assignment)
        else:
            assignment = [rng.randrange(n) for _ in range(m)]

        # Assignment-independent per-operator dots: column j holds
        # x . (L^o_j / l) for every sample x.  One matmul, reused by all
        # self.iterations candidate evaluations.
        op_share = model.coefficients / safe_totals
        op_share[:, totals <= 1e-12] = 0.0
        op_dots = np.asfortranarray(points @ op_share.T)
        # Feasibility of node i at sample x:
        #   (x . sum_{j on i} op_share_j) / capacity_share_i <= 1 + eps
        # folded into a per-node threshold on the unscaled dot.
        thresholds = (1.0 + 1e-12) * capacity_share

        # Per-node dot columns, per-node violation flags, and the
        # per-sample count of violated nodes — the full scoring state.
        node_dots = np.zeros((samples, n), order="F")
        for j, node in enumerate(assignment):
            node_dots[:, node] += op_dots[:, j]
        violations = np.empty((samples, n), dtype=np.int8, order="F")
        for i in range(n):
            violations[:, i] = node_dots[:, i] > thresholds[i]
        violation_count = violations.sum(axis=1, dtype=np.int16)
        if self.sample_mask is not None:
            # Masked-out samples carry a permanent phantom violation:
            # every incremental delta still applies, but they can never
            # count as feasible, so the objective becomes the feasible
            # count *within the mask* with no extra bookkeeping.
            violation_count += np.logical_not(self.sample_mask)

        current = float(samples - np.count_nonzero(violation_count)) / samples
        best = current
        best_assignment = tuple(assignment)
        temperature = self.initial_temperature
        tracer = self.tracer
        tracing = tracer.enabled

        if self.score_batch > 1:
            return self._place_batched(
                model, caps, rng, assignment, op_dots, thresholds,
                node_dots, violations, violation_count, current,
            )

        def emit_iteration(iteration: int, improved: bool) -> None:
            tracer.emit(
                "placement.iteration",
                algorithm="annealing",
                iteration=iteration,
                current=current,
                best=best,
                temperature=temperature,
                improved=improved,
            )

        for iteration in range(self.iterations):
            j = rng.randrange(m)
            source = assignment[j]
            target = rng.randrange(n - 1)
            if target >= source:
                target += 1
            moved = op_dots[:, j]
            source_dots = node_dots[:, source] - moved
            target_dots = node_dots[:, target] + moved
            source_viol = source_dots > thresholds[source]
            target_viol = target_dots > thresholds[target]
            # int8 view of the bool flags: same bytes, subtractable.
            count_delta = np.subtract(
                source_viol.view(np.int8), violations[:, source]
            )
            count_delta += target_viol.view(np.int8)
            count_delta -= violations[:, target]
            new_count = violation_count + count_delta
            candidate = float(samples - np.count_nonzero(new_count)) / samples
            delta = candidate - current
            improved = False
            if delta >= 0 or (
                temperature > 0
                and rng.random() < math.exp(delta / temperature)
            ):
                assignment[j] = target
                current = candidate
                node_dots[:, source] = source_dots
                node_dots[:, target] = target_dots
                violations[:, source] = source_viol.view(np.int8)
                violations[:, target] = target_viol.view(np.int8)
                violation_count = new_count
                if current > best:
                    best = current
                    best_assignment = tuple(assignment)
                    improved = True
            temperature *= self.cooling
            if tracing and (improved or iteration % self.trace_every == 0):
                emit_iteration(iteration, improved)

        return Placement(
            model=model, capacities=caps, assignment=best_assignment
        )

    def _place_batched(
        self,
        model: LoadModel,
        caps: np.ndarray,
        rng: random.Random,
        assignment: List[int],
        op_dots: np.ndarray,
        thresholds: np.ndarray,
        node_dots: np.ndarray,
        violations: np.ndarray,
        violation_count: np.ndarray,
        current: float,
    ) -> Placement:
        """Metropolis search scoring ``score_batch`` proposals per round.

        Each round draws K independent proposals from the current state,
        scores them all in one vectorized pass, then walks the proposals
        in draw order and applies the *first* one that passes the
        acceptance test; the rest are discarded, their scores having
        gone stale.  Temperature decays once per scored proposal, so a
        run of ``iterations`` proposals explores the same cooling
        schedule as the classic loop, just K at a time.
        """
        n = caps.shape[0]
        m = model.num_operators
        samples = self.samples
        batch = self.score_batch
        best = current
        best_assignment = tuple(assignment)
        temperature = self.initial_temperature
        tracer = self.tracer
        tracing = tracer.enabled
        proposals_scored = 0

        while proposals_scored < self.iterations:
            take = min(batch, self.iterations - proposals_scored)
            moves: List[Tuple[int, int, int]] = []
            for _ in range(take):
                j = rng.randrange(m)
                source = assignment[j]
                target = rng.randrange(n - 1)
                if target >= source:
                    target += 1
                moves.append((j, source, target))

            # Vectorized over the whole batch: gather the touched
            # columns side by side and count violated samples per
            # candidate in one pass.
            js = np.fromiter(
                (mv[0] for mv in moves), dtype=np.intp, count=take
            )
            sources = np.fromiter(
                (mv[1] for mv in moves), dtype=np.intp, count=take
            )
            targets = np.fromiter(
                (mv[2] for mv in moves), dtype=np.intp, count=take
            )
            moved_cols = op_dots[:, js]
            source_viols = (
                node_dots[:, sources] - moved_cols
            ) > thresholds[sources]
            target_viols = (
                node_dots[:, targets] + moved_cols
            ) > thresholds[targets]
            # Summed in the count's dtype: int8 would wrap a sample
            # violated on 256 nodes to zero, a feasible score.
            deltas = np.subtract(
                source_viols.view(np.int8), violations[:, sources],
                dtype=violation_count.dtype,
            )
            deltas += target_viols.view(np.int8)
            deltas -= violations[:, targets]
            deltas += violation_count[:, None]
            counts = np.count_nonzero(deltas, axis=0)

            # The whole batch was scored, whether or not the walk below
            # reaches every proposal — all of it counts against the
            # iteration budget.
            proposals_scored += take
            improved = False
            walked = 0
            for (j, source, target), bad in zip(moves, counts):
                walked += 1
                candidate = float(samples - bad) / samples
                delta = candidate - current
                accept = delta >= 0 or (
                    temperature > 0
                    and rng.random() < math.exp(delta / temperature)
                )
                temperature *= self.cooling
                if not accept:
                    continue
                # Apply the accepted move and close the round: every
                # later proposal was scored against a stale state.
                moved = op_dots[:, j]
                node_dots[:, source] -= moved
                node_dots[:, target] += moved
                source_viol = node_dots[:, source] > thresholds[source]
                target_viol = node_dots[:, target] > thresholds[target]
                count_delta = np.subtract(
                    source_viol.view(np.int8), violations[:, source]
                )
                count_delta += target_viol.view(np.int8)
                count_delta -= violations[:, target]
                violation_count += count_delta
                violations[:, source] = source_viol.view(np.int8)
                violations[:, target] = target_viol.view(np.int8)
                assignment[j] = target
                current = candidate
                if current > best:
                    best = current
                    best_assignment = tuple(assignment)
                    improved = True
                break
            # Proposals past the accepted one were scored but never
            # walked; keep the cooling schedule a function of proposals
            # *scored* so batch size does not stretch the search.
            if walked < take:
                temperature *= self.cooling ** (take - walked)
            if tracing and (
                improved
                or (proposals_scored // batch) % self.trace_every == 0
            ):
                tracer.emit(
                    "placement.iteration",
                    algorithm="annealing",
                    iteration=proposals_scored,
                    current=current,
                    best=best,
                    temperature=temperature,
                    improved=improved,
                )

        return Placement(
            model=model, capacities=caps, assignment=best_assignment
        )
