"""Placer adapter around the ROD algorithm.

Lets the experiment harness treat ROD uniformly with the baselines of
Section 7.2.  ROD needs neither a rate point nor a rate history.  With
an enabled tracer it emits one ``placement.step`` event per greedy
assignment; timing the placement is the caller's
:class:`~repro.obs.timer.PhaseTimer`'s job.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.load_model import LoadModel
from ..core.plans import Placement
from ..core.rod import RodStep, rod_place
from ..obs.trace import NULL_TRACER, Tracer
from .base import Placer

__all__ = ["RODPlacer"]


def _emit_rod_steps(tracer: Tracer, steps: Sequence[RodStep]) -> None:
    """Emit one ``placement.step`` trace event per greedy assignment."""
    for index, step in enumerate(steps):
        tracer.emit(
            "placement.step",
            algorithm="rod",
            index=index,
            operator=step.operator,
            node=step.node,
            class_one_size=len(step.class_one),
            chosen_from_class_one=step.chosen_from_class_one,
        )


class RODPlacer(Placer):
    """Resilient Operator Distribution as a :class:`Placer`."""

    name = "rod"

    def __init__(
        self,
        lower_bound: Optional[Sequence[float]] = None,
        class_one_policy: str = "plane",
        seed: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.lower_bound = lower_bound
        self.class_one_policy = class_one_policy
        self.seed = seed
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def place(
        self, model: LoadModel, capacities: Sequence[float]
    ) -> Placement:
        self._validated(model, capacities)
        tracing = self.tracer.enabled
        steps: Optional[List[RodStep]] = [] if tracing else None
        placement = rod_place(
            model,
            capacities,
            lower_bound=self.lower_bound,
            class_one_policy=self.class_one_policy,
            seed=self.seed,
            steps=steps,
        )
        if steps is not None:
            _emit_rod_steps(self.tracer, steps)
        return placement
