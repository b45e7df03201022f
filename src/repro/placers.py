"""Placement strategies by name: one table for every front door.

``repro-rod place --algorithm`` takes its choices from :data:`PLACERS`,
``place`` and ``Deployment.plan(strategy=...)`` build through
:func:`build_placer`, and the experiment-config verifier (``REPRO404``)
accepts exactly its names.  The CLI parser reads the names at start-up,
so importing this module loads no placer: :func:`build_placer` imports
:mod:`repro.placement`.  The experiment harnesses build through
:func:`repro.experiments.common.make_placer` instead, which draws a
fresh load point for every run (Section 7.3.1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

if TYPE_CHECKING:
    from .core.load_model import LoadModel
    from .obs.trace import Tracer
    from .placement import Placer

__all__ = ["PLACERS", "build_placer"]

#: Each name's :mod:`repro.placement` class and the settings it takes,
#: in the order ``place --algorithm`` lists them.
PLACERS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "rod": ("RODPlacer", ()),
    "llf": ("LLFPlacer", ()),
    "connected": ("ConnectedPlacer", ()),
    "correlation": ("CorrelationPlacer", ("rate_series",)),
    "random": ("RandomPlacer", ("seed",)),
    "optimal": ("OptimalPlacer", ()),
    "milp": ("MilpBalancePlacer", ("tracer",)),
    "annealing": ("AnnealingPlacer", ("seed", "tracer", "score_batch")),
    "hierarchical": (
        "HierarchicalPlacer", ("group_size", "seed", "score_batch"),
    ),
}


def build_placer(
    name: str,
    model: LoadModel,
    seed: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    score_batch: int = 1,
    group_size: int = 16,
) -> Placer:
    """The placer ``name`` stands for, given the settings it takes; the
    correlation balancer's rate history is 128 steps seeded by ``seed``.

    Raises ``ValueError`` for a name the table does not hold.
    """
    if name not in PLACERS:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {tuple(PLACERS)}"
        )
    from . import placement

    class_name, taken = PLACERS[name]
    settings: Dict[str, object] = dict(
        seed=seed, tracer=tracer, score_batch=score_batch,
        group_size=group_size,
    )
    if "rate_series" in taken:
        from .workload.rates import rate_series

        settings["rate_series"] = rate_series(
            model.num_variables, 128, seed=seed or 0
        )
    return getattr(placement, class_name)(
        **{key: settings[key] for key in taken}
    )
