"""High-level deployment facade.

Ties the whole pipeline — linearize, (optionally) cluster, place,
analyze, simulate, grow — behind one object, so the common path is three
lines:

>>> from repro.deploy import Deployment
>>> from repro.graphs import monitoring_graph
>>> deployment = Deployment.plan(monitoring_graph(2, seed=1), [1.0, 1.0])
>>> 0.0 < deployment.volume_ratio() <= 1.0
True

Everything the facade does is available piecemeal in ``repro.core`` /
``repro.placement`` / ``repro.simulator``; this module only composes.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from .check import check_artifact
from .core.analysis import resilience_summary
from .core.clustering import communication_feasible_set, search_clusterings
from .core.load_model import LoadModel, build_load_model
from .core.plans import Placement
from .core.rod import rod_extend
from .graphs.query_graph import QueryGraph, TransferCosts
from .obs import Observability
from .obs.runs import Recording, config_digest
from .placement import RODPlacer
from .placers import build_placer
from .simulator.engine import Simulator
from .simulator.feasibility import FeasibilityProbe
from .simulator.metrics import SimulationResult

__all__ = ["Deployment"]


def _digest_array(array: np.ndarray) -> str:
    """Short content hash of a rate series for run manifests."""
    return config_digest(array.tolist())


def _charges_transfer(graph: QueryGraph, costs: TransferCosts) -> bool:
    """Whether shipping some stream between nodes costs CPU; validates
    ``costs`` against ``graph``."""
    return any(cost > 0 for cost in graph.transfer_costs(costs).values())


class Deployment:
    """A placed query graph plus everything you do with it afterwards."""

    def __init__(
        self,
        placement: Placement,
        transfer_costs: TransferCosts = 0.0,
        obs: Optional[Observability] = None,
    ) -> None:
        self.placement = placement
        self.transfer_costs = transfer_costs
        #: Observability bundle (metrics registry + tracer) every phase
        #: of this deployment records into; defaults to a fresh registry
        #: with tracing disabled.
        self.obs = obs if obs is not None else Observability()

    # ------------------------------------------------------------- planning

    @classmethod
    def plan(
        cls,
        graph: QueryGraph,
        capacities: Sequence[float],
        strategy: str = "rod",
        lower_bound: Optional[Sequence[float]] = None,
        transfer_costs: TransferCosts = 0.0,
        cluster: Optional[bool] = None,
        seed: Optional[int] = None,
        verify: bool = True,
        obs: Optional[Observability] = None,
    ) -> "Deployment":
        """Plan a deployment of ``graph`` onto a cluster.

        ``strategy`` names the placement algorithm, one of
        :data:`repro.placers.PLACERS` (``"rod"`` by default).
        Non-linear graphs are linearized automatically.  When
        ``transfer_costs`` are non-zero, operator clustering (Section
        6.3) runs before ROD by default (``cluster=None`` means "auto");
        pass ``cluster=False`` to skip it or ``cluster=True`` to force
        it.  Clustering is only supported with the ROD strategy.

        With ``verify=True`` (the default) the static verifiers of
        :mod:`repro.check` gate both ends of planning: the graph and
        derived load model before placement, the finished plan after.
        Error-severity diagnostics raise
        :class:`~repro.check.CheckError` instead of surfacing later as
        NumPy shape errors or silently-wrong volumes.

        ``obs``, if given, profiles every planning phase (model build,
        verification, placement search) into its metrics registry and —
        when its tracer is enabled — streams per-assignment
        ``placement.step`` events; the resulting deployment keeps the
        bundle, so ``summary()`` reports where planning time went.
        """
        obs = obs if obs is not None else Observability()
        with obs.phase("plan.load_model"):
            model = build_load_model(graph)
        if verify:
            with obs.phase("plan.verify_model"):
                check_artifact(model).raise_if_errors()
        nonzero_transfer = _charges_transfer(graph, transfer_costs)
        use_clustering = (
            nonzero_transfer if cluster is None else bool(cluster)
        )
        if use_clustering and strategy != "rod":
            raise ValueError(
                "operator clustering is only supported with the ROD "
                "strategy"
            )
        if use_clustering and not nonzero_transfer:
            raise ValueError(
                "clustering was requested but transfer costs are zero"
            )
        if strategy == "rod":
            if use_clustering:
                with obs.phase("plan.place.rod+clustering"):
                    result = search_clusterings(
                        model,
                        capacities,
                        transfer_costs,
                        lower_bound=lower_bound,
                    )
                    placement = result.placement
            else:
                with obs.phase("plan.place.rod"):
                    placement = RODPlacer(
                        lower_bound=lower_bound, seed=seed,
                        tracer=obs.tracer,
                    ).place(model, capacities)
        else:
            if lower_bound is not None:
                raise ValueError(
                    "lower bounds are only supported with the ROD strategy"
                )
            placer = build_placer(strategy, model, seed, tracer=obs.tracer)
            with obs.phase(f"plan.place.{strategy}"):
                placement = placer.place(model, capacities)
        if verify:
            with obs.phase("plan.verify_plan"):
                check_artifact(placement).raise_if_errors()
        return cls(placement, transfer_costs=transfer_costs, obs=obs)

    def grow(self, new_graph: QueryGraph) -> "Deployment":
        """Add new operators without moving deployed ones (rod_extend).

        A floored deployment keeps each old variable's floor, matched by
        name; a new variable (a new input or cut stream) gets a floor
        of 0.
        """
        with self.obs.phase("plan.grow"):
            new_model = build_load_model(new_graph)
            lower_bound = self.placement.lower_bound
            if lower_bound is not None:
                floors = dict(zip(self.model.variables, lower_bound))
                lower_bound = np.array([
                    floors.get(name, 0.0) for name in new_model.variables
                ])
            extended = rod_extend(
                self.placement, new_model, lower_bound=lower_bound
            )
        return Deployment(
            extended, transfer_costs=self.transfer_costs, obs=self.obs
        )

    # -------------------------------------------------------------- metrics

    @property
    def model(self) -> LoadModel:
        return self.placement.model

    def volume_ratio(self, samples: int = 4096) -> float:
        """Feasible-set size relative to the ideal, communication-aware
        when transfer costs were declared.

        The QMC sampling is profiled as the ``feasible_set.volume_ratio``
        phase (sample count attached to the trace event).
        """
        with self.obs.phase(
            "feasible_set.volume_ratio", samples=samples
        ):
            if _charges_transfer(self.model.graph, self.transfer_costs):
                return communication_feasible_set(
                    self.placement, self.transfer_costs
                ).volume_ratio(samples=samples)
            return self.placement.volume_ratio(samples=samples)

    def summary(self) -> str:
        """Placement, resilience analysis, headline metrics and — when
        phases were profiled — where the wall-clock time went."""
        parts = [self.placement.describe(), ""]
        parts.append(resilience_summary(self.placement))
        parts.append("")
        parts.append(
            f"feasible-set ratio to ideal: {self.volume_ratio():.4f}"
        )
        if _charges_transfer(self.model.graph, self.transfer_costs):
            parts.append(
                f"inter-node arcs: {self.placement.inter_node_arcs()}"
            )
        profile = self.obs.phase_report()
        if profile:
            parts.append("")
            parts.append("profile (wall-clock per phase):")
            parts.append(profile)
        return "\n".join(parts)

    # ------------------------------------------------------------ execution

    def simulate(
        self,
        rate_series: Optional[np.ndarray] = None,
        rates: Optional[Sequence[float]] = None,
        duration: Optional[float] = None,
        trace_out: Optional[str] = None,
        runs_root: Optional[str] = None,
        run_id: Optional[str] = None,
        run_labels: Optional[Mapping[str, str]] = None,
        **simulator_kwargs,
    ) -> SimulationResult:
        """Replay a workload through the discrete-event simulator.

        ``trace_out`` names a JSONL file to stream the run's structured
        events to (see :mod:`repro.obs.trace`); parse it back with
        :func:`repro.obs.read_trace` and render it with
        ``repro.obs.timeline`` or ``repro-rod trace``.  Without it, the
        deployment's own tracer applies (disabled by default, so the
        simulator hot path pays nothing).  Run counters land in
        ``self.obs.registry`` either way.

        ``runs_root`` records the whole invocation as a run directory in
        the run registry (:mod:`repro.obs.runs`): a provenance manifest,
        the JSONL trace (written there automatically unless
        ``trace_out`` or an explicit ``tracer`` claimed the stream), the
        ``result.json`` metrics snapshot and the registry dump.  Browse
        with ``repro-rod runs list``, diff with ``repro-rod compare``,
        render with ``repro-rod report``.  ``run_id`` overrides the
        generated timestamp-digest id; ``run_labels`` attaches free-form
        provenance labels.  The snapshot is the one ``repro-rod simulate
        --record`` writes: unless an explicit ``tracer`` claimed the
        stream, the events are kept in memory as they are written, and
        their critical-path, decision and drift sections join it; a run
        whose trace went to its directory also gets the ``analysis.json``
        that ``explain`` and ``why`` render.
        """
        tracer = simulator_kwargs.pop("tracer", None)
        if trace_out is not None and tracer is not None:
            raise ValueError(
                "pass either trace_out or an explicit tracer, not both"
            )
        config: dict = {}
        if runs_root is not None:
            config = {
                "graph": self.model.graph.name,
                "step_seconds": simulator_kwargs.get("step_seconds", 0.1),
                "scheduling": simulator_kwargs.get("scheduling", "fifo"),
                "arrival_kind": simulator_kwargs.get(
                    "arrival_kind", "deterministic"
                ),
            }
            if rates is not None:
                config["rates"] = [float(r) for r in rates]
                config["duration"] = duration
            elif rate_series is not None:
                series = np.asarray(rate_series, dtype=float)
                config["rate_series_shape"] = list(series.shape)
                config["rate_series_digest"] = _digest_array(series)
        metrics = simulator_kwargs.pop("metrics", self.obs.registry)
        with Recording(
            runs_root, "simulate", config, trace_out=trace_out,
            traced=tracer is None,
            keep_events=runs_root is not None and tracer is None,
            run_id=run_id, seed=simulator_kwargs.get("seed"),
            placement=self.placement.to_document(), labels=run_labels,
        ) as run:
            simulator = Simulator(
                self.placement,
                transfer_costs=self.transfer_costs,
                tracer=tracer or run.tracer or self.obs.tracer,
                metrics=metrics,
                **simulator_kwargs,
            )
            with self.obs.phase("simulator.run"):
                result = simulator.run(
                    rate_series=rate_series, rates=rates, duration=duration
                )
            if run.writer is not None:
                run.finish_simulation(result, metrics)
        return result

    def probe(
        self,
        input_rates: Sequence[float],
        duration: float = 10.0,
    ) -> bool:
        """Borealis-style feasibility probe at a constant rate point."""
        probe = FeasibilityProbe(
            duration=duration,
            transfer_costs=self.transfer_costs,
            tracer=self.obs.tracer,
        )
        with self.obs.phase("feasibility.probe"):
            return probe.is_feasible(self.placement, input_rates)

    def __repr__(self) -> str:
        return (
            f"Deployment({self.model.graph.name!r}, "
            f"nodes={self.placement.num_nodes}, "
            f"operators={self.model.num_operators})"
        )
