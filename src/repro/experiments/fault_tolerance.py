"""Fault tolerance: what a node crash costs each placement strategy.

ROD's pitch is resilience to *load* variations, but the same feasible-
set geometry says something about *node* loss: when a node crashes, its
hyperplane row disappears and the surviving cluster's feasible set is
what is left.  This experiment crashes the busiest node of each static
placement mid-run and measures three things:

* **throughput ratio** — sink tuples produced relative to the same
  placement's fault-free run.  Without failover the crashed node's
  operators strand their queues and the ratio collapses; with a
  :class:`~repro.dynamics.FailoverController` the displaced operators
  are reassigned the instant the crash fires.
* **residual volume ratio** — the surviving sub-cluster's feasible-set
  volume against the intact ideal, measured on the post-run assignment
  (:func:`~repro.dynamics.residual_volume_ratio`).  The ``volume``
  failover policy maximizes exactly this quantity.
* **recovery latency** — simulated seconds from the crash to the first
  batch a displaced operator serves on its new node, read from the
  structured trace.  ``None`` when the work never resumes (no failover).

One row per ``(algorithm, variant)``: algorithms are ROD, expected-rate
LLF, and correlation balancing; variants are ``no_fault``, ``crash``
(no controller), and ``crash_failover`` per failover policy.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.load_model import LoadModel
from ..core.plans import Placement
from ..core.rod import rod_place
from ..dynamics import FailoverController, residual_volume_ratio
from ..faults import FaultEvent, FaultSchedule
from ..obs import MemorySink, TraceEvent, Tracer
from ..obs.index import RunIndex
from ..parallel import parallel_map
from ..placement.correlation import CorrelationPlacer
from ..placement.llf import LLFPlacer
from ..simulator.engine import Simulator
from ..workload.rates import rate_series, scale_point_to_utilization
from .common import make_model

__all__ = ["run"]

_ALGORITHMS = ("rod", "llf", "correlation")
_VARIANTS = (
    "no_fault",
    "crash",
    "crash_failover_volume",
    "crash_failover_least_loaded",
)


def _busiest_node(plan: Placement) -> int:
    """The node carrying the most coefficient mass — the worst crash."""
    model = plan.model
    load = [0.0] * plan.num_nodes
    for j, node in enumerate(plan.assignment):
        load[node] += float(model.coefficients[j].sum())
    return max(range(plan.num_nodes), key=lambda n: (load[n], -n))


def _final_assignment(
    plan: Placement, migrations: Sequence[object]
) -> Dict[str, int]:
    assignment = {
        name: int(node)
        for name, node in zip(plan.model.operator_names, plan.assignment)
    }
    for move in migrations:
        assignment[move.operator] = int(move.target)
    return assignment


def _recovery_latency(
    events: Sequence[TraceEvent], displaced: Sequence[str]
) -> Optional[float]:
    """Seconds from the crash to a displaced operator's next batch,
    measured from the latest crash at or before that batch (faults
    precede same-instant completions in the trace)."""
    index = RunIndex(events)
    crashes = [
        fault.t for fault in index.faults
        if fault.kind == "node.crash" and not fault.reverted
    ]
    targets = set(displaced)
    for t, _, _, operator, _, _ in index.work:
        if crashes and operator in targets and float(t) >= crashes[0]:
            return float(t) - crashes[bisect_right(crashes, float(t)) - 1]
    return None


def _simulate(
    plan: Placement,
    rates: Sequence[float],
    duration: float,
    step_seconds: float,
    faults: Optional[FaultSchedule],
    controller: Optional[FailoverController],
):
    sink = MemorySink()
    result = Simulator(
        plan,
        step_seconds=step_seconds,
        faults=faults,
        controller=controller,
        tracer=Tracer(sink),
    ).run(rates=list(rates), duration=duration)
    return result, sink.events


def _build_plan(
    algorithm: str, params: Dict[str, object]
) -> Tuple[LoadModel, List[float], List[float], Placement]:
    """Rebuild (model, capacities, rates, plan) from scalar parameters.

    Pure in ``params`` so every worker process reconstructs the exact
    same placement — the rebuild is what keeps the per-variant tasks
    picklable without shipping model/plan objects across processes.
    """
    seed = int(params["seed"])  # type: ignore[arg-type]
    num_inputs = int(params["num_inputs"])  # type: ignore[arg-type]
    model = make_model(
        num_inputs, int(params["operators_per_tree"]), seed=seed,  # type: ignore[arg-type]
    )
    capacities = [1.0] * int(params["num_nodes"])  # type: ignore[arg-type]
    rates = scale_point_to_utilization(
        model, capacities, [1.0] * num_inputs, float(params["utilization"]),  # type: ignore[arg-type]
    )
    if algorithm == "rod":
        plan = rod_place(model, capacities)
    elif algorithm == "llf":
        plan = LLFPlacer(rates=rates).place(model, capacities)
    elif algorithm == "correlation":
        series = rate_series(model.num_variables, 128, seed=seed)
        plan = CorrelationPlacer(series).place(model, capacities)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    return model, capacities, list(rates), plan


def _variant_task(task: Tuple[str, str, Dict[str, object]]) -> Dict[str, object]:
    """Run one (algorithm, variant) cell from scratch; picklable unit."""
    algorithm, variant, params = task
    model, capacities, rates, plan = _build_plan(algorithm, params)
    duration = float(params["duration"])  # type: ignore[arg-type]
    samples = int(params["samples"])  # type: ignore[arg-type]
    victim = _busiest_node(plan)
    displaced = [
        name
        for name, node in zip(model.operator_names, plan.assignment)
        if node == victim
    ]
    if variant == "no_fault":
        faults = None
    else:
        faults = FaultSchedule([
            FaultEvent(
                time=float(params["crash_fraction"]) * duration,  # type: ignore[arg-type]
                kind="node.crash",
                node=victim,
            )
        ])
    if variant == "crash_failover_volume":
        controller: Optional[FailoverController] = FailoverController(
            policy="volume", samples=samples
        )
    elif variant == "crash_failover_least_loaded":
        controller = FailoverController(policy="least_loaded")
    else:
        controller = None
    result, events = _simulate(
        plan, rates, duration, float(params["step_seconds"]),  # type: ignore[arg-type]
        faults, controller,
    )
    assignment = _final_assignment(plan, result.migrations)
    failed = () if faults is None else (victim,)
    volume = residual_volume_ratio(
        model, capacities, assignment,
        failed_nodes=failed, samples=samples,
    )
    recovery = (
        None if faults is None else _recovery_latency(events, displaced)
    )
    return {
        "algorithm": algorithm,
        "variant": variant,
        "crashed_node": victim if faults is not None else None,
        "tuples_out": result.tuples_out,
        "stranded_tuples": result.stranded_tuples,
        "residual_volume_ratio": volume,
        "recovery_latency_s": recovery,
        "failover_moves": result.migration_count,
    }


def run(
    num_inputs: int = 2,
    operators_per_tree: int = 10,
    num_nodes: int = 3,
    duration: float = 30.0,
    step_seconds: float = 0.1,
    utilization: float = 0.6,
    crash_fraction: float = 0.3,
    samples: int = 512,
    seed: int = 23,
    jobs: int = 1,
) -> List[Dict[str, object]]:
    """One row per (placement algorithm, fault variant).

    ``jobs > 1`` fans the (algorithm, variant) cells out over worker
    processes via :func:`repro.parallel.parallel_map`; every cell is a
    pure function of the scalar parameters, so the rows are identical
    for any ``jobs`` value.
    """
    params: Dict[str, object] = {
        "num_inputs": num_inputs,
        "operators_per_tree": operators_per_tree,
        "num_nodes": num_nodes,
        "duration": duration,
        "step_seconds": step_seconds,
        "utilization": utilization,
        "crash_fraction": crash_fraction,
        "samples": samples,
        "seed": seed,
    }
    tasks = [
        (algorithm, variant, params)
        for algorithm in _ALGORITHMS
        for variant in _VARIANTS
    ]
    raw = parallel_map(_variant_task, tasks, jobs=jobs)
    baselines: Dict[str, int] = {
        str(cell["algorithm"]): int(cell["tuples_out"])  # type: ignore[arg-type]
        for cell in raw
        if cell["variant"] == "no_fault"
    }
    rows: List[Dict[str, object]] = []
    for cell in raw:
        baseline_out = baselines.get(str(cell["algorithm"]), 0)
        rows.append({
            "algorithm": cell["algorithm"],
            "variant": cell["variant"],
            "crashed_node": cell["crashed_node"],
            "tuples_out": cell["tuples_out"],
            "throughput_ratio": (
                int(cell["tuples_out"]) / baseline_out  # type: ignore[arg-type]
                if baseline_out else 0.0
            ),
            "stranded_tuples": cell["stranded_tuples"],
            "residual_volume_ratio": cell["residual_volume_ratio"],
            "recovery_latency_s": cell["recovery_latency_s"],
            "failover_moves": cell["failover_moves"],
        })
    return rows
