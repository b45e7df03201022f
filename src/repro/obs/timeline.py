"""Render per-node utilization timelines from simulation traces.

Works entirely from a trace's index (:class:`repro.obs.index.RunIndex`):
the ``sim.start`` header supplies the geometry (node count, step width,
horizon, capacities), the served-work view supplies the CPU-seconds
each node served, and :mod:`repro.workload.textplot` turns the binned
series into terminal sparklines — the Figure-2-style view of where load
actually went.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..workload.textplot import sparkline
from .index import Trace, as_index

__all__ = [
    "busy_totals",
    "utilization_timeline",
    "render_trace_report",
]


def busy_totals(
    events: Trace, num_nodes: Optional[int] = None
) -> np.ndarray:
    """CPU-seconds served per node, summed over the work events.

    Matches ``SimulationResult.node_busy`` exactly: the engine emits one
    work-carrying event per completion, stalls included.
    """
    index = as_index(events)
    totals = np.zeros(
        int(index.meta["nodes"]) if num_nodes is None else num_nodes
    )
    for _, node, work, _, _, _ in index.work:
        totals[node] += work
    return totals


def utilization_timeline(
    events: Trace, step_seconds: Optional[float] = None
) -> np.ndarray:
    """Utilization per ``(time bin, node)``: served CPU-seconds over
    capacity and bin width.

    Bins are ``step_seconds`` wide over ``[0, horizon)``; work completed
    after the horizon folds into the last bin (same convention as the
    engine's ``work_timeline``).  To render a filtered subset against
    the full trace's geometry, pass ``RunIndex(subset, meta=full.meta)``.
    """
    index = as_index(events)
    meta = index.meta
    step = float(step_seconds or meta["step_seconds"])
    if step <= 0:
        raise ValueError("step_seconds must be > 0")
    served = [entry for entry in index.work if entry[0] is not None]
    end = float(meta["horizon"])
    if end <= 0:
        # No horizon known: span the events.
        end = max(float(t) for t, *_ in served) + step if served else step
    steps = max(1, int(round(end / step)))
    timeline = np.zeros((steps, int(meta["nodes"])))
    for t, node, work, _, _, _ in served:
        timeline[min(int(float(t) / step), steps - 1), node] += work
    capacities = np.asarray(meta["capacities"], dtype=float)
    return timeline / (capacities[None, :] * step)


def render_trace_report(events: Trace, width: int = 60) -> str:
    """Human-readable report: counts, per-node timelines, migrations."""
    index = as_index(events)
    if not index.events:
        raise ValueError("cannot render an empty trace")
    if width < 1:
        raise ValueError("width must be >= 1")
    meta = index.meta
    utilization = utilization_timeline(index)
    totals = busy_totals(index)
    capacities = np.asarray(meta["capacities"], dtype=float)
    horizon = float(meta["horizon"])
    if horizon <= 0:
        horizon = utilization.shape[0] * float(meta["step_seconds"])

    parts = [
        f"trace: {len(index.events)} events over "
        f"{horizon:g}s simulated ({meta['nodes']} nodes, "
        f"step {meta['step_seconds']:g}s)",
        "",
        "events by type:",
    ]
    for name, count in sorted(index.type_counts.items()):
        parts.append(f"  {name}: {count}")
    parts.append("")
    parts.append("per-node utilization (served work / capacity):")
    for node in range(int(meta["nodes"])):
        series = utilization[:, node]
        mean_util = totals[node] / (capacities[node] * horizon)
        line = sparkline(series, width=min(width, series.size))
        parts.append(
            f"  node {node} |{line}| "
            f"mean={mean_util:.2f} peak={series.max():.2f}"
        )
    if index.migrations:
        parts.append("")
        parts.append(f"migrations applied ({len(index.migrations)}):")
        parts.extend(
            f"  t={m.t:g}s {m.operator}: node {m.source} -> {m.target} "
            f"(pause {m.pause:g}s)"
            for m in index.migrations
        )
    return "\n".join(parts)
