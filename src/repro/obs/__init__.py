"""Observability: metrics, structured tracing, profiling, logging.

One consistent instrumentation API threaded through every runtime layer
of the reproduction:

``repro.obs.metrics``
    Zero-dependency metrics registry (counters, gauges, histograms with
    labels) with JSON and Prometheus-text exporters.
``repro.obs.trace``
    Typed structured events written as JSONL, behind a no-op null sink
    so disabled tracing costs nothing on hot paths.
``repro.obs.timer``
    ``perf_counter`` phase timers feeding both the registry and the
    trace stream.
``repro.obs.log``
    The package's configured logger (``repro.*`` namespace); library
    code logs through it instead of ``print()`` (lint rule REPRO505).
``repro.obs.index``
    The read side of the trace format: one pass over a trace's events
    and the typed views every trace reader below builds on.
``repro.obs.timeline``
    Per-node utilization timelines rendered from traces (imported
    lazily by tooling; not re-exported here to keep this package free
    of any dependency on the workload layer).
``repro.obs.runs``
    The run registry: persistent ``runs/<run_id>/`` directories holding
    a provenance manifest, the JSONL trace, a metrics snapshot and the
    flat ``result.json`` the diff engine compares.
``repro.obs.analyze`` / ``repro.obs.diff`` / ``repro.obs.report_html``
    Trace analytics (per-node/per-operator breakdowns, exact latency
    reconstruction), regression diffing between run snapshots, and the
    self-contained HTML run report.  Like ``timeline``, these are
    imported on demand by tooling rather than re-exported here — they
    pull in layers (simulator metrics) this package core must not
    depend on.

:class:`Observability` bundles one registry and one tracer — the unit a
:class:`~repro.deploy.Deployment` owns and threads through planning,
analysis and simulation.
"""

from __future__ import annotations

from typing import Optional

from .log import configure, get_logger
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from .runs import (
    Run,
    RunManifest,
    RunWriter,
    config_digest,
    find_run,
    list_runs,
    load_run,
)
from .schema import (
    EVENT_SCHEMAS,
    METRIC_SCHEMAS,
    EventSchema,
    MetricSchema,
    validate_event,
    validate_metric,
)
from .timer import PHASE_METRIC, PhaseTimer, phase_report
from .trace import (
    EVENT_TYPES,
    JsonlSink,
    MemorySink,
    NullSink,
    NULL_SINK,
    NULL_TRACER,
    TraceFormatError,
    TraceSink,
    Tracer,
    read_trace,
    trace_digest,
)

__all__ = [
    "Counter",
    "EVENT_SCHEMAS",
    "EVENT_TYPES",
    "EventSchema",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "METRIC_SCHEMAS",
    "MemorySink",
    "MetricFamily",
    "MetricSchema",
    "MetricsRegistry",
    "NULL_SINK",
    "NULL_TRACER",
    "NullSink",
    "Observability",
    "PHASE_METRIC",
    "PhaseTimer",
    "Run",
    "RunManifest",
    "RunWriter",
    "TraceFormatError",
    "TraceSink",
    "Tracer",
    "config_digest",
    "configure",
    "find_run",
    "get_logger",
    "list_runs",
    "load_run",
    "phase_report",
    "read_trace",
    "trace_digest",
    "validate_event",
    "validate_metric",
]


class Observability:
    """A metrics registry plus a tracer, passed around as one handle."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def phase(self, name: str, **fields: object) -> PhaseTimer:
        """Time a named phase into the registry and the trace stream."""
        return PhaseTimer(
            name, registry=self.registry, tracer=self.tracer, fields=fields
        )

    def phase_report(self) -> str:
        """Accumulated phase-timing table (``""`` when nothing ran)."""
        return phase_report(self.registry)

    def __repr__(self) -> str:
        return (
            f"Observability(metrics={len(self.registry)}, "
            f"tracing={'on' if self.tracer.enabled else 'off'})"
        )
