"""The observability schema registry: declared events and metrics.

Until now the event types the simulator emits, the fields
``repro.obs.analyze`` reads back, and the columns the HTML report
renders agreed only by convention — a renamed field broke the analyzer
silently.  This module is the single declaration both sides import:

* :data:`EVENT_SCHEMAS` — every trace-event type with its required and
  optional field names.  ``repro.obs.trace.EVENT_TYPES`` is derived
  from it.
* :data:`METRIC_SCHEMAS` — every metric family name with its kind and
  label names.

:func:`validate_event` and :func:`validate_metric` raise ``ValueError``
on undeclared names or fields, and ``Tracer(sink, validate=True)``
validates every emission.  ``tests/test_obs_schema.py`` runs every emit
site and metric source through them, so adding an event or metric means
declaring it here first — which is exactly the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple

__all__ = [
    "EventSchema",
    "MetricSchema",
    "EVENT_SCHEMAS",
    "METRIC_SCHEMAS",
    "event_types",
    "validate_event",
    "validate_metric",
    "event_catalog_markdown",
    "metric_catalog_markdown",
]


@dataclass(frozen=True)
class EventSchema:
    """Declared shape of one trace-event type.

    ``required`` fields must appear on every emission; ``optional``
    fields may.  ``extra_allowed`` opts an event out of the
    unknown-field check — only ``phase`` uses it, because
    :class:`~repro.obs.timer.PhaseTimer` forwards caller-supplied
    context fields verbatim.
    """

    type: str
    help: str
    required: FrozenSet[str] = frozenset()
    optional: FrozenSet[str] = frozenset()
    extra_allowed: bool = False

    @property
    def fields(self) -> FrozenSet[str]:
        return self.required | self.optional


@dataclass(frozen=True)
class MetricSchema:
    """Declared shape of one metric family."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: Tuple[str, ...] = ()


def _event(
    type_: str,
    help_: str,
    required: Iterable[str] = (),
    optional: Iterable[str] = (),
    extra_allowed: bool = False,
) -> EventSchema:
    return EventSchema(
        type=type_,
        help=help_,
        required=frozenset(required),
        optional=frozenset(optional),
        extra_allowed=extra_allowed,
    )


#: type -> schema for every event the built-in instrumentation emits.
EVENT_SCHEMAS: Dict[str, EventSchema] = {
    schema.type: schema
    for schema in (
        _event(
            "sim.start",
            "run header: cluster geometry and simulation parameters",
            required=("nodes", "operators", "step_seconds", "horizon",
                      "capacities", "scheduling", "arrival_kind"),
        ),
        _event(
            "sim.end",
            "run footer: busy totals, tuple counts, migrations",
            required=("node_busy", "tuples_in", "tuples_out",
                      "max_utilization", "migrations"),
            optional=("faults", "stranded_tuples", "repartitions"),
        ),
        _event(
            "batch.enqueued",
            "a batch joined a node's queue, opening its span",
            required=("node", "operator", "port", "count", "span", "birth"),
            optional=("parent",),
        ),
        _event(
            "batch.serviced",
            "a node finished processing a batch, closing its span",
            required=("node", "operator", "port", "count", "out", "work",
                      "span", "start"),
            optional=("sink", "latency"),
        ),
        _event("node.busy", "idle -> busy transition", required=("node",)),
        _event("node.idle", "busy -> idle transition", required=("node",)),
        _event(
            "node.stall",
            "migration pause served by a node",
            required=("node", "work"),
            optional=("start", "decision"),
        ),
        _event(
            "migration.decided",
            "controller returned a move",
            required=("operator", "source", "target", "pause"),
            optional=("decision",),
        ),
        _event(
            "migration.applied",
            "engine applied a (non-stale) move",
            required=("operator", "source", "target", "pause", "reason"),
            optional=("decision",),
        ),
        _event(
            "decision.evaluated",
            "one controller deliberation: trigger, loads, candidates, "
            "outcome",
            required=("decision", "trigger", "controller", "reason",
                      "actions", "loads"),
            optional=("candidates", "node", "volume_before",
                      "volume_after", "burn_rate"),
        ),
        _event(
            "elastic.split",
            "elastic placer split an operator into key partitions",
            required=("operator", "ways", "ratio_before", "ratio_after",
                      "kept"),
            optional=("fractions",),
        ),
        _event(
            "elastic.merge",
            "elastic placer collapsed a cold partition group",
            required=("operator", "ratio_before", "ratio_after", "kept"),
        ),
        _event(
            "elastic.repartition",
            "engine reassigned key-range fractions inside a partition "
            "group",
            required=("operator", "fractions", "pause"),
            optional=("decision",),
        ),
        _event(
            "drift.detected",
            "a windowed change statistic crossed its threshold",
            required=("signal", "direction", "statistic", "threshold",
                      "observed", "baseline"),
            optional=("input",),
        ),
        _event(
            "fault.injected",
            "a scheduled fault event fired",
            required=("kind",),
            optional=("node", "operator", "factor", "duration"),
        ),
        _event(
            "fault.reverted",
            "a windowed fault's effect expired",
            required=("kind",),
            optional=("node", "operator"),
        ),
        _event(
            "placement.step",
            "one greedy assignment (ROD)",
            required=("algorithm", "index", "operator", "node",
                      "class_one_size", "chosen_from_class_one"),
        ),
        _event(
            "placement.iteration",
            "one annealing search iteration sample",
            required=("algorithm", "iteration", "current", "best",
                      "temperature", "improved"),
        ),
        _event(
            "placement.milp",
            "one MILP solve",
            required=("algorithm", "seconds", "status", "variables",
                      "objective"),
        ),
        _event(
            "feasibility.probe",
            "one empirical feasibility verdict",
            required=("rates", "feasible", "max_utilization",
                      "backlog_seconds"),
        ),
        _event(
            "phase",
            "a profiled phase finished (PhaseTimer)",
            required=("name", "seconds"),
            extra_allowed=True,
        ),
    )
}


def _metric(
    name: str, kind: str, help_: str, labels: Sequence[str] = ()
) -> MetricSchema:
    return MetricSchema(name=name, kind=kind, help=help_,
                        labels=tuple(labels))


#: name -> schema for every metric family the library registers.
METRIC_SCHEMAS: Dict[str, MetricSchema] = {
    schema.name: schema
    for schema in (
        _metric("rod_sim_tuples_total", "counter",
                "source tuples injected / sink tuples produced",
                ("direction",)),
        _metric("rod_sim_migrations_total", "counter",
                "operator migrations applied"),
        _metric("rod_sim_faults_total", "counter",
                "fault events injected into simulation runs", ("kind",)),
        _metric("rod_sim_runs_total", "counter",
                "simulation runs completed"),
        _metric("rod_sim_node_utilization", "gauge",
                "per-node utilization of the latest run", ("node",)),
        _metric("rod_sim_latency_seconds", "gauge",
                "end-to-end latency quantiles of the latest run",
                ("quantile",)),
        _metric("rod_decisions_total", "counter",
                "controller decision records emitted", ("trigger",)),
        _metric("rod_drift_events_total", "counter",
                "drift detections per monitored signal", ("signal",)),
        _metric("rod_drift_statistic", "gauge",
                "end-of-run Page-Hinkley statistic per signal",
                ("signal",)),
        _metric("rod_drift_baseline", "gauge",
                "end-of-run EWMA baseline level per signal", ("signal",)),
        _metric("rod_slo_budget_remaining", "gauge",
                "fraction of an objective's error budget left",
                ("objective",)),
        _metric("rod_slo_worst_burn_rate", "gauge",
                "worst burn rate observed over an objective's windows",
                ("objective",)),
        _metric("rod_slo_breaches_total", "counter",
                "windows that burned faster than the objective allows",
                ("objective",)),
        _metric("repro_phase_seconds", "histogram",
                "wall-clock seconds spent per profiled phase", ("phase",)),
        _metric("repro_parallel_tasks", "counter",
                "tasks executed through repro.parallel", ("mode",)),
        _metric("repro_parallel_failures", "counter",
                "tasks that raised or timed out in repro.parallel",
                ("mode",)),
        _metric("repro_parallel_pools", "counter",
                "process pools spun up by repro.parallel"),
        _metric("repro_parallel_pool_retries", "counter",
                "fresh pools spun up after a BrokenProcessPool"),
        _metric("repro_volume_cache_hits", "counter",
                "QMC sample-point cache hits"),
        _metric("repro_volume_cache_misses", "counter",
                "QMC sample-point cache misses (generations)"),
        _metric("repro_volume_cache_evictions", "counter",
                "QMC sample-point cache LRU evictions"),
        _metric("repro_volume_cache_points", "gauge",
                "QMC sample points currently resident in the cache"),
    )
}


def event_types() -> FrozenSet[str]:
    """The registered event type names (backs ``trace.EVENT_TYPES``)."""
    return frozenset(EVENT_SCHEMAS)


def validate_event(type_: str, fields: Mapping[str, object]) -> None:
    """Raise ``ValueError`` unless the emission matches its schema.

    Unknown event types, missing required fields, and undeclared fields
    (unless the schema allows extras) are all rejected.
    """
    schema = EVENT_SCHEMAS.get(type_)
    if schema is None:
        raise ValueError(
            f"trace event type {type_!r} is not declared in "
            f"repro.obs.schema.EVENT_SCHEMAS"
        )
    names = set(fields)
    missing = sorted(schema.required - names)
    if missing:
        raise ValueError(
            f"trace event {type_!r} lacks required field(s) {missing}"
        )
    if not schema.extra_allowed:
        unknown = sorted(names - schema.fields)
        if unknown:
            raise ValueError(
                f"trace event {type_!r} carries undeclared field(s) "
                f"{unknown}; declare them in repro.obs.schema"
            )


def validate_metric(
    name: str, kind: str, labels: Sequence[str] = ()
) -> None:
    """Raise ``ValueError`` unless the registration matches its schema."""
    schema = METRIC_SCHEMAS.get(name)
    if schema is None:
        raise ValueError(
            f"metric {name!r} is not declared in "
            f"repro.obs.schema.METRIC_SCHEMAS"
        )
    if schema.kind != kind:
        raise ValueError(
            f"metric {name!r} is declared as a {schema.kind}, "
            f"registered as a {kind}"
        )
    if tuple(labels) != schema.labels:
        raise ValueError(
            f"metric {name!r} declares labels {schema.labels}, "
            f"registered with {tuple(labels)}"
        )


def _field_cell(names: FrozenSet[str]) -> str:
    return ", ".join(f"`{name}`" for name in sorted(names)) or "—"


def event_catalog_markdown() -> str:
    """The event catalog as a markdown table, straight from the registry.

    ``scripts/gen_event_catalog.py`` splices this into
    ``docs/observability.md`` (and ``--check`` fails CI when the
    committed docs drift), so a newly declared event type cannot go
    undocumented.
    """
    lines = [
        "| type | meaning | required fields | optional fields |",
        "| --- | --- | --- | --- |",
    ]
    for name in sorted(EVENT_SCHEMAS):
        schema = EVENT_SCHEMAS[name]
        optional = _field_cell(schema.optional)
        if schema.extra_allowed:
            optional = (
                f"{optional}, …" if optional != "—" else "… (free-form)"
            )
        lines.append(
            f"| `{name}` | {schema.help} | "
            f"{_field_cell(schema.required)} | {optional} |"
        )
    return "\n".join(lines)


def metric_catalog_markdown() -> str:
    """The metric catalog as a markdown table (same contract as events)."""
    lines = [
        "| name | kind | labels | meaning |",
        "| --- | --- | --- | --- |",
    ]
    for name in sorted(METRIC_SCHEMAS):
        schema = METRIC_SCHEMAS[name]
        labels = ", ".join(
            f"`{label}`" for label in schema.labels
        ) or "—"
        lines.append(
            f"| `{name}` | {schema.kind} | {labels} | {schema.help} |"
        )
    return "\n".join(lines)
