"""Tests for the obs schema registry and its runtime validation.

Every emit site and metric source outside the engine runs through
``Tracer(validate=True)`` / ``validate_metric`` here; the engine's own
emissions are validated by ``tests/test_engine_golden.py``.
"""

import pytest

from repro.core.load_model import build_load_model
from repro.core.volume import cache as volume_cache
from repro.dynamics import FailoverController
from repro.experiments.elasticity import hot_pipeline
from repro.faults import chaos_schedule
from repro.graphs.generator import monitoring_graph
from repro.obs import MemorySink, MetricsRegistry, PhaseTimer, Tracer
from repro.obs.schema import (
    EVENT_SCHEMAS,
    METRIC_SCHEMAS,
    event_types,
    validate_event,
    validate_metric,
)
from repro.obs.slo import (
    LatencyObjective,
    ThroughputObjective,
    evaluate_slos,
    record_slo_metrics,
)
from repro.placement import (
    AnnealingPlacer,
    ElasticPlacer,
    MilpBalancePlacer,
    RODPlacer,
)
from repro.simulator.engine import Simulator
from repro.simulator.feasibility import FeasibilityProbe


class TestRegistry:
    def test_event_types_mirror_the_registry(self):
        assert event_types() == frozenset(EVENT_SCHEMAS)

    def test_registry_covers_the_core_simulation_events(self):
        for type_ in (
            "sim.start", "sim.end", "node.busy", "fault.injected", "phase",
        ):
            assert type_ in EVENT_SCHEMAS

    def test_metric_registry_covers_the_core_families(self):
        for name in ("rod_sim_runs_total", "rod_sim_faults_total"):
            assert name in METRIC_SCHEMAS

    def test_required_fields_are_not_also_optional(self):
        for schema in EVENT_SCHEMAS.values():
            assert not set(schema.required) & set(schema.optional)


class TestValidateEvent:
    def test_conformant_emission_passes(self):
        validate_event("node.busy", {"node": 1})

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="not declared"):
            validate_event("no.such.event", {})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ValueError, match="node"):
            validate_event("node.busy", {})

    def test_undeclared_extra_rejected(self):
        with pytest.raises(ValueError, match="color"):
            validate_event("node.busy", {"node": 1, "color": "red"})

    def test_extra_allowed_event_accepts_context(self):
        validate_event(
            "phase", {"name": "x", "seconds": 0.5, "anything": 1}
        )


class TestValidateMetric:
    def test_conformant_registration_passes(self):
        validate_metric("rod_sim_faults_total", "counter", ("kind",))

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="not declared"):
            validate_metric("nope_total", "counter")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="counter"):
            validate_metric("rod_sim_runs_total", "gauge")

    def test_label_mismatch_rejected(self):
        with pytest.raises(ValueError, match="label"):
            validate_metric("rod_sim_faults_total", "counter", ())


class TestTracerValidation:
    def test_validating_tracer_rejects_bad_emission(self):
        tracer = Tracer(MemorySink(), validate=True)
        with pytest.raises(ValueError):
            tracer.emit("node.busy", t=1.0)

    def test_validating_tracer_accepts_conformant_emission(self):
        sink = MemorySink()
        tracer = Tracer(sink, validate=True)
        tracer.emit("node.busy", t=1.0, node=0)
        assert len(sink.events) == 1

    def test_default_tracer_does_not_validate(self):
        sink = MemorySink()
        Tracer(sink).emit("node.busy", t=1.0)
        assert len(sink.events) == 1


CAPACITIES = [1.0] * 4


def _hot_model():
    return build_load_model(hot_pipeline())


def _time_a_phase(tracer):
    with PhaseTimer("unit", tracer=tracer, fields={"step": 1}):
        pass


EMIT_SITES = {
    "rod": lambda tracer: RODPlacer(tracer=tracer).place(
        _hot_model(), CAPACITIES
    ),
    "annealing": lambda tracer: AnnealingPlacer(
        iterations=50, samples=128, seed=1, tracer=tracer, trace_every=10,
    ).place(_hot_model(), CAPACITIES),
    "milp": lambda tracer: MilpBalancePlacer(tracer=tracer).place(
        _hot_model(), CAPACITIES
    ),
    "elastic": lambda tracer: ElasticPlacer(
        samples=256, tracer=tracer
    ).place(_hot_model(), CAPACITIES),
    "feasibility-probe": lambda tracer: FeasibilityProbe(
        duration=2.0, tracer=tracer
    ).is_feasible(RODPlacer().place(_hot_model(), CAPACITIES), [100.0]),
    "phase-timer": _time_a_phase,
}


class TestEmitSitesConform:
    @pytest.mark.parametrize("site", sorted(EMIT_SITES))
    def test_emissions_pass_a_validating_tracer(self, site):
        sink = MemorySink()
        EMIT_SITES[site](Tracer(sink, validate=True))
        assert sink.events


class TestMetricSourcesConform:
    def test_every_source_registers_declared_families(self):
        registry = MetricsRegistry()
        graph = monitoring_graph(3, seed=1)
        sink = MemorySink()
        Simulator(
            RODPlacer().place(build_load_model(graph), [1.0, 1.0, 1.0]),
            controller=FailoverController(
                policy="volume", samples=128, failback=True
            ),
            faults=chaos_schedule(
                3, horizon=10.0, seed=7,
                operator_names=graph.operator_names,
            ),
            tracer=Tracer(sink),
            metrics=registry,
        ).run(rates=[60.0, 60.0, 60.0], duration=10.0)
        record_slo_metrics(registry, evaluate_slos(sink.events, [
            LatencyObjective(name="lat", threshold_seconds=0.5,
                             target=0.9, window_seconds=2.0),
            ThroughputObjective(name="out", min_tuples_per_second=1.0,
                                window_seconds=2.0),
        ]))
        volume_cache.publish_metrics(registry)
        with PhaseTimer("unit", registry=registry):
            pass
        families = list(registry.families())
        for family in families:
            validate_metric(family.name, family.kind, family.labelnames)
        assert {f.name for f in families} == set(METRIC_SCHEMAS)
