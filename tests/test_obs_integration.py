"""End-to-end observability: simulate -> JSONL -> parse -> render.

Covers the PR's acceptance criterion: a traced ``Deployment.simulate``
run on an ``examples/configs`` graph produces parseable JSONL whose
per-node busy totals equal ``SimulationResult.node_busy`` exactly.
"""

from pathlib import Path

import pytest

from repro.deploy import Deployment
from repro.dynamics.controller import LoadBalancingController
from repro.graphs.generator import monitoring_graph
from repro.graphs.serialize import load_graph
from repro.obs import MemorySink, Observability, Tracer, read_trace
from repro.obs.index import RunIndex, filter_events
from repro.obs.timeline import (
    busy_totals,
    render_trace_report,
    utilization_timeline,
)

EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "configs"


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    graph = load_graph(str(EXAMPLES / "monitoring.graph.json"))
    deployment = Deployment.plan(graph, [1.0, 1.0])
    path = str(tmp_path_factory.mktemp("traces") / "run.jsonl")
    result = deployment.simulate(
        rates=[60.0, 60.0], duration=5.0, trace_out=path
    )
    return deployment, result, read_trace(path)


class TestTraceAgreesWithResult:
    def test_trace_is_parseable_and_framed(self, traced_run):
        _, _, events = traced_run
        assert events[0]["type"] == "sim.start"
        assert events[-1]["type"] == "sim.end"
        assert all(e["wall"] > 0 for e in events)

    def test_busy_totals_equal_node_busy_exactly(self, traced_run):
        _, result, events = traced_run
        assert busy_totals(events).tolist() == result.node_busy.tolist()

    def test_metadata_header(self, traced_run):
        deployment, result, events = traced_run
        meta = RunIndex(events).meta
        assert meta["nodes"] == deployment.placement.num_nodes
        assert meta["horizon"] == pytest.approx(result.duration)

    def test_summary_counts_are_balanced(self, traced_run):
        _, _, events = traced_run
        by_type = RunIndex(events).type_counts
        assert by_type["sim.start"] == 1
        assert by_type["sim.end"] == 1
        # Every enqueued batch is eventually serviced at these rates.
        assert by_type["batch.serviced"] == by_type["batch.enqueued"]
        assert by_type["node.busy"] == by_type["node.idle"]

    def test_render_report(self, traced_run):
        deployment, _, events = traced_run
        report = render_trace_report(events, width=40)
        assert "events by type:" in report
        assert "per-node utilization" in report
        for node in range(deployment.placement.num_nodes):
            assert f"node {node} |" in report

    def test_utilization_timeline_shape(self, traced_run):
        deployment, result, events = traced_run
        timeline = utilization_timeline(events)
        assert timeline.shape[1] == deployment.placement.num_nodes
        assert timeline.min() >= 0.0


class TestMigrationEvents:
    def test_migrations_traced_and_rendered(self):
        graph = monitoring_graph(2, seed=3)
        deployment = Deployment.plan(graph, [1.0, 1.0])
        # Skew the load hard onto one input so the reactive balancer
        # has something to chase.
        controller = LoadBalancingController(
            period=0.5, imbalance_threshold=0.05, cooldown=0.0
        )
        sink = MemorySink()
        result = deployment.simulate(
            rates=[900.0, 5.0],
            duration=8.0,
            controller=controller,
            tracer=Tracer(sink),
        )
        applied = [
            e for e in sink.events if e["type"] == "migration.applied"
        ]
        assert len(applied) == len(result.migrations)
        if applied:
            event = applied[0]
            assert {"operator", "source", "target", "pause"} <= set(event)
            report = render_trace_report(sink.events)
            assert "migrations applied" in report

    def test_trace_out_and_tracer_are_mutually_exclusive(self, tmp_path):
        deployment = Deployment.plan(monitoring_graph(2, seed=1), [1.0, 1.0])
        with pytest.raises(ValueError, match="not both"):
            deployment.simulate(
                rates=[10.0, 10.0],
                duration=1.0,
                trace_out=str(tmp_path / "t.jsonl"),
                tracer=Tracer(MemorySink()),
            )


class TestDisabledPathUnchanged:
    def test_plan_with_tracing_emits_placement_steps(self):
        sink = MemorySink()
        obs = Observability(tracer=Tracer(sink))
        deployment = Deployment.plan(
            monitoring_graph(2, seed=1), [1.0, 1.0], obs=obs
        )
        steps = [e for e in sink.events if e["type"] == "placement.step"]
        assert len(steps) == deployment.model.num_operators
        assert [e["index"] for e in steps] == list(range(len(steps)))
        # Exactly one phase event per planning phase: the placer emits
        # no phase of its own beside the one timing it.
        phases = [
            e["name"] for e in sink.events if e["type"] == "phase"
        ]
        assert phases == [
            "plan.load_model", "plan.verify_model", "plan.place.rod",
            "plan.verify_plan",
        ]

    def test_probe_emits_feasibility_event(self):
        sink = MemorySink()
        obs = Observability(tracer=Tracer(sink))
        deployment = Deployment.plan(
            monitoring_graph(2, seed=1), [1.0, 1.0], obs=obs
        )
        verdict = deployment.probe([20.0, 20.0], duration=2.0)
        probes = [
            e for e in sink.events if e["type"] == "feasibility.probe"
        ]
        assert len(probes) == 1
        assert probes[0]["feasible"] == verdict


def _event(type_, t=None, **fields):
    return {"type": type_, "t": t, "wall": 1.0, **fields}


class TestMetadataCapacityPadding:
    """A short (or missing) capacities list in the header must be padded
    to the node count — a single default entry used to silently
    mis-scale utilization for every node past the first."""

    def test_header_without_capacities_pads_to_node_count(self):
        meta = RunIndex([_event("sim.start", t=0.0, nodes=3)]).meta
        assert meta["capacities"] == [1.0, 1.0, 1.0]

    def test_header_with_short_capacities_pads(self):
        meta = RunIndex([
            _event("sim.start", t=0.0, nodes=3, capacities=[2.0]),
        ]).meta
        assert meta["capacities"] == [2.0, 1.0, 1.0]

    def test_full_capacities_preserved(self):
        meta = RunIndex([
            _event("sim.start", t=0.0, nodes=2, capacities=[2.0, 0.5]),
        ]).meta
        assert meta["capacities"] == [2.0, 0.5]

    def test_headerless_fallback_pads_too(self):
        meta = RunIndex([
            _event("batch.serviced", t=1.0, node=2, work=0.1),
        ]).meta
        assert meta["nodes"] == 3
        assert meta["capacities"] == [1.0, 1.0, 1.0]

    def test_padded_capacities_scale_utilization_per_node(self):
        events = [
            _event("sim.start", t=0.0, nodes=2, step_seconds=1.0,
                   horizon=1.0, capacities=[2.0]),
            _event("batch.serviced", t=0.5, node=0, work=1.0),
            _event("batch.serviced", t=0.5, node=1, work=1.0),
        ]
        timeline = utilization_timeline(events)
        # Node 0 has capacity 2 -> util 0.5; padded node 1 gets 1.0.
        assert timeline[0, 0] == pytest.approx(0.5)
        assert timeline[0, 1] == pytest.approx(1.0)


class TestFilterEvents:
    def setup_method(self):
        self.events = [
            _event("sim.start", t=0.0, nodes=2),
            _event("batch.serviced", t=1.0, node=0, work=0.1),
            _event("batch.serviced", t=2.0, node=1, work=0.1),
            _event("migration.applied", t=2.5, operator="op1"),
            _event("phase", name="plan"),  # no sim clock
        ]

    def filter(self, **kwargs):

        return filter_events(self.events, **kwargs)

    def test_type_filter(self):
        kept = self.filter(types=["batch.serviced"])
        assert [e["type"] for e in kept] == ["batch.serviced"] * 2

    def test_node_filter_drops_nodeless_events(self):
        kept = self.filter(nodes=[1])
        assert len(kept) == 1
        assert kept[0]["node"] == 1

    def test_since_keeps_unclocked_events(self):
        kept = self.filter(since=2.0)
        assert [e["type"] for e in kept] == [
            "batch.serviced", "migration.applied", "phase",
        ]

    def test_filters_compose(self):
        kept = self.filter(types=["batch.serviced"], nodes=[0], since=0.0)
        assert len(kept) == 1
        assert kept[0]["node"] == 0

    def test_no_filters_is_identity(self):
        assert self.filter() == self.events


class TestFilterEventsCombined:
    """All three CLI filters (--type, --operator, --since) at once."""

    def setup_method(self):
        self.events = [
            _event("sim.start", t=0.0, nodes=2),
            _event("batch.serviced", t=1.0, node=0, operator="src0",
                   work=0.1),
            _event("batch.serviced", t=3.0, node=0, operator="agg0",
                   work=0.1),
            _event("batch.enqueued", t=3.0, node=1, operator="agg0",
                   port=0, count=4, span=7, birth=3.0),
            _event("batch.serviced", t=5.0, node=1, operator="agg0",
                   port=0, count=4, work=0.1, out=4, span=7, start=4.0),
            _event("migration.applied", t=4.0, operator="agg0",
                   source=0, target=1, pause=0.2),
            _event("phase", name="plan"),  # no sim clock, no operator
        ]

    def filter(self, **kwargs):

        return filter_events(self.events, **kwargs)

    def test_type_operator_since_compose(self):
        kept = self.filter(
            types=["batch.serviced"], operators=["agg0"], since=4.0
        )
        assert len(kept) == 1
        assert kept[0]["t"] == 5.0
        assert kept[0]["node"] == 1

    def test_operator_filter_crosses_event_kinds(self):
        # Without a type filter, the operator filter keeps every event
        # kind that names the operator: service, enqueue, migration.
        kept = self.filter(operators=["agg0"], since=0.0)
        assert [e["type"] for e in kept] == [
            "batch.serviced", "batch.enqueued", "batch.serviced",
            "migration.applied",
        ]

    def test_operator_filter_keeps_both_batch_events(self):
        # Both events of a batch name its operator, so an operator
        # filter keeps the whole span, just as the spans= filter does.
        span = self.filter(spans=[7])
        assert [e["type"] for e in span] == ["batch.enqueued", "batch.serviced"]
        kept = self.filter(operators=["agg0"])
        assert [e for e in kept if e.get("span") == 7] == span

    def test_span_and_since_compose(self):
        kept = self.filter(spans=[7], since=4.0)
        assert [e["type"] for e in kept] == ["batch.serviced"]

    def test_all_filters_can_empty_the_trace(self):
        assert self.filter(
            types=["batch.serviced"], operators=["src0"], since=2.0
        ) == []

    def test_unclocked_events_survive_since_but_not_field_filters(self):
        kept = self.filter(since=100.0)
        assert [e["type"] for e in kept] == ["phase"]
        assert self.filter(since=100.0, operators=["agg0"]) == []
