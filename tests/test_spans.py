"""Causal span tracing, critical-path attribution, and SLO evaluation.

Covers this PR's acceptance criteria end to end:

* the per-batch latency distribution rebuilt by
  :func:`repro.obs.critical_path.analyze_critical_path` from the span
  fields of ``batch.enqueued``/``batch.serviced`` events is
  **bit-for-bit identical** to ``SimulationResult.latency``
  — same sample values, same weights, same order — including under
  chaos fault schedules with crash/recover cycles and failover;
* attribution covers at least 99.9% of mean end-to-end latency (it is
  exact by construction, so the tests assert the full telescoping sum);
* the span forest reconstructed from any seeded run is a well-formed
  DAG (property test over seeds);
* the SLO engine's parsing, burn-rate math, streaming watcher and
  metric surfacing behave as documented;
* the diff engine reads the new ``critical_path.*`` / ``slo.*`` keys
  with the right regression direction.
"""

import json
import math

import pytest

from repro import build_load_model, placement_from_mapping
from repro.deploy import Deployment
from repro.dynamics import FailoverController
from repro.dynamics.controller import LoadBalancingController
from repro.faults import FaultEvent, FaultSchedule, chaos_schedule
from repro.graphs import Delay, QueryGraph
from repro.graphs.generator import monitoring_graph
from repro.obs import MemorySink, MetricsRegistry, Tracer
from repro.obs.critical_path import (
    PHASES,
    analyze_critical_path,
    explain_document,
    render_critical_path_report,
)
from repro.obs.diff import _direction, compare_metrics
from repro.obs.slo import (
    LatencyObjective,
    SloWatcher,
    ThroughputObjective,
    evaluate_slos,
    load_slo_config,
    parse_slo_config,
    record_slo_metrics,
    render_slo_report,
)
from repro.obs.spans import (
    span_lineage,
    validate_span_dag,
)
from repro.obs.index import RunIndex, filter_events
from repro.simulator import Simulator


def traced_simulation(placement, *, rates, duration, step_seconds=0.1,
                      faults=None, controller=None, seed=None,
                      arrival_kind="deterministic"):
    """Run a simulation with a validating tracer; return (result, events)."""
    sink = MemorySink()
    sim = Simulator(
        placement,
        step_seconds=step_seconds,
        tracer=Tracer(sink, validate=True),
        faults=faults,
        controller=controller,
        seed=seed,
        arrival_kind=arrival_kind,
    )
    result = sim.run(rates=rates, duration=duration)
    return result, sink.events


def two_op_placement(num_nodes=2, cost=0.004):
    g = QueryGraph()
    i = g.add_input("I")
    g.add_operator(Delay("a", cost=cost, selectivity=1.0), [i])
    g.add_operator(Delay("b", cost=cost, selectivity=1.0), [i])
    model = build_load_model(g)
    mapping = {"a": 0, "b": min(1, num_nodes - 1)}
    return placement_from_mapping(model, [1.0] * num_nodes, mapping)


@pytest.fixture(scope="module")
def chaos_run():
    """A traced chaos-schedule run with failover: (result, events)."""
    placement = Deployment.plan(
        monitoring_graph(3, seed=7), [1.0, 1.0, 1.0]
    ).placement
    faults = chaos_schedule(
        placement.num_nodes,
        horizon=15.0,
        seed=7,
        operator_names=placement.model.graph.operator_names,
    )
    return traced_simulation(
        placement,
        rates=[60.0, 60.0, 60.0],
        duration=15.0,
        faults=faults,
        controller=FailoverController(samples=64),
    )


# --------------------------------------------------------------------------
# Span forest reconstruction units
# --------------------------------------------------------------------------


class TestSpanEmitter:
    """Span forest units: ``batch.enqueued`` opens, ``batch.serviced``
    closes."""

    def test_ids_are_a_monotonic_counter(self, chaos_run):
        _, events = chaos_run
        opened = [
            e["span"] for e in events if e["type"] == "batch.enqueued"
        ]
        assert sorted(opened) == list(range(len(opened)))
        seen = set()
        derived = 0
        for event in events:
            span = event.get("span")
            if event["type"] == "batch.enqueued":
                parent = event.get("parent")
                if parent is not None:
                    assert parent < span
                    derived += 1
                seen.add(span)
            elif event["type"] == "batch.serviced":
                assert span in seen
        assert derived > 0

    def _open(self, span, parent=None, t=0.0, **over):
        fields = dict(node=0, operator="op", port=0, count=1, span=span,
                      birth=0.0)
        if parent is not None:
            fields["parent"] = parent
        fields.update(over)
        return {"type": "batch.enqueued", "t": t, "wall": 1.0, **fields}

    def _close(self, span, t=1.0, **over):
        fields = dict(node=0, operator="op", port=0, count=1, out=1,
                      work=0.1, span=span, start=0.5)
        fields.update(over)
        return {"type": "batch.serviced", "t": t, "wall": 1.0, **fields}

    def test_duplicate_open_rejected(self):
        with pytest.raises(ValueError, match="span 0 opened twice"):
            RunIndex([self._open(0), self._open(0)]).spans

    def test_close_without_open_rejected(self):
        with pytest.raises(ValueError, match="span 7 closed without an open"):
            RunIndex([self._close(7)]).spans

    def test_double_close_rejected(self):
        with pytest.raises(ValueError, match="span 0 closed twice"):
            RunIndex(
                [self._open(0), self._close(0), self._close(0)]
            ).spans

    def test_dag_validation_flags_structural_problems(self):
        # Parent id not lower than the child: breaks the topological
        # ordering guarantee the analyzer relies on.
        spans = RunIndex([self._open(0, parent=3), self._open(3)]).spans
        problems = validate_span_dag(spans)
        assert any("parent" in p for p in problems)
        # Orphan parent reference.
        spans = RunIndex([self._open(5, parent=2)]).spans
        assert validate_span_dag(spans) != []
        # Service starting before the span opened.
        spans = RunIndex(
            [self._open(0, t=1.0), self._close(0, t=2.0, start=0.5)]
        ).spans
        assert validate_span_dag(spans) != []

    def test_lineage_walks_both_directions(self):
        events = [
            self._open(0),
            self._open(1, parent=0),
            self._open(2, parent=1),
            self._open(3),  # unrelated root
        ]
        spans = RunIndex(events).spans
        lineage = span_lineage(spans, 1)
        assert 0 in lineage and 2 in lineage
        assert 3 not in lineage
        with pytest.raises(KeyError):
            span_lineage(spans, 99)


# --------------------------------------------------------------------------
# Critical-path reconciliation: bit-for-bit against SimulationResult
# --------------------------------------------------------------------------


def assert_bit_for_bit(analysis, result):
    """The reconstructed latency distribution IS the engine's."""
    assert analysis.latency._values == result.latency._values
    assert analysis.latency._weights == result.latency._weights
    assert analysis.latency.mean() == result.latency.mean()
    assert analysis.latency.maximum() == result.latency.maximum()
    for q in (50.0, 95.0, 99.0):
        assert analysis.latency.percentile(q) == result.latency.percentile(q)
    assert analysis.tuples_out == result.tuples_out


class TestCriticalPathReconciliation:
    @pytest.fixture(scope="class")
    def plain_run(self):
        placement = Deployment.plan(
            monitoring_graph(3, seed=7), [1.0, 1.0, 1.0]
        ).placement
        return traced_simulation(
            placement, rates=[80.0, 80.0, 80.0], duration=8.0
        )

    def test_plain_run_is_bit_for_bit(self, plain_run):
        result, events = plain_run
        assert_bit_for_bit(analyze_critical_path(events), result)

    def test_chaos_run_is_bit_for_bit(self, chaos_run):
        result, events = chaos_run
        assert_bit_for_bit(analyze_critical_path(events), result)

    def test_attribution_covers_mean_latency(self, chaos_run):
        _, events = chaos_run
        analysis = analyze_critical_path(events)
        assert analysis.total_latency_seconds > 0
        # Exact by construction; the acceptance floor is 99.9%.
        assert analysis.attributed_ratio >= 0.999
        assert analysis.attributed_ratio == pytest.approx(1.0)
        # Phase totals telescope back to the end-to-end total.
        assert sum(analysis.phase_totals().values()) == pytest.approx(
            analysis.total_latency_seconds
        )

    def test_crash_recover_attributes_stall(self):
        # Batches queued on a node through its downtime wait out the
        # crash window; that wait must land in the 'stall' phase.
        placement = two_op_placement()
        faults = FaultSchedule([
            FaultEvent(time=1.0, kind="node.crash", node=1),
            FaultEvent(time=3.0, kind="node.recover", node=1),
        ])
        result, events = traced_simulation(
            placement, rates=[50.0], duration=6.0, faults=faults
        )
        analysis = analyze_critical_path(events)
        assert_bit_for_bit(analysis, result)
        assert analysis.phase_totals()["stall"] > 0.0

    def test_stranded_tuples_reconcile(self, chaos_run):
        result, events = chaos_run
        analysis = analyze_critical_path(events)
        spans = RunIndex(events).spans
        open_counts = sum(
            s.count for s in spans.values() if not s.closed
        )
        assert analysis.unclosed_spans == sum(
            1 for s in spans.values() if not s.closed
        )
        assert analysis.stranded_tuples == open_counts
        assert analysis.stranded_tuples == result.stranded_tuples

    def test_crash_only_schedule_reconciles(self):
        # A node that crashes and never recovers strands batches; the
        # surviving traffic must still reconcile exactly.
        placement = two_op_placement()
        faults = FaultSchedule([
            FaultEvent(time=2.0, kind="node.crash", node=1),
        ])
        result, events = traced_simulation(
            placement, rates=[50.0], duration=6.0, faults=faults
        )
        analysis = analyze_critical_path(events)
        assert_bit_for_bit(analysis, result)
        assert analysis.stranded_tuples == result.stranded_tuples
        assert analysis.stranded_tuples > 0

    def test_migration_run_attributes_pause(self):
        placement = Deployment.plan(
            monitoring_graph(2, seed=3), [1.0, 1.0]
        ).placement
        controller = LoadBalancingController(
            period=0.5, imbalance_threshold=0.05, cooldown=0.0
        )
        result, events = traced_simulation(
            placement, rates=[900.0, 5.0], duration=8.0,
            controller=controller,
        )
        analysis = analyze_critical_path(events)
        assert_bit_for_bit(analysis, result)
        if result.migrations:
            assert analysis.phase_totals()["migration-pause"] > 0.0

    def test_top_operators_and_report(self, chaos_run):
        _, events = chaos_run
        analysis = analyze_critical_path(events)
        top = analysis.top_operators(3)
        assert len(top) <= 3
        assert top == sorted(top, key=lambda kv: kv[1], reverse=True)
        report = render_critical_path_report(
            explain_document(events), top_k=3
        )
        assert "attributed" in report
        for name, _ in top:
            assert name in report
        for phase in PHASES:
            assert phase in report

    def test_json_snapshot_shape(self, plain_run):
        _, events = plain_run
        obj = analyze_critical_path(events).to_json_obj()
        assert obj["attributed_ratio"] == pytest.approx(1.0)
        assert set(obj["phase_share"]) <= set(PHASES)
        json.dumps(obj)  # must be serializable as-is

    def test_traceless_events_yield_empty_analysis(self):
        analysis = analyze_critical_path([])
        assert analysis.spans_total == 0
        assert analysis.total_latency_seconds == 0.0
        # Nothing measured means nothing unexplained.
        assert analysis.attributed_ratio == 1.0


# --------------------------------------------------------------------------
# Span-DAG well-formedness property over seeded runs
# --------------------------------------------------------------------------


class TestSpanDagProperty:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_seeded_runs_produce_well_formed_forests(self, seed):
        placement = Deployment.plan(
            monitoring_graph(2, seed=seed), [1.0, 1.0]
        ).placement
        _, events = traced_simulation(
            placement, rates=[70.0, 30.0], duration=5.0,
            arrival_kind="poisson", seed=seed,
        )
        spans = RunIndex(events).spans
        assert spans, "traced run emitted no spans"
        assert validate_span_dag(spans) == []
        for record in spans.values():
            if record.parent is not None:
                # parent < child id makes the forest trivially acyclic
                # and descending-id iteration a topological order.
                assert record.parent < record.span
                assert record.parent in spans

    def test_analysis_reports_no_problems(self):
        placement = two_op_placement()
        _, events = traced_simulation(
            placement, rates=[40.0], duration=4.0
        )
        assert analyze_critical_path(events).problems == []


# --------------------------------------------------------------------------
# SLO engine
# --------------------------------------------------------------------------


def _sink_event(t, latency, out=1):
    return {"type": "batch.serviced", "t": t, "wall": 1.0, "node": 0,
            "operator": "s", "work": 0.0, "out": out, "sink": "s",
            "latency": latency}


def _header(horizon):
    return {"type": "sim.start", "t": 0.0, "wall": 1.0, "nodes": 1,
            "horizon": horizon}


class TestSloConfig:
    def test_parse_round_trip(self):
        objectives = parse_slo_config({"objectives": [
            {"name": "p99", "kind": "latency", "threshold_seconds": 0.5,
             "target": 0.99, "window_seconds": 10.0, "max_burn_rate": 2.0},
            {"name": "tput", "kind": "throughput",
             "min_tuples_per_second": 50.0, "window_seconds": 10.0},
        ]})
        assert isinstance(objectives[0], LatencyObjective)
        assert objectives[0].budget == pytest.approx(0.01)
        assert isinstance(objectives[1], ThroughputObjective)

    @pytest.mark.parametrize("config,match", [
        ({}, "non-empty 'objectives'"),
        ({"objectives": []}, "non-empty 'objectives'"),
        ({"objectives": [{"kind": "latency"}]}, "needs a 'name'"),
        ({"objectives": [
            {"name": "x", "kind": "latency", "threshold_seconds": 1.0,
             "target": 0.9, "window_seconds": 5.0},
            {"name": "x", "kind": "throughput",
             "min_tuples_per_second": 1.0, "window_seconds": 5.0},
        ]}, "duplicate objective name"),
        ({"objectives": [{"name": "x", "kind": "latency",
                          "threshold_seconds": 1.0, "target": 0.9,
                          "window_seconds": 0.0}]}, "window_seconds"),
        ({"objectives": [{"name": "x", "kind": "latency",
                          "threshold_seconds": 1.0, "target": 1.0,
                          "window_seconds": 5.0}]}, "target"),
        ({"objectives": [{"name": "x", "kind": "lag",
                          "window_seconds": 5.0}]}, "unknown kind"),
    ])
    def test_parse_rejections(self, config, match):
        with pytest.raises(ValueError, match=match):
            parse_slo_config(config)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"objectives": [
            {"name": "p95", "kind": "latency", "threshold_seconds": 1.0,
             "target": 0.95, "window_seconds": 5.0},
        ]}))
        assert len(load_slo_config(str(path))) == 1
        path.write_text("[]")
        with pytest.raises(ValueError, match="JSON object"):
            load_slo_config(str(path))


class TestSloEvaluation:
    OBJECTIVE = LatencyObjective(
        name="p90", threshold_seconds=1.0, target=0.9, window_seconds=10.0
    )

    def test_clean_run_passes(self):
        events = [_header(20.0)] + [
            _sink_event(t, 0.1) for t in (1.0, 5.0, 11.0, 15.0)
        ]
        report = evaluate_slos(events, [self.OBJECTIVE])
        assert report.ok and report.breached == []
        result = report.results[0]
        assert result.budget_remaining == pytest.approx(1.0)
        assert result.worst_burn_rate == 0.0
        assert result.attainment >= 1.0

    def test_burn_rate_math(self):
        # Window 0: 1 bad of 4 tuples -> bad fraction 0.25, burn 2.5.
        events = [_header(20.0)] + [
            _sink_event(1.0, 0.1), _sink_event(2.0, 0.1),
            _sink_event(3.0, 0.1), _sink_event(4.0, 5.0),
            _sink_event(12.0, 0.1), _sink_event(13.0, 0.1),
        ]
        report = evaluate_slos(events, [self.OBJECTIVE])
        result = report.results[0]
        assert not result.ok
        assert result.windows == 2
        assert result.breach_windows == 1
        assert result.worst_burn_rate == pytest.approx(2.5)
        assert result.bad_fraction == pytest.approx(1.0 / 6.0)

    def test_burn_rate_weights_by_tuple_count(self):
        events = [_header(10.0), _sink_event(1.0, 5.0, out=9),
                  _sink_event(2.0, 0.1, out=91)]
        report = evaluate_slos(events, [LatencyObjective(
            name="p90", threshold_seconds=1.0, target=0.9,
            window_seconds=10.0,
        )])
        # 9% bad against a 10% budget: burning, but within budget.
        result = report.results[0]
        assert result.ok
        assert result.bad_fraction == pytest.approx(0.09)
        assert result.worst_burn_rate == pytest.approx(0.9)

    def test_throughput_objective(self):
        objective = ThroughputObjective(
            name="tput", min_tuples_per_second=1.0, window_seconds=5.0
        )
        good = [_header(10.0)] + [
            _sink_event(t, 0.1, out=6) for t in (1.0, 6.0)
        ]
        assert evaluate_slos(good, [objective]).ok
        starved = [_header(10.0), _sink_event(1.0, 0.1, out=6)]
        report = evaluate_slos(starved, [objective])
        assert not report.ok
        assert report.results[0].breach_windows == 1

    def test_real_trace_with_loose_objectives_passes(self):
        placement = two_op_placement()
        result, events = traced_simulation(
            placement, rates=[40.0], duration=6.0
        )
        objectives = [
            LatencyObjective(name="lat", threshold_seconds=60.0,
                             target=0.5, window_seconds=2.0),
            ThroughputObjective(name="out", min_tuples_per_second=0.001,
                                window_seconds=2.0),
        ]
        report = evaluate_slos(events, objectives)
        assert report.ok
        assert result.tuples_out > 0

    def test_render_and_metrics(self):
        events = [_header(20.0), _sink_event(1.0, 5.0),
                  _sink_event(2.0, 0.1)]
        report = evaluate_slos(events, [self.OBJECTIVE])
        text = render_slo_report(report)
        assert "BREACH" in text and "p90" in text
        registry = MetricsRegistry()
        record_slo_metrics(registry, report)
        flat = json.dumps(registry.to_json())
        assert "rod_slo_budget_remaining" in flat
        assert "rod_slo_worst_burn_rate" in flat
        assert "rod_slo_breaches_total" in flat


class TestSloWatcher:
    def test_streaming_burn_detection(self):
        watcher = SloWatcher(LatencyObjective(
            name="w", threshold_seconds=1.0, target=0.9,
            window_seconds=10.0,
        ))
        # First window: all bad.
        for t in (1.0, 2.0, 3.0):
            watcher.observe(t, 5.0)
        assert not watcher.burning  # window not yet complete
        watcher.observe(11.0, 0.1)  # rolls the window
        assert watcher.burning
        assert watcher.breaches == 1
        assert watcher.last_burn_rate == pytest.approx(10.0)
        # Second window: clean; rolling clears the flag.
        watcher.observe(21.0, 0.1)
        assert not watcher.burning
        assert watcher.breaches == 1

    def test_duck_typed_surface(self):
        watcher = SloWatcher(LatencyObjective(
            name="w", threshold_seconds=1.0, target=0.9,
            window_seconds=1.0,
        ))
        assert callable(watcher.observe)
        assert isinstance(watcher.burning, bool)


# --------------------------------------------------------------------------
# Diff directions and trace filters for the new keys
# --------------------------------------------------------------------------


class TestDiffDirections:
    @pytest.mark.parametrize("key", [
        "critical_path.mean_seconds.agg.service",
        "critical_path.unclosed_spans",
        "slo.objectives.p99.bad_fraction",
        "slo.objectives.p99.worst_burn_rate",
        "slo.objectives.p99.breach_windows",
    ])
    def test_higher_is_worse(self, key):
        assert _direction(key) == 1

    @pytest.mark.parametrize("key", [
        "critical_path.attributed_ratio",
        "slo.objectives.p99.budget_remaining",
        "slo.objectives.p99.attainment",
    ])
    def test_lower_is_worse(self, key):
        assert _direction(key) == -1

    def test_longest_token_wins(self):
        # 'attributed_ratio' must beat the shorter 'ratio'-free
        # higher-is-worse match on 'critical_path'.
        assert _direction("critical_path.attributed_ratio") == -1

    def test_compare_flags_attribution_regression(self):
        a = {"critical_path.attributed_ratio": 1.0}
        b = {"critical_path.attributed_ratio": 0.5}
        diff = compare_metrics(a, b, default_threshold=0.01)
        breached = [d for d in diff.deltas if d.breach]
        assert [d.name for d in breached] == [
            "critical_path.attributed_ratio"
        ]
        # The same move in the healthy direction is not a breach.
        reverse = compare_metrics(b, a, default_threshold=0.01)
        assert not any(d.breach for d in reverse.deltas)


class TestTraceSpanFilters:
    def _span_events(self):
        def open_(span, parent=None, operator="op"):
            fields = dict(node=0, operator=operator, port=0, count=1,
                          span=span, birth=0.0)
            if parent is not None:
                fields["parent"] = parent
            return {"type": "batch.enqueued", "t": 0.0, "wall": 1.0,
                    **fields}

        def close_(span, operator):
            return {"type": "batch.serviced", "t": 1.0, "wall": 1.0,
                    "node": 0, "operator": operator, "port": 0,
                    "count": 1, "out": 1, "work": 0.1, "span": span,
                    "start": 0.5}

        return [
            open_(0, operator="src"),
            open_(1, parent=0, operator="agg"),
            close_(0, "src"), close_(1, "agg"),
            {"type": "sim.end", "t": 2.0, "wall": 1.0},
        ]

    def test_span_filter_keeps_only_listed_spans(self):
        kept = filter_events(self._span_events(), spans=[1])
        assert all(e.get("span") == 1 for e in kept)
        assert len(kept) == 2

    def test_operator_filter(self):
        # Both events of the batch name its operator.
        kept = filter_events(self._span_events(), operators=["src"])
        assert len(kept) == 2
        assert all(e["operator"] == "src" for e in kept)

    def test_filters_drop_field_free_events(self):
        kept = filter_events(self._span_events(), spans=[0, 1])
        assert all(e["type"].startswith("batch.") for e in kept)


# --------------------------------------------------------------------------
# Engine emission contract
# --------------------------------------------------------------------------


class TestEngineSpanEmission:
    def test_validated_tracer_accepts_engine_spans(self):
        # Tracer(validate=True) raises on any schema violation, so a
        # clean run is the schema-conformance check for span events.
        placement = two_op_placement()
        _, events = traced_simulation(
            placement, rates=[30.0], duration=3.0
        )
        opens = [e for e in events if e["type"] == "batch.enqueued"]
        closes = [e for e in events if e["type"] == "batch.serviced"]
        assert opens and closes
        assert len(closes) <= len(opens)
        for event in opens:
            assert {"span", "operator", "port", "count", "birth"} <= set(
                event
            )
        for event in closes:
            assert {"span", "node", "start", "work", "out"} <= set(event)

    def test_sink_close_latency_matches_engine_sample(self):
        placement = two_op_placement()
        result, events = traced_simulation(
            placement, rates=[30.0], duration=3.0
        )
        sink_latencies = [
            e["latency"] for e in events
            if e["type"] == "batch.serviced"
            and e.get("sink") is not None
        ]
        assert sink_latencies
        assert all(math.isfinite(v) for v in sink_latencies)
        assert sorted(sink_latencies) == sorted(result.latency._values)

    def test_null_tracer_emits_nothing(self):
        placement = two_op_placement()
        sim = Simulator(placement)
        result = sim.run(rates=[30.0], duration=2.0)
        assert result.tuples_out > 0  # no tracer, no spans, no error
