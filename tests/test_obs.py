"""Unit tests for repro.obs: metrics, tracing, timers, logging."""

import io
import json
import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Observability,
    configure,
    get_logger,
    read_trace,
)
from repro.obs.log import level_for
from repro.obs.metrics import MetricsRegistry
from repro.obs.timer import PHASE_METRIC, PhaseTimer, phase_report
from repro.obs.trace import (
    EVENT_TYPES,
    JsonlSink,
    MemorySink,
    NULL_TRACER,
    NullSink,
    TraceFormatError,
    Tracer,
    _encode_line,
    parse_trace_line,
)


class TestCountersAndGauges:
    def test_counter_unlabeled(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "total requests")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5.0

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "total requests")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth", "queued batches")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7.0

    def test_histogram_aggregates(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds", "latency")
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.006)
        assert histogram.mean() == pytest.approx(0.002)

    def test_histogram_buckets_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "h", "h", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        buckets = histogram.buckets()
        assert buckets[-1][0] == float("inf")
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)  # cumulative
        assert counts[-1] == 3


class TestHistogramPercentiles:
    def make(self, buckets=(0.1, 0.5, 1.0)):
        return MetricsRegistry().histogram("h", "h", buckets=buckets)

    def test_empty_returns_zero(self):
        assert self.make().percentile(50) == 0.0

    def test_out_of_range_rejected(self):
        histogram = self.make()
        with pytest.raises(ValueError):
            histogram.percentile(-1)
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_interpolates_within_bucket(self):
        histogram = self.make(buckets=(1.0,))
        for _ in range(4):
            histogram.observe(0.5)
        # All mass in [0, 1): the median interpolates to the midpoint.
        assert histogram.percentile(50) == pytest.approx(0.5)
        assert histogram.percentile(25) == pytest.approx(0.25)

    def test_rank_in_inf_bucket_returns_last_finite_bound(self):
        histogram = self.make(buckets=(0.1, 1.0))
        histogram.observe(50.0)
        assert histogram.percentile(99) == pytest.approx(1.0)

    def test_tracks_true_quantiles_with_fine_buckets(self):
        import numpy as np

        edges = tuple(np.linspace(0.01, 1.0, 100))
        histogram = self.make(buckets=edges)
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.0, 1.0, 2000)
        for value in samples:
            histogram.observe(float(value))
        for q in (50, 95, 99):
            assert histogram.percentile(q) == pytest.approx(
                float(np.percentile(samples, q)), abs=0.02
            )

    def test_percentiles_keys_match_latency_stats(self):
        from repro.simulator.metrics import LatencyStats

        histogram = self.make()
        histogram.observe(0.2)
        stats = LatencyStats()
        stats.record(0.2)
        assert set(histogram.percentiles()) == set(stats.percentiles())

    def test_json_export_includes_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", "l", buckets=(1.0,))
        histogram.observe(0.5)
        sample = registry.to_json()["lat"]["samples"][0]
        assert set(sample["percentiles"]) == {"p50", "p95", "p99"}
        assert sample["percentiles"]["p50"] == pytest.approx(0.5)

    def test_family_passthrough(self):
        registry = MetricsRegistry()
        family = registry.histogram("h", "h", buckets=(1.0,))
        family.observe(0.5)
        assert family.percentile(50) == pytest.approx(0.5)
        assert family.percentiles()["p50"] == pytest.approx(0.5)


class TestLabels:
    def test_labeled_children_are_distinct(self):
        registry = MetricsRegistry()
        family = registry.counter(
            "tuples_total", "tuples", labelnames=("direction",)
        )
        family.labels(direction="in").inc(10)
        family.labels(direction="out").inc(3)
        assert family.labels(direction="in").value == 10.0
        assert family.labels(direction="out").value == 3.0

    def test_unknown_label_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("c", "c", labelnames=("direction",))
        with pytest.raises(ValueError):
            family.labels(node="0")

    def test_missing_label_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter(
            "c", "c", labelnames=("direction", "node")
        )
        with pytest.raises(ValueError):
            family.labels(direction="in")

    def test_unlabeled_access_on_labeled_family_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("c", "c", labelnames=("direction",))
        with pytest.raises(ValueError):
            family.inc()

    def test_registration_idempotent_and_conflict_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "c", labelnames=("x",))
        again = registry.counter("c", "c", labelnames=("x",))
        assert first is again
        with pytest.raises(ValueError):
            registry.gauge("c", "c")
        with pytest.raises(ValueError):
            registry.counter("c", "c", labelnames=("y",))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad-name", "dashes not allowed")
        with pytest.raises(ValueError):
            registry.counter("c", "c", labelnames=("bad-label",))


class TestExporters:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter(
            "tuples_total", "tuples moved", labelnames=("direction",)
        ).labels(direction="in").inc(7)
        registry.gauge("util", "utilization").set(0.5)
        registry.histogram("lat", "latency", buckets=(1.0,)).observe(0.2)
        return registry

    def test_to_json_roundtrips_through_json(self):
        doc = json.loads(json.dumps(self.make_registry().to_json()))
        assert doc["tuples_total"]["type"] == "counter"
        sample = doc["tuples_total"]["samples"][0]
        assert sample["labels"] == {"direction": "in"}
        assert sample["value"] == 7.0
        assert doc["util"]["samples"][0]["value"] == 0.5
        hist = doc["lat"]["samples"][0]
        assert hist["count"] == 1

    def test_prometheus_text_format(self):
        text = self.make_registry().render_prometheus()
        assert "# HELP tuples_total tuples moved" in text
        assert "# TYPE tuples_total counter" in text
        assert 'tuples_total{direction="in"} 7' in text
        assert "util 0.5" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.2" in text
        assert "lat_count 1" in text

    def test_prometheus_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("c", "c", labelnames=("path",)).labels(
            path='a"b\\c\nd'
        ).inc()
        text = registry.render_prometheus()
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_prometheus_label_escaping_exact(self):
        # Exposition spec: backslash first, then quote, then newline —
        # each escaped exactly once, with no raw newline in the series.
        registry = MetricsRegistry()
        registry.counter("c", "c", labelnames=("path",)).labels(
            path='a"b\\c\nd'
        ).inc()
        series = [
            line for line in registry.render_prometheus().splitlines()
            if line.startswith("c{")
        ]
        assert series == ['c{path="a\\"b\\\\c\\nd"} 1']

    def test_prometheus_backslash_n_literal_not_double_escaped(self):
        # A label value already containing the two characters \ + n
        # must render as \\n (escaped backslash + letter), which is
        # distinct from an actual newline's \n.
        registry = MetricsRegistry()
        registry.counter("c", "c", labelnames=("x",)).labels(
            x="a\\nb"
        ).inc()
        text = registry.render_prometheus()
        assert 'c{x="a\\\\nb"} 1' in text

    def test_prometheus_nonfinite_values_render_per_spec(self):
        registry = MetricsRegistry()
        registry.gauge("up_g", "g").set(float("inf"))
        registry.gauge("down_g", "g").set(float("-inf"))
        registry.gauge("nan_g", "g").set(float("nan"))
        text = registry.render_prometheus()
        assert "up_g +Inf" in text
        assert "down_g -Inf" in text
        assert "nan_g NaN" in text

    def test_prometheus_nonfinite_histogram_sum(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", "h", buckets=(1.0,))
        histogram.observe(float("inf"))
        text = registry.render_prometheus()
        assert "h_sum +Inf" in text
        assert 'h_bucket{le="+Inf"} 1' in text


class TestTracer:
    def test_memory_sink_captures_typed_events(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.emit("batch.serviced", t=1.5, node=0, count=12)
        assert tracer.events_emitted == 1
        event = sink.events[0]
        # The kept event is the wire record: reserved keys first.
        assert list(event) == ["type", "t", "wall", "node", "count"]
        assert event["type"] == "batch.serviced"
        assert event["t"] == 1.5
        assert event["wall"] > 0
        assert (event["node"], event["count"]) == (0, 12)

    def test_reserved_keys_rejected(self):
        tracer = Tracer(MemorySink())
        with pytest.raises(ValueError):
            tracer.emit("phase", wall=1.0)
        with pytest.raises(ValueError):
            tracer.emit("phase", type="x")

    def test_known_event_types_registry(self):
        assert "batch.serviced" in EVENT_TYPES
        assert "placement.step" in EVENT_TYPES
        assert "feasibility.probe" in EVENT_TYPES

    def test_null_tracer_counts_nothing(self):
        NULL_TRACER.emit("sim.start", t=0.0, nodes=2)
        assert NULL_TRACER.events_emitted == 0
        assert not NULL_TRACER.enabled

    def test_null_sink_allocates_no_events(self, monkeypatch):
        """The hot-path contract: disabled tracing never builds a
        record.  A wall clock that explodes when read proves emit()
        returns before it builds one."""
        import repro.obs.trace as trace_module

        class Bomb:
            @staticmethod
            def time():
                raise AssertionError("trace record built while disabled")

        monkeypatch.setattr(trace_module, "time", Bomb)
        tracer = Tracer(NullSink())
        tracer.emit("batch.serviced", t=1.0, node=0)
        assert tracer.events_emitted == 0
        with pytest.raises(AssertionError):
            Tracer(MemorySink()).emit("batch.serviced", t=1.0, node=0)

    def test_untraced_run_never_writes_a_record(self, monkeypatch):
        """The same contract for the records the engine builds itself:
        a whole run with the default tracer never reaches
        ``Tracer.write``, while a traced one does."""
        from repro.core.load_model import build_load_model
        from repro.dynamics import FailoverController
        from repro.faults import chaos_schedule
        from repro.graphs.generator import monitoring_graph
        from repro.placement import RODPlacer
        from repro.simulator.engine import Simulator

        def refuse(self, record):
            raise AssertionError("trace record built while untraced")

        monkeypatch.setattr(Tracer, "write", refuse)
        graph = monitoring_graph(3, seed=1)
        placement = RODPlacer().place(build_load_model(graph), [1.0] * 3)

        def run(tracer=None):
            return Simulator(
                placement,
                controller=FailoverController(policy="volume", samples=128),
                faults=chaos_schedule(
                    3, horizon=10.0, seed=7,
                    operator_names=graph.operator_names,
                ),
                tracer=tracer,
            ).run(rates=[60.0, 60.0, 60.0], duration=10.0)

        assert run().tuples_out > 0
        with pytest.raises(AssertionError, match="while untraced"):
            run(Tracer(MemorySink()))


class TestJsonlRoundTrip:
    def test_emit_write_parse_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        tracer = Tracer(sink)
        tracer.emit("sim.start", t=0.0, nodes=2, step_seconds=0.1)
        tracer.emit("batch.serviced", t=0.1, node=1, work=0.004)
        tracer.emit("sim.end", t=1.0, migrations=0)
        sink.close()
        assert sink.events_written == 3

        events = read_trace(path)
        assert [e["type"] for e in events] == [
            "sim.start", "batch.serviced", "sim.end",
        ]
        assert events[0]["nodes"] == 2
        assert events[1]["t"] == pytest.approx(0.1)
        assert events[1]["work"] == pytest.approx(0.004)

    def test_jsonl_sink_accepts_handle(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        Tracer(sink).emit("phase", name="x", seconds=0.5)
        sink.close()  # flushes, does not close a borrowed handle
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 1
        event = parse_trace_line(lines[0])
        assert event == {"type": "phase", "t": None, "wall": event["wall"],
                         "name": "x", "seconds": 0.5}

    def test_numpy_fields_serialized(self, tmp_path):
        np = pytest.importorskip("numpy")
        path = str(tmp_path / "np.jsonl")
        with JsonlSink(path) as sink:
            Tracer(sink).emit(
                "sim.end", t=1.0,
                node_busy=np.array([1.5, 2.5]),
                count=np.int64(3),
            )
        event = read_trace(path)[0]
        assert event["node_busy"] == [1.5, 2.5]
        assert event["count"] == 3

    def test_read_trace_skips_blanks_and_reports_line_numbers(self):
        lines = [
            '{"type": "phase", "t": null, "wall": 1.0}',
            "",
            "not json",
        ]
        with pytest.raises(ValueError, match="line 3"):
            read_trace(lines)
        assert len(read_trace(lines[:2])) == 1

    def test_read_trace_rejects_two_records_on_one_line(self):
        lines = ['{"type": "a"}', '{"type": "b"},{"type": "c"}']
        with pytest.raises(ValueError, match="line 2: Extra data"):
            read_trace(lines)

    @pytest.mark.parametrize("record, key", [
        ('{"type": "x", "wall": null}', "wall"),
        ('{"type": "x", "t": [1]}', "t"),
        ('{"type": "x", "t": {"s": 1}, "wall": 2.0}', "t"),
        ('{"type": "x", "t": 1.0, "wall": [2.0]}', "wall"),
    ], ids=["wall-null", "t-list", "t-object", "wall-list"])
    def test_read_trace_names_the_line_of_a_non_numeric_clock(
        self, record, key
    ):
        lines = ['{"type": "x", "t": null, "wall": 1.0}', "", record]
        with pytest.raises(ValueError, match=f"line 3: .*'{key}'"):
            read_trace(lines)

    @settings(max_examples=200, deadline=None)
    @given(
        lines=st.lists(st.one_of(
            st.builds(
                lambda kind, t, n: json.dumps(
                    {"type": kind, "t": t, "wall": 1.0, "n": n}
                ),
                st.sampled_from(["phase", "batch.serviced"]),
                st.none() | st.floats(allow_nan=False),
                st.integers(),
            ),
            st.sampled_from(["", " ", "\t", "  \t "]),
        ), max_size=12),
        bad=st.none() | st.tuples(st.sampled_from([
            "not json", '{"type": "a"', "3", '"type"', "[1, 2]", "1]",
            '{"t": 1.0}', '{"type": "a"},{"type": "b"}',
            '{"type": "a", "t": [1]}', '{"type": "a", "t": "x"}',
            '{"type": "a", "wall": null}',
        ]), st.integers(min_value=0)),
    )
    def test_read_trace_names_the_malformed_line(self, lines, bad):
        """Blank lines count toward the number of the malformed line;
        without one, the records come back in order."""
        if bad is None:
            records = read_trace(io.StringIO("\n".join(lines)))
            assert records == [json.loads(line) for line in lines
                               if line.strip()]
            return
        line, at = bad
        at %= len(lines) + 1
        lines = lines[:at] + [line] + lines[at:]
        with pytest.raises(TraceFormatError, match=f"^line {at + 1}: "):
            read_trace(io.StringIO("\n".join(lines)))

    def test_failed_emit_leaves_no_partial_line(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlSink(path) as sink:
            tracer = Tracer(sink)
            tracer.emit("phase", t=0.0, name="a")
            with pytest.raises(TypeError, match="not JSON-serializable"):
                tracer.emit("phase", t=1.0, bad=object())
            tracer.emit("phase", t=2.0, name="b")
        assert sink.events_written == 2
        assert [e["name"] for e in read_trace(path)] == ["a", "b"]

    def test_memory_sink_keeps_what_it_forwarded(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = MemorySink(forward=JsonlSink(path))
        tracer = Tracer(sink)
        tracer.emit("phase", t=0.0, name="a")
        with pytest.raises(TypeError, match="not JSON-serializable"):
            tracer.emit("phase", t=1.0, bad=object())
        tracer.emit("phase", t=2.0, name="b")
        sink.close()
        assert sink.forward.events_written == 2
        assert [e["name"] for e in sink.events] == ["a", "b"]
        assert read_trace(path) == sink.events


class TestTraceEventEdgeCases:
    """Round-trips for awkward field payloads: non-finite floats, numpy
    scalars, and nested sequences must survive the JSONL boundary."""

    def roundtrip(self, **fields):
        buffer = io.StringIO()
        with JsonlSink(buffer) as sink:
            Tracer(sink).emit("phase", t=1.0, **fields)
        return parse_trace_line(buffer.getvalue().splitlines()[0])

    def test_non_finite_floats_roundtrip(self):
        import math

        event = self.roundtrip(
            burst=float("inf"), drain=float("-inf"), gap=float("nan")
        )
        assert event["burst"] == float("inf")
        assert event["drain"] == float("-inf")
        assert math.isnan(event["gap"])

    def test_numpy_scalars_become_python_numbers(self):
        np = pytest.importorskip("numpy")
        event = self.roundtrip(
            count=np.int32(7), ratio=np.float64(0.5), flag=np.bool_(True)
        )
        assert event["count"] == 7
        assert type(event["count"]) is int
        assert event["ratio"] == 0.5
        assert type(event["ratio"]) is float
        assert event["flag"] is True

    def test_nested_sequences_roundtrip(self):
        np = pytest.importorskip("numpy")
        event = self.roundtrip(
            matrix=np.arange(4.0).reshape(2, 2),
            mixed=[1, [2.5, "x"], {"k": (3, 4)}],
        )
        assert event["matrix"] == [[0.0, 1.0], [2.0, 3.0]]
        # JSON has no tuples: they come back as lists, values intact.
        assert event["mixed"] == [1, [2.5, "x"], {"k": [3, 4]}]

    def test_non_finite_sim_clock_roundtrips(self):
        import math

        buffer = io.StringIO()
        with JsonlSink(buffer) as sink:
            Tracer(sink).emit("phase", t=float("nan"))
        event = parse_trace_line(buffer.getvalue().splitlines()[0])
        assert math.isnan(event["t"])

    def test_unserializable_field_raises_type_error(self):
        with pytest.raises(TypeError, match="not JSON-serializable"):
            self.roundtrip(bad=object())


#: The engine's per-batch record layouts, which ``JsonlSink`` formats
#: itself: event type and each field after ``type``/``t``/``wall``, with
#: the kind of value it holds.
_ENQUEUED = [("node", int), ("operator", str), ("port", int),
             ("count", int), ("span", int), ("birth", float)]
_SERVICED = [("node", int), ("operator", str), ("port", int),
             ("count", int), ("out", int), ("work", float), ("span", int),
             ("start", float)]
_DIRECT_LAYOUTS = [
    ("batch.enqueued", _ENQUEUED),
    ("batch.enqueued", _ENQUEUED + [("parent", int)]),
    ("batch.serviced", _SERVICED),
    ("batch.serviced", _SERVICED + [("sink", str), ("latency", float)]),
    ("node.busy", [("node", int)]),
    ("node.idle", [("node", int)]),
]
#: Finite floats, including the ones whose shortest repr is awkward.
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 0.30000000000000004,
     1.7976931348623157e308, 1e16, 123456789.12345679]
)
_INTS = st.integers() | st.sampled_from([0, -1, 2**63, -(2**64), 10**40])
_NAMES = st.text(max_size=12) | st.sampled_from(
    ['"', "\\", '\\"\\', "\x00\n\t\x1f\x7f", "é ✓ 流 \U0001f600",
     "\ud800", "op/\u2028"]
)
_VALUES = {float: _FLOATS, int: _INTS, str: _NAMES}


@st.composite
def _direct_records(draw):
    type_, fields = draw(st.sampled_from(_DIRECT_LAYOUTS))
    record = {"type": draw(st.just(type_) | _NAMES),
              "t": draw(_FLOATS), "wall": draw(_FLOATS)}
    for key, kind in fields:
        record[key] = draw(_VALUES[kind])
    return record


def _perturbed(record, np):
    """Each record one change away from ``record`` that ``JsonlSink``
    must leave to the encoder: a value of another type or a non-finite
    float in one field, or keys out of layout."""
    for key, value in record.items():
        if type(value) is float:
            others = [np.float64(value), math.nan, math.inf, -math.inf,
                      None]
        elif type(value) is int:
            others = [True, False, None,
                      np.int64(max(-(2**63), min(value, 2**63 - 1)))]
        else:
            others = [None, 1]
        for other in others:
            yield {**record, key: other}
    keys = list(record)
    for i in range(len(keys) - 1):
        keys[i], keys[i + 1] = keys[i + 1], keys[i]
        yield {key: record[key] for key in keys}
        keys[i], keys[i + 1] = keys[i + 1], keys[i]
    yield {**record, "extra": 1}
    for dropped in ("type", "sink", "latency"):
        if dropped in record:
            yield {k: v for k, v in record.items() if k != dropped}


def _sink_line(record):
    buffer = io.StringIO()
    JsonlSink(buffer).write(record)
    return buffer.getvalue()


class TestDirectFormats:
    """``JsonlSink`` formats the engine's per-batch records without the
    encoder; what it writes must be what the encoder writes."""

    @settings(max_examples=300, deadline=None)
    @given(record=_direct_records())
    def test_lines_equal_the_encoders(self, record):
        np = pytest.importorskip("numpy")
        line = _sink_line(record)
        assert line == _encode_line(record) + "\n"
        assert read_trace([line]) == [record]
        for other in _perturbed(record, np):
            assert _sink_line(other) == _encode_line(other) + "\n"

    def test_engine_records_take_the_direct_formats(self):
        """Each per-batch record of a traced run has a direct layout, so
        a change to the engine's key order cannot quietly send every
        record back to the encoder."""
        from repro.core.load_model import build_load_model
        from repro.graphs.generator import monitoring_graph
        from repro.obs.trace import _LINES
        from repro.placement import RODPlacer
        from repro.simulator.engine import Simulator

        graph = monitoring_graph(2, seed=3)
        sink = MemorySink()
        Simulator(
            RODPlacer().place(build_load_model(graph), [1.0, 1.0]),
            tracer=Tracer(sink),
        ).run(rates=[80.0, 80.0], duration=5.0)
        records = [event for event in sink.events if event["type"] in (
            "batch.enqueued", "batch.serviced", "node.busy", "node.idle"
        )]
        assert {tuple(record) for record in records} == set(_LINES)
        for record in records:
            assert _LINES[tuple(record)](*record.values()) is not None


class TestPhaseTimer:
    def test_records_into_registry_and_trace(self):
        registry = MetricsRegistry()
        sink = MemorySink()
        tracer = Tracer(sink)
        with PhaseTimer("place.rod", registry=registry, tracer=tracer,
                        fields={"operators": 12}) as timer:
            pass
        assert timer.seconds is not None and timer.seconds >= 0
        family = registry.get(PHASE_METRIC)
        assert family is not None
        child = family.labels(phase="place.rod")
        assert child.count == 1
        event = sink.events[0]
        assert event["type"] == "phase"
        assert event["name"] == "place.rod"
        assert event["operators"] == 12

    def test_phase_report_aggregates_calls(self):
        registry = MetricsRegistry()
        for _ in range(3):
            with PhaseTimer("verify", registry=registry):
                pass
        report = phase_report(registry)
        assert "verify: calls=3" in report
        assert "total=" in report and "mean=" in report

    def test_phase_report_empty_registry(self):
        assert phase_report(MetricsRegistry()) == ""

    def test_standalone_timer(self):
        with PhaseTimer("adhoc") as timer:
            pass
        assert timer.seconds is not None


class TestObservabilityBundle:
    def test_defaults_to_disabled_tracing(self):
        obs = Observability()
        assert not obs.tracer.enabled
        with obs.phase("x"):
            pass
        assert "x: calls=1" in obs.phase_report()

    def test_phase_streams_to_tracer(self):
        sink = MemorySink()
        obs = Observability(tracer=Tracer(sink))
        with obs.phase("y", detail=1):
            pass
        assert sink.events[0]["detail"] == 1

    def test_repr_mentions_tracing_state(self):
        assert "tracing=off" in repr(Observability())


class TestLogging:
    def test_get_logger_namespaces_under_repro(self):
        assert get_logger().name == "repro"
        assert get_logger("repro.simulator").name == "repro.simulator"
        assert get_logger("other").name == "repro.other"

    def test_level_mapping(self):
        assert level_for(-1) == logging.ERROR
        assert level_for(0) == logging.WARNING
        assert level_for(1) == logging.INFO
        assert level_for(2) == logging.DEBUG
        assert level_for(5) == logging.DEBUG

    def test_configure_idempotent(self):
        logger = configure(verbosity=0)
        before = len(logger.handlers)
        configure(verbosity=2)
        assert len(logger.handlers) == before
        assert logger.level == logging.DEBUG
        configure(verbosity=0)

    def test_configured_output_format(self):
        stream = io.StringIO()
        logger = configure(verbosity=1, stream=stream)
        get_logger("repro.test_obs").info("hello %d", 7)
        assert "INFO repro.test_obs: hello 7" in stream.getvalue()
        configure(verbosity=0, stream=io.StringIO())
        assert logger.level == logging.WARNING
