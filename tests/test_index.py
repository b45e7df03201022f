"""The trace index: one walk per reader, lazy views, shared burn windows.

:class:`repro.obs.index.RunIndex` is the only code that reads the trace
format.  These tests pin what it promises the readers: each reader walks
a trace's event list at most once (commands included), a reader builds
only the views it uses, views keep trace order, an event on a node the
header does not declare is rejected by name, and the online
``SloWatcher`` and the offline latency verdict judge the same windows.
"""

import functools
import os

import pytest

from repro.cli import main
from repro.core.load_model import build_load_model
from repro.dynamics import FailoverController, LoadBalancingController
from repro.faults import chaos_schedule
from repro.graphs.generator import monitoring_graph
from repro.obs import MemorySink, TraceFormatError, Tracer, read_trace
from repro.obs import trace as trace_module
from repro.obs.analyze import analyze_trace
from repro.obs.critical_path import analyze_critical_path
from repro.obs.decisions import render_why_report, why_json_obj
from repro.obs.index import RunIndex
from repro.obs.slo import (
    LatencyObjective,
    SloWatcher,
    ThroughputObjective,
    evaluate_slos,
)
from repro.obs.timeline import render_trace_report
from repro.placement import RODPlacer
from repro.simulator.engine import Simulator

OBJECTIVES = (
    LatencyObjective(name="p95", threshold_seconds=0.05, target=0.95,
                     window_seconds=1.0),
    ThroughputObjective(name="floor", min_tuples_per_second=40.0,
                        window_seconds=1.0),
)


class CountingList(list):
    """An event list that counts the walks over it."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@functools.lru_cache(maxsize=None)
def chaos_events():
    """A traced chaos run with failover: spans, stalls, crashes,
    decisions, migrations and drift detections."""
    graph = monitoring_graph(3, seed=1)
    placement = RODPlacer().place(build_load_model(graph), [1.0] * 3)
    sink = MemorySink()
    Simulator(
        placement, step_seconds=0.1, tracer=Tracer(sink),
        controller=FailoverController(policy="volume", samples=128,
                                      failback=True),
        faults=chaos_schedule(3, horizon=10.0, seed=7,
                              operator_names=graph.operator_names),
    ).run(rates=[60.0] * 3, duration=10.0)
    return tuple(sink.events)


READERS = {
    "analyze_trace": analyze_trace,
    "analyze_critical_path": analyze_critical_path,
    "why_json_obj": why_json_obj,
    "render_why_report": render_why_report,
    "evaluate_slos": lambda events: evaluate_slos(events, OBJECTIVES),
    "render_trace_report": render_trace_report,
}


class TestOneWalk:
    @pytest.mark.parametrize("name", sorted(READERS))
    def test_reader_walks_the_events_once(self, name):
        events = CountingList(chaos_events())
        READERS[name](events)
        assert events.walks <= 1

    def test_report_command_walks_the_events_once(
        self, tmp_path, monkeypatch, capsys
    ):
        root = _record_chaos_run(tmp_path, capsys)
        walked = []

        def counting_read(path):
            walked.append(CountingList(read_trace(path)))
            return walked[-1]

        monkeypatch.setattr("repro.obs.runs.read_trace", counting_read)
        assert main(["report", "run", "--root", root]) == 0
        assert [events.walks for events in walked] == [1]

    def test_simulate_snapshot_walks_the_events_once(
        self, tmp_path, monkeypatch, capsys
    ):
        sinks = []
        original = MemorySink.__init__

        def counting_init(self, forward=None):
            original(self, forward)
            self.events = CountingList()
            sinks.append(self)

        monkeypatch.setattr(trace_module.MemorySink, "__init__",
                            counting_init)
        _record_chaos_run(tmp_path, capsys)
        assert len(sinks) == 1 and len(sinks[0].events) > 0
        assert sinks[0].events.walks <= 1


def _record_chaos_run(tmp_path, capsys):
    """Generate, place and record a chaos + failover run; its root."""
    graph = str(tmp_path / "graph.json")
    plan = str(tmp_path / "plan.json")
    root = str(tmp_path / "runs")
    assert main(["generate", "--kind", "random", "--inputs", "2",
                 "--ops-per-tree", "5", "--seed", "3", "-o", graph]) == 0
    assert main(["place", "--graph", graph, "--nodes", "2",
                 "--algorithm", "rod", "-o", plan]) == 0
    assert main(["simulate", "--graph", graph, "--plan", plan,
                 "--rates", "20,20", "--duration", "6",
                 "--chaos-seed", "5", "--failover", "volume",
                 "--record", root, "--run-id", "run"]) == 0
    capsys.readouterr()
    assert os.path.exists(os.path.join(root, "run", "trace.jsonl"))
    return root


class TestViews:
    def test_a_reader_builds_only_the_views_it_uses(self):
        index = RunIndex(chaos_events())
        why_json_obj(index)
        built = set(vars(index)) & {
            "meta", "work", "sink_samples", "queues", "idle_transitions",
            "spans", "type_counts",
        }
        assert built == set()

    def test_views_are_built_once_and_shared(self):
        index = RunIndex(chaos_events())
        assert analyze_trace(index).migrations is index.migrations
        assert analyze_critical_path(index).spans_total == len(index.spans)
        assert RunIndex(chaos_events()).spans.keys() == index.spans.keys()

    def test_work_and_samples_keep_trace_order(self):
        events = chaos_events()
        index = RunIndex(events)
        work = [
            e for e in events if e["type"] in ("batch.serviced", "node.stall")
        ]
        assert [entry[0] for entry in index.work] == [e["t"] for e in work]
        assert [entry[1] for entry in index.work] == [
            e["node"] for e in work
        ]
        assert any(entry[3] is None for entry in index.work)  # stalls
        sinks = [
            e for e in events
            if e["type"] == "batch.serviced" and "sink" in e
        ]
        assert [s[1] for s in index.sink_samples] == [
            e["latency"] for e in sinks
        ]

    def test_drift_is_each_detection_s_fields_then_its_t(self):
        events = chaos_events()
        detections = [e for e in events if e["type"] == "drift.detected"]
        drift = RunIndex(events).drift
        assert drift and len(drift) == len(detections)
        fields = ["signal", "direction", "statistic", "threshold",
                  "observed", "baseline"]
        for view, event in zip(drift, detections):
            tail = ["input", "t"] if "input" in event else ["t"]
            assert list(view) == fields + tail
            assert view == {key: event[key] for key in fields + tail}

    def test_type_counts(self):
        events = chaos_events()
        counts = {}
        for event in events:
            counts[event["type"]] = counts.get(event["type"], 0) + 1
        index = RunIndex(events)
        # The pass tallies the batch and busy/idle events, so the counts
        # walk neither of their lists again.
        index._queue = CountingList(index._queue)
        index._transitions = CountingList(index._transitions)
        assert index.type_counts == counts
        assert index._queue.walks == index._transitions.walks == 0

    def test_subset_reads_against_the_given_geometry(self):
        events = chaos_events()
        full = RunIndex(events)
        subset = RunIndex(
            [e for e in events if e["type"] == "batch.serviced"], full.meta
        )
        assert subset.meta == full.meta
        assert subset.meta is not full.meta


class TestImpossibleTraces:
    def test_node_outside_the_header(self):
        events = list(chaos_events())
        header = events[0]
        assert header["type"] == "sim.start"
        events[0] = dict(header, nodes=2)
        index = RunIndex(events)
        with pytest.raises(TraceFormatError, match="names node 2, but the "
                                                   "trace declares 2 node"):
            index.work
        with pytest.raises(TraceFormatError, match="names node 2"):
            analyze_trace(index)


class TestSloWatcherIsTheOfflineVerdict:
    def test_online_windows_equal_the_offline_verdict(self):
        objective = LatencyObjective(
            name="p99", threshold_seconds=0.05, target=0.99,
            window_seconds=1.0,
        )
        watcher = SloWatcher(objective)
        graph = monitoring_graph(2, seed=7)
        placement = RODPlacer().place(build_load_model(graph), [1.0, 1.0])
        sink = MemorySink()
        Simulator(
            placement, step_seconds=0.1, tracer=Tracer(sink),
            controller=LoadBalancingController(
                period=1.0, slo_watcher=watcher
            ),
        ).run(rates=[250.0, 250.0], duration=8.0)
        watcher.close()
        (offline,) = evaluate_slos(sink.events, [objective]).results
        assert watcher.windows > 1
        assert (offline.windows, offline.breach_windows) == (
            watcher.windows, watcher.breaches
        )
        assert offline.worst_burn_rate == watcher.worst_burn_rate
        assert offline.bad_fraction == (
            watcher.bad_tuples / watcher.tuples
        )
