"""Run registry, trace analytics, diff engine, and HTML reports.

The acceptance-critical invariants live here:

* the analyzer's busy totals and latency aggregates match the
  :class:`~repro.simulator.metrics.SimulationResult` **exactly** (not
  approximately) — the trace carries the same samples the engine saw;
* two runs of the same seed/config diff to zero deltas and exit 0;
* the HTML report is self-contained (no external URLs, no scripts).
"""

import contextlib
import io
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.cli import main
from repro.deploy import Deployment
from repro.graphs import monitoring_graph
from repro.graphs.serialize import dump_graph
from repro.obs import read_trace
from repro.obs.analyze import analyze_trace
from repro.obs.diff import (
    DEFAULT_THRESHOLD,
    MetricDelta,
    compare_metrics,
    compare_runs,
    flatten_metrics,
    parse_thresholds,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runs import (
    ANALYSIS_FORMAT,
    Recording,
    Run,
    RunManifest,
    RunWriter,
    config_digest,
    find_run,
    list_runs,
    load_run,
    snapshot_from_result,
    snapshot_from_rows,
)
from repro.obs.report_html import render_html_report, write_html_report
from tests.test_engine import RUNS, drawn_simulator


@pytest.fixture
def deployment():
    graph = monitoring_graph(num_links=2, seed=3)
    return Deployment.plan(graph, [1.0, 1.0])


@pytest.fixture
def sim_run(tmp_path, deployment):
    """One recorded simulation run: (result, Run)."""
    root = str(tmp_path / "runs")
    result = deployment.simulate(
        rates=[40.0, 40.0], duration=5.0,
        runs_root=root, run_id="fixture-run",
    )
    return result, load_run(os.path.join(root, "fixture-run"))


class TestConfigDigest:
    def test_stable_across_key_order(self):
        assert config_digest({"a": 1, "b": [2.0]}) == config_digest(
            {"b": [2.0], "a": 1}
        )

    def test_distinguishes_values(self):
        assert config_digest({"rate": 1.0}) != config_digest({"rate": 2.0})

    def test_short_hex(self):
        digest = config_digest({"x": 1})
        assert len(digest) == 12
        int(digest, 16)  # hex


class TestRunWriter:
    def test_finish_writes_manifest_result_metrics(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c", "c").inc(3)
        writer = RunWriter(
            root=str(tmp_path), kind="simulate", run_id="r1",
            config={"rate": 2.0}, seed=7, argv=["simulate", "--x"],
            labels={"suite": "unit"},
        )
        manifest = writer.finish(
            snapshot={"kind": "simulate", "max_utilization": 0.5},
            registry=registry, sim_seconds=10.0,
        )
        assert manifest.run_id == "r1"
        run = load_run(str(tmp_path / "r1"))
        assert run.manifest.seed == 7
        assert run.manifest.kind == "simulate"
        assert run.manifest.argv == ["simulate", "--x"]
        assert run.manifest.labels == {"suite": "unit"}
        assert run.manifest.sim_seconds == 10.0
        assert run.manifest.config_digest == config_digest({"rate": 2.0})
        assert run.result["max_utilization"] == 0.5
        assert run.metrics["c"]["samples"][0]["value"] == 3.0
        assert not run.has_trace  # no events were streamed

    def test_finish_twice_rejected(self, tmp_path):
        writer = RunWriter(root=str(tmp_path), kind="simulate", run_id="r")
        writer.finish()
        assert writer.finished
        with pytest.raises(RuntimeError):
            writer.finish()

    def test_trace_sink_streams_into_run_dir(self, tmp_path):
        from repro.obs import Tracer

        writer = RunWriter(root=str(tmp_path), kind="simulate", run_id="r")
        Tracer(writer.trace_sink()).emit("sim.start", t=0.0, nodes=1)
        writer.finish()
        run = load_run(str(tmp_path / "r"))
        assert run.has_trace
        assert run.index().events[0]["type"] == "sim.start"

    def test_colliding_run_ids_get_unique_dirs(self, tmp_path):
        RunWriter(root=str(tmp_path), kind="simulate", run_id="dup").finish()
        second = RunWriter(
            root=str(tmp_path), kind="simulate", run_id="dup"
        )
        second.finish()
        assert second.run_id != "dup"
        assert second.run_id.startswith("dup")
        assert len(list_runs(str(tmp_path))) == 2

    def test_auto_run_id_embeds_config_digest(self, tmp_path):
        writer = RunWriter(
            root=str(tmp_path), kind="simulate", config={"a": 1}
        )
        assert config_digest({"a": 1})[:8] in writer.run_id


class TestRegistryLookup:
    def make_run(self, root, run_id):
        RunWriter(root=root, kind="simulate", run_id=run_id).finish()

    def test_find_by_id_and_by_path(self, tmp_path):
        root = str(tmp_path)
        self.make_run(root, "abc")
        assert find_run("abc", root=root).run_id == "abc"
        assert find_run(str(tmp_path / "abc")).run_id == "abc"

    def test_find_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            find_run("nope", root=str(tmp_path))

    def test_list_skips_non_run_dirs(self, tmp_path):
        root = str(tmp_path)
        self.make_run(root, "good")
        (tmp_path / "stray").mkdir()  # no manifest
        (tmp_path / "broken").mkdir()
        (tmp_path / "broken" / "manifest.json").write_text("not json")
        assert [r.run_id for r in list_runs(root)] == ["good"]

    def test_list_missing_root_is_empty(self, tmp_path):
        assert list_runs(str(tmp_path / "absent")) == []

    def test_manifest_roundtrip(self):
        manifest = RunManifest(
            run_id="r", kind="simulate", created_wall=123.0,
            config={"a": 1}, config_digest="ff", seed=None,
            version="1.0", argv=["x"], wall_seconds=0.5,
            sim_seconds=None, placement={"assignment": {}},
            labels={},
        )
        again = RunManifest.from_json_obj(manifest.to_json_obj())
        assert again == manifest


class TestSnapshots:
    def test_snapshot_from_result_is_flat_and_jsonable(self, deployment):
        result = deployment.simulate(rates=[40.0, 40.0], duration=3.0)
        snapshot = json.loads(json.dumps(snapshot_from_result(result)))
        assert snapshot["kind"] == "simulate"
        assert snapshot["tuples_in"] == result.tuples_in
        assert snapshot["latency"]["p95"] == result.latency.percentile(95)
        assert len(snapshot["node_busy"]) == 2

    def test_snapshot_from_rows(self):
        snapshot = snapshot_from_rows([{"alg": "rod", "ratio": 0.9}])
        assert snapshot["kind"] == "experiment"
        assert snapshot["rows"][0]["ratio"] == 0.9


class TestAnalyzerExactness:
    """The trace is a faithful journal: replaying it reproduces the
    engine's own aggregates bit-for-bit."""

    def analysis_and_result(self, sim_run):
        result, run = sim_run
        return analyze_trace(run.index()), result

    def test_busy_totals_match_exactly(self, sim_run):
        analysis, result = self.analysis_and_result(sim_run)
        assert np.array_equal(analysis.busy_totals(), result.node_busy)

    def test_utilization_matches_exactly(self, sim_run):
        analysis, result = self.analysis_and_result(sim_run)
        assert np.array_equal(analysis.utilization(), result.node_utilization)

    def test_latency_aggregates_match_exactly(self, sim_run):
        analysis, result = self.analysis_and_result(sim_run)
        assert analysis.latency.total_tuples == result.latency.total_tuples
        assert analysis.latency.mean() == result.latency.mean()
        assert analysis.latency.maximum() == result.latency.maximum()
        assert analysis.latency.percentiles() == result.latency.percentiles()

    def test_sink_latency_matches_exactly(self, sim_run):
        analysis, result = self.analysis_and_result(sim_run)
        assert set(analysis.sink_latency) == set(result.sink_latency)
        for sink, stats in result.sink_latency.items():
            assert analysis.sink_latency[sink].mean() == stats.mean()
            assert (
                analysis.sink_latency[sink].total_tuples
                == stats.total_tuples
            )

    def test_tuples_out_matches(self, sim_run):
        analysis, result = self.analysis_and_result(sim_run)
        assert analysis.tuples_out == result.tuples_out

    def test_operator_breakdown_covers_graph(self, sim_run):
        analysis, result = self.analysis_and_result(sim_run)
        assert set(analysis.operators) == set(result.operator_stats)
        for name, stats in result.operator_stats.items():
            assert analysis.operators[name].tuples_in == stats.tuples_in
            assert analysis.operators[name].tuples_out == stats.tuples_out

    def test_to_json_obj_roundtrips(self, sim_run):
        analysis, _ = self.analysis_and_result(sim_run)
        doc = json.loads(json.dumps(analysis.to_json_obj()))
        assert doc["tuples_out"] == analysis.tuples_out
        assert len(doc["nodes"]) == analysis.num_nodes


class TestFlatten:
    def test_nested_dicts_and_lists(self):
        flat = flatten_metrics({
            "latency": {"p95": 0.1}, "node_busy": [1.0, 2.0],
            "kind": "simulate", "feasible": True,
        })
        assert flat == {
            "latency.p95": 0.1, "node_busy.0": 1.0, "node_busy.1": 2.0,
        }


class TestDiffEngine:
    def test_identical_metrics_zero_delta(self):
        snapshot = {"latency": {"p95": 0.25}, "tuples_out": 100}
        diff = compare_metrics(snapshot, snapshot)
        assert diff.changed == []
        assert diff.breaches == []
        assert "0 breach(es)" in diff.format()

    def test_higher_latency_breaches(self):
        diff = compare_metrics(
            {"latency": {"p95": 0.1}}, {"latency": {"p95": 0.2}},
            default_threshold=0.05,
        )
        assert [d.name for d in diff.breaches] == ["latency.p95"]

    def test_lower_latency_is_improvement_not_breach(self):
        diff = compare_metrics(
            {"latency": {"p95": 0.2}}, {"latency": {"p95": 0.1}},
            default_threshold=0.05,
        )
        assert diff.changed and not diff.breaches

    def test_fewer_tuples_out_breaches(self):
        diff = compare_metrics(
            {"tuples_out": 100}, {"tuples_out": 50},
            default_threshold=0.05,
        )
        assert [d.name for d in diff.breaches] == ["tuples_out"]

    def test_unknown_polarity_breaches_both_ways(self):
        for b in (50, 200):
            diff = compare_metrics(
                {"mystery": 100}, {"mystery": b}, default_threshold=0.05
            )
            assert diff.breaches

    def test_within_threshold_tolerated(self):
        diff = compare_metrics(
            {"latency": {"p95": 1.0}}, {"latency": {"p95": 1.01}},
            default_threshold=0.02,
        )
        assert diff.changed and not diff.breaches

    def test_per_metric_threshold_overrides_default(self):
        diff = compare_metrics(
            {"latency": {"p95": 1.0}}, {"latency": {"p95": 1.5}},
            thresholds={"latency.p95": 0.6}, default_threshold=0.01,
        )
        assert not diff.breaches

    def test_prefix_threshold_applies_to_children(self):
        diff = compare_metrics(
            {"latency": {"p95": 1.0, "p99": 1.0}},
            {"latency": {"p95": 1.5, "p99": 1.5}},
            thresholds={"latency": 0.6}, default_threshold=0.01,
        )
        assert not diff.breaches

    def test_appearing_from_zero_always_breaches(self):
        diff = compare_metrics(
            {"backlog_seconds": [0.0]}, {"backlog_seconds": [0.4]},
            default_threshold=100.0,
        )
        assert [d.name for d in diff.breaches] == ["backlog_seconds.0"]
        assert diff.breaches[0].relative == float("inf")

    def test_structural_drift_reported(self):
        diff = compare_metrics({"only_in_a": 1.0}, {"only_in_b": 2.0})
        assert diff.only_a == ["only_in_a"]
        assert diff.only_b == ["only_in_b"]
        text = diff.format()
        assert "only_in_a" in text and "only_in_b" in text

    def test_parse_thresholds(self):
        assert parse_thresholds(["latency.p95=0.1", "node=0.5"]) == {
            "latency.p95": 0.1, "node": 0.5,
        }
        with pytest.raises(ValueError):
            parse_thresholds(["nonsense"])
        with pytest.raises(ValueError):
            parse_thresholds(["x=-1"])

    def test_default_threshold_constant(self):
        assert DEFAULT_THRESHOLD == pytest.approx(0.02)

    def test_metric_delta_relative(self):
        delta = MetricDelta(
            name="latency.p95", a=2.0, b=3.0, threshold=0.1, direction=1
        )
        assert delta.delta == pytest.approx(1.0)
        assert delta.relative == pytest.approx(0.5)


class TestCompareRuns:
    def test_same_seed_same_config_zero_delta(self, tmp_path, deployment):
        """Acceptance criterion: identical runs diff to nothing."""
        root = str(tmp_path / "runs")
        for run_id in ("a", "b"):
            deployment.simulate(
                rates=[40.0, 40.0], duration=5.0,
                runs_root=root, run_id=run_id,
            )
        diff = compare_runs(
            find_run("a", root=root), find_run("b", root=root)
        )
        assert diff.changed == []
        assert diff.breaches == []

    def test_hotter_run_breaches(self, tmp_path, deployment):
        root = str(tmp_path / "runs")
        deployment.simulate(rates=[40.0, 40.0], duration=5.0,
                            runs_root=root, run_id="cool")
        deployment.simulate(rates=[70.0, 70.0], duration=5.0,
                            runs_root=root, run_id="hot")
        diff = compare_runs(
            find_run("cool", root=root), find_run("hot", root=root)
        )
        assert any("latency" in d.name for d in diff.breaches)


class TestDeploymentRecording:
    def test_run_dir_is_complete(self, sim_run):
        result, run = sim_run
        assert run.manifest.kind == "simulate"
        assert run.manifest.sim_seconds == result.duration
        assert run.manifest.placement is not None
        assert run.manifest.wall_seconds is not None
        assert run.has_trace
        assert run.result["max_utilization"] == float(
            np.max(result.node_utilization)
        )

    def test_trace_out_still_wins_over_run_dir(self, tmp_path, deployment):
        root = str(tmp_path / "runs")
        trace = str(tmp_path / "external.jsonl")
        deployment.simulate(
            rates=[40.0, 40.0], duration=2.0, trace_out=trace,
            runs_root=root, run_id="r",
        )
        run = find_run("r", root=root)
        assert not run.has_trace  # stream went to the explicit file
        assert read_trace(trace)[0]["type"] == "sim.start"

    def test_result_json_equals_the_cli_record(self, tmp_path, capsys):
        """The API and ``simulate --record`` build one snapshot: the same
        run recorded both ways writes the same ``result.json`` bytes,
        trace-derived sections included."""
        deployment = Deployment.plan(monitoring_graph(2, seed=1), [1.0, 1.0])
        graph, plan = tmp_path / "g.json", tmp_path / "p.json"
        dump_graph(deployment.model.graph, str(graph))
        plan.write_text(json.dumps(deployment.placement.to_document()))
        root = tmp_path / "runs"
        deployment.simulate(
            rates=[40.0, 40.0], duration=5.0,
            runs_root=str(root), run_id="api",
        )
        assert main([
            "simulate", "--graph", str(graph), "--plan", str(plan),
            "--rates", "40,40", "--duration", "5",
            "--record", str(root), "--run-id", "cli",
        ]) == 0
        api = (root / "api" / "result.json").read_bytes()
        cli = (root / "cli" / "result.json").read_bytes()
        assert b'"critical_path"' in cli
        assert api == cli
        # The traces differ by `wall`, so their digests differ; the
        # documents the viewers render do not.
        api, cli = (
            json.loads((root / name / "analysis.json").read_text())
            for name in ("api", "cli")
        )
        for analysis in (api, cli):
            assert len(analysis.pop("trace_sha256")) == 64
        assert api["format"] == ANALYSIS_FORMAT
        assert list(api) == ["format", "explain", "why"]
        assert api == cli

    def test_failed_simulation_still_seals_manifest(
        self, tmp_path, deployment
    ):
        root = str(tmp_path / "runs")
        with pytest.raises(ValueError):
            deployment.simulate(
                rates=[40.0], duration=2.0,  # wrong arity
                runs_root=root, run_id="crash",
            )
        run = find_run("crash", root=root)
        assert run.result == {}  # sealed without a snapshot


class TestExperimentRecording:
    def test_record_experiment_run(self, tmp_path, capsys):
        root = str(tmp_path)
        start = time.perf_counter()
        assert main([
            "experiment", "fig2", "--record", root, "--run-id", "e1",
        ]) == 0
        elapsed = time.perf_counter() - start
        run = find_run("e1", root=root)
        assert run.manifest.labels == {"experiment": "fig2"}
        assert run.manifest.config == {"experiment": "fig2"}
        assert [row["trace"] for row in run.result["rows"]] == [
            "PKT", "TCP", "HTTP",
        ]
        # The run's clock covers the artifact, not just the recording.
        assert run.manifest.wall_seconds >= elapsed / 2


class TestHtmlReport:
    def test_simulation_report_self_contained(self, tmp_path, sim_run):
        _, run = sim_run
        html = render_html_report(run)
        assert html.startswith("<!DOCTYPE html>")
        for banned in ("http://", "https://", "<script"):
            assert banned not in html
        assert "<svg" in html  # sparklines / heatmap rendered inline
        assert run.run_id in html
        out = write_html_report(run, str(tmp_path / "report.html"))
        assert Path(out).read_text() == html

    def test_experiment_report_renders_rows(self, tmp_path):
        writer = RunWriter(
            root=str(tmp_path), kind="experiment", run_id="e",
            config={"experiment": "fig9"},
        )
        writer.finish(snapshot=snapshot_from_rows(
            [{"alg": "rod", "ratio": 0.91}]
        ))
        html = render_html_report(find_run("e", root=str(tmp_path)))
        assert "rod" in html and "0.91" in html
        assert "<script" not in html

    def test_traceless_run_reports_without_analysis(self, tmp_path):
        writer = RunWriter(root=str(tmp_path), kind="simulate", run_id="r")
        writer.finish(snapshot={"kind": "simulate", "max_utilization": 0.1})
        html = render_html_report(Run(str(tmp_path / "r")))
        assert "max_utilization" in html or "0.1" in html


def _record_drawn(root, graph_seed, chaos_seed, controller):
    """Record one drawn run through :class:`Recording`, as ``simulate
    --record`` does; its run directory."""
    with Recording(root, "simulate", {}, keep_events=True,
                   run_id="run") as recording:
        simulator, series = drawn_simulator(
            graph_seed, chaos_seed, controller, tracer=recording.tracer
        )
        recording.finish_simulation(
            simulator.run(rate_series=series), MetricsRegistry()
        )
    return recording.writer.path


#: The viewer invocations whose bytes must not depend on
#: ``analysis.json``; the HTML report, which renders the stored
#: ``explain`` document too, is checked beside them.
VIEWS = (
    ["explain"], ["explain", "--top", "3"], ["explain", "--json"],
    ["why"], ["why", "--json"],
)


def _rendered(run_dir, scratch):
    """Exit code and stdout of every view of ``VIEWS``, then the HTML
    report's bytes."""
    outputs = []
    for argv in VIEWS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main([*argv, str(run_dir)])
        outputs.append((code, buffer.getvalue()))
    report = os.path.join(scratch, "report.html")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["report", str(run_dir), "-o", report]) == 0
    outputs.append(Path(report).read_bytes())
    return outputs


def _without_analysis(run_dir, path):
    """A copy of ``run_dir`` at ``path`` without its ``analysis.json``."""
    shutil.copytree(run_dir, path)
    os.remove(os.path.join(path, "analysis.json"))
    return path


class TestStoredAnalysis:
    """``analysis.json`` is a cache: the viewers print the same bytes
    from it as from the run's trace, and ignore it when it cannot be
    trusted."""

    @settings(max_examples=10, deadline=None)
    @given(**RUNS)
    @example(graph_seed=1, chaos_seed=7, controller="failover")
    @example(graph_seed=2, chaos_seed=None, controller="none")
    @example(graph_seed=3, chaos_seed=5, controller="balance")
    @example(graph_seed=4, chaos_seed=None, controller="elastic")
    def test_stored_and_computed_documents_render_the_same_bytes(
        self, graph_seed, chaos_seed, controller
    ):
        with tempfile.TemporaryDirectory() as directory:
            stored = _record_drawn(
                os.path.join(directory, "runs"), graph_seed, chaos_seed,
                controller,
            )
            bare = _without_analysis(
                stored, os.path.join(directory, "bare")
            )
            assert Run(stored).analysis is not None
            assert Run(bare).analysis is None
            assert _rendered(stored, directory) == _rendered(
                bare, directory
            )

    @pytest.fixture(scope="class")
    def recorded(self, tmp_path_factory):
        """A recorded chaos + failover run and its analysis-less copy."""
        work = tmp_path_factory.mktemp("stored")
        stored = _record_drawn(str(work / "runs"), 1, 7, "failover")
        return stored, _without_analysis(stored, str(work / "bare"))

    @pytest.mark.parametrize("damage", [
        "not-json", "unknown-format", "stale-digest",
    ])
    def test_a_damaged_analysis_is_ignored(self, recorded, tmp_path, damage):
        stored, bare = recorded
        damaged = str(tmp_path / "damaged")
        shutil.copytree(stored, damaged)
        path = os.path.join(damaged, "analysis.json")
        document = json.loads(Path(path).read_text())
        # Empty documents: rendering them would fail.
        document.update(explain={}, why={})
        if damage == "not-json":
            Path(path).write_text(json.dumps(document)[:-1])
        elif damage == "unknown-format":
            document["format"] = ANALYSIS_FORMAT + 1
            Path(path).write_text(json.dumps(document))
        else:
            document["trace_sha256"] = "0" * 64
            Path(path).write_text(json.dumps(document))
        assert Run(damaged).analysis is None
        assert _rendered(damaged, str(tmp_path)) == _rendered(
            bare, str(tmp_path)
        )

