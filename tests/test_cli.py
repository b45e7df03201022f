"""Tests for the command-line interface."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.paper import ARTIFACTS


@pytest.fixture
def graph_file(tmp_path):
    path = str(tmp_path / "graph.json")
    code = main([
        "generate", "--kind", "random", "--inputs", "2",
        "--ops-per-tree", "5", "--seed", "3", "-o", path,
    ])
    assert code == 0
    return path


@pytest.fixture
def plan_file(tmp_path, graph_file):
    path = str(tmp_path / "plan.json")
    code = main([
        "place", "--graph", graph_file, "--nodes", "2",
        "--algorithm", "rod", "-o", path,
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_valid_graph_document(self, graph_file):
        with open(graph_file) as handle:
            doc = json.load(handle)
        assert len(doc["inputs"]) == 2
        assert len(doc["operators"]) == 10

    def test_monitoring_kind(self, tmp_path):
        path = str(tmp_path / "mon.json")
        assert main(["generate", "--kind", "monitoring", "--inputs", "2",
                     "-o", path]) == 0
        with open(path) as handle:
            assert json.load(handle)["name"].startswith("monitoring")

    def test_joins_kind(self, tmp_path):
        path = str(tmp_path / "j.json")
        assert main(["generate", "--kind", "joins", "--inputs", "2",
                     "-o", path]) == 0


class TestPlace:
    def test_plan_document(self, plan_file):
        with open(plan_file) as handle:
            doc = json.load(handle)
        assert set(doc) == {
            "graph", "capacities", "assignment", "node_coefficients",
        }
        assert all(node in (0, 1) for node in doc["assignment"].values())
        assert len(doc["node_coefficients"]) == len(doc["capacities"])

    @pytest.mark.parametrize(
        "algorithm", ["llf", "random", "connected", "correlation", "milp"]
    )
    def test_other_algorithms(self, graph_file, algorithm, capsys):
        assert main([
            "place", "--graph", graph_file, "--nodes", "2",
            "--algorithm", algorithm, "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "feasible-set ratio" in out


class TestEvaluate:
    def test_prints_metrics_and_plot(self, graph_file, plan_file, capsys):
        assert main([
            "evaluate", "--graph", graph_file, "--plan", plan_file,
        ]) == 0
        out = capsys.readouterr().out
        assert "plane distance" in out
        assert "> r1" in out  # 2-D plot rendered


class TestSimulate:
    def test_feasible_point_exits_zero(self, graph_file, plan_file, capsys):
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "3", "--check",
        ]) == 0
        assert "feasible at this rate point: True" in capsys.readouterr().out

    def test_infeasible_point_fails_check(self, graph_file, plan_file):
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "100000,100000", "--duration", "3", "--check",
        ]) == 1

    def test_rate_count_must_match_the_graph(
        self, graph_file, plan_file, capsys
    ):
        """A rate list that does not fit the graph exits 1 before the
        run, naming both counts."""
        with pytest.raises(SystemExit,
                           match="got 3 rates for a graph with 2 inputs"):
            main(["simulate", "--graph", graph_file, "--plan", plan_file,
                  "--rates", "60,1,1"])
        assert capsys.readouterr().out == ""


class TestSimulateFaults:
    def test_fault_schedule_file(self, tmp_path, graph_file, plan_file,
                                 capsys):
        faults = str(tmp_path / "faults.json")
        with open(faults, "w") as handle:
            json.dump([
                {"time": 1.0, "kind": "node.crash", "node": 1},
                {"time": 2.0, "kind": "node.recover", "node": 1},
            ], handle)
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "3", "--faults", faults,
        ]) == 0
        assert "faults=2" in capsys.readouterr().out

    def test_stranded_work_fails_check(self, tmp_path, graph_file,
                                       plan_file, capsys):
        """A node that crashes for good strands its queued tuples: the
        point is not feasible, whatever the utilization reads."""
        faults = str(tmp_path / "faults.json")
        with open(faults, "w") as handle:
            json.dump([{"time": 1.0, "kind": "node.crash", "node": 1}],
                      handle)
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "3", "--faults", faults,
            "--check",
        ]) == 1
        out = capsys.readouterr().out
        assert "stranded=0" not in out
        assert "feasible at this rate point: False" in out

    def test_chaos_seed_with_failover(self, graph_file, plan_file,
                                      capsys):
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "4",
            "--chaos-seed", "3", "--failover", "volume",
        ]) == 0
        assert "faults=" in capsys.readouterr().out

    def test_faults_and_chaos_are_exclusive(self, tmp_path, graph_file,
                                            plan_file):
        faults = str(tmp_path / "faults.json")
        with open(faults, "w") as handle:
            json.dump([], handle)
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main([
                "simulate", "--graph", graph_file, "--plan", plan_file,
                "--rates", "20,20", "--duration", "3",
                "--faults", faults, "--chaos-seed", "1",
            ])

    def test_unknown_failover_policy_is_a_usage_error(
        self, graph_file, plan_file, capsys
    ):
        from repro.dynamics import FAILOVER_POLICIES

        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--graph", graph_file, "--plan", plan_file,
                "--rates", "20,20", "--failover", "bogus",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro-rod simulate" in err
        assert (
            "argument --failover: invalid choice: 'bogus' (choose from "
            + ", ".join(map(repr, FAILOVER_POLICIES)) + ")"
        ) in err

    def test_chaos_runs_record_identically(self, tmp_path, graph_file,
                                           plan_file):
        """Two recorded runs of the same chaos seed produce identical
        result.json snapshots — the flow the CI determinism job diffs."""
        root = str(tmp_path / "runs")
        argv = [
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "4",
            "--chaos-seed", "7", "--failover", "volume",
            "--record", root,
        ]
        assert main(argv + ["--run-id", "first"]) == 0
        assert main(argv + ["--run-id", "second"]) == 0
        with open(f"{root}/first/result.json") as handle:
            first = json.load(handle)
        with open(f"{root}/second/result.json") as handle:
            second = json.load(handle)
        assert first == second
        assert first.get("faults")


class TestCheck:
    def test_clean_artifacts_exit_zero(self, graph_file, plan_file, capsys):
        assert main([
            "check", "--paths", graph_file, plan_file,
        ]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_bundled_configs_are_clean(self, capsys):
        import pathlib

        config_dir = str(
            pathlib.Path(__file__).resolve().parents[1]
            / "examples" / "configs"
        )
        assert main([
            "check", "--paths", config_dir, "--fail-on", "warning",
        ]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_error_diagnostic_exits_nonzero(
        self, tmp_path, graph_file, plan_file, capsys
    ):
        import shutil

        shutil.copy(graph_file, tmp_path / "g.graph.json")
        with open(plan_file) as handle:
            doc = json.load(handle)
        doc["node_coefficients"][0][0] += 1.0  # stale L^n
        (tmp_path / "bad.plan.json").write_text(json.dumps(doc))
        assert main(["check", "--paths", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REPRO305" in out
        assert "hint:" in out

    def test_fail_on_warning_promotes_warnings(self, tmp_path, capsys):
        (tmp_path / "no_seed.experiment.json").write_text(
            json.dumps({"kind": "experiment", "strategy": "rod"})
        )
        assert main(["check", "--paths", str(tmp_path)]) == 0
        assert main([
            "check", "--paths", str(tmp_path), "--fail-on", "warning",
        ]) == 1
        assert "REPRO401" in capsys.readouterr().out

    def test_lint_layer_reachable_from_check(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "import random\nx = random.random()\n"
        )
        assert main(["check", "--paths", str(tmp_path)]) == 1
        assert "REPRO501" in capsys.readouterr().out
        assert main([
            "check", "--paths", str(tmp_path), "--no-lint",
        ]) == 0

    def test_evaluate_rejects_corrupted_plan(
        self, tmp_path, graph_file, plan_file
    ):
        with open(plan_file) as handle:
            doc = json.load(handle)
        doc["node_coefficients"][0][0] += 1.0
        bad_plan = tmp_path / "bad.plan.json"
        bad_plan.write_text(json.dumps(doc))
        with pytest.raises(SystemExit, match="REPRO305"):
            main(["evaluate", "--graph", graph_file, "--plan", str(bad_plan)])


class TestExperiment:
    def test_registry_covers_every_artifact(self):
        assert set(ARTIFACTS) == {
            "fig2", "fig9", "fig14", "fig15", "optimal-gap", "latency",
            "lower-bound", "nonlinear", "clustering", "fidelity", "dynamic",
            "fault-tolerance", "heterogeneous", "partitioning",
            "balance-bound", "qmc-convergence", "scheduling", "protocol",
            "linearization", "search-gap", "scale-solve", "elasticity",
            "ablations",
        }

    def test_experiment_and_report_take_the_same_ids(self):
        parser = build_parser()
        for artifact_id in ARTIFACTS:
            assert parser.parse_args(["experiment", artifact_id]).id == (
                artifact_id
            )
            assert parser.parse_args(
                ["report", "-o", "r.md", "--only", artifact_id]
            ).only == [artifact_id]

    def test_runs_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "PKT" in capsys.readouterr().out

    def test_parser_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "nope"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


_SIMULATE_AT = ["simulate", "--graph", "{graph}", "--plan", "{plan}"]
_SIMULATE = [*_SIMULATE_AT, "--rates", "20,20"]


@pytest.mark.parametrize("argv, option", [
    (["generate", "--inputs", "0", "-o", "{work}/g.json"], "--inputs"),
    (["generate", "--ops-per-tree", "0", "-o", "{work}/g.json"],
     "--ops-per-tree"),
    (["place", "--graph", "{graph}", "--nodes", "0"], "--nodes"),
    (["place", "--graph", "{graph}", "--nodes", "2", "--capacity", "0"],
     "--capacity"),
    (["place", "--graph", "{graph}", "--nodes", "4", "--hierarchical",
      "--group-size", "0"], "--group-size"),
    (["place", "--graph", "{graph}", "--nodes", "2", "--capacity", "inf"],
     "--capacity"),
    (["place", "--graph", "{graph}", "--nodes", "2", "--elastic",
      "--elastic-ways", "1"], "--elastic-ways"),
    (["place", "--graph", "{graph}", "--nodes", "2", "--elastic",
      "--elastic-target-ratio", "-1"], "--elastic-target-ratio"),
    (["place", "--graph", "{graph}", "--nodes", "2", "--elastic",
      "--elastic-target-ratio", "1.5"], "--elastic-target-ratio"),
    (["place", "--graph", "{graph}", "--nodes", "2", "--algorithm",
      "annealing", "--score-batch", "0"], "--score-batch"),
    (["place", "--graph", "{graph}", "--nodes", "2", "--score-batch", "0"],
     "--score-batch"),
    (["place", "--graph", "{graph}", "--nodes", "2", "--elastic",
      "--elastic-max-splits", "-3"], "--elastic-max-splits"),
    (["evaluate", "--graph", "{graph}", "--plan", "{plan}",
      "--axis-budget", "0"], "--axis-budget"),
    ([*_SIMULATE_AT, "--rates", "60,-5"], "--rates"),
    ([*_SIMULATE_AT, "--rates", "60,abc"], "--rates"),
    ([*_SIMULATE_AT, "--rates", "nan,1"], "--rates"),
    ([*_SIMULATE, "--duration", "0"], "--duration"),
    ([*_SIMULATE, "--duration", "inf"], "--duration"),
    ([*_SIMULATE, "--step", "0"], "--step"),
    ([*_SIMULATE, "--step", "inf"], "--step"),
    ([*_SIMULATE, "--chaos-seed", "1", "--chaos-intensity", "-1"],
     "--chaos-intensity"),
    ([*_SIMULATE, "--chaos-seed", "1", "--chaos-intensity", "inf"],
     "--chaos-intensity"),
    (["trace", "{work}/run.jsonl", "--width", "0"], "--width"),
    (["explain", "run", "--top", "-2"], "-k/--top"),
    (["explain", "run", "-k", "0"], "-k/--top"),
    (["compare", "a", "b", "--default-threshold", "nan"],
     "--default-threshold"),
    (["compare", "a", "b", "--default-threshold", "-1"],
     "--default-threshold"),
], ids=[
    "generate-inputs", "generate-ops-per-tree", "place-nodes",
    "place-capacity", "place-group-size", "place-capacity-inf",
    "place-elastic-ways", "place-elastic-target-ratio-negative",
    "place-elastic-target-ratio-above-one",
    "annealing-score-batch", "rod-score-batch",
    "place-elastic-max-splits", "evaluate-axis-budget",
    "simulate-rates-negative", "simulate-rates-not-a-number",
    "simulate-rates-nan", "simulate-duration", "simulate-duration-inf",
    "simulate-step", "simulate-step-inf", "simulate-chaos-intensity",
    "simulate-chaos-intensity-inf", "trace-width", "explain-top",
    "explain-top-zero", "compare-default-threshold-nan",
    "compare-default-threshold-negative",
])
def test_out_of_range_numbers_are_usage_errors(
    argv, option, tmp_path, graph_file, plan_file, capsys
):
    """The parser rejects a number the library would raise on (or, for
    ``rod --score-batch 0``, silently accept), NaN and infinities
    included, with exit 2, naming the option, before any command
    runs."""
    with pytest.raises(SystemExit) as exc:
        main([
            arg.format(work=tmp_path, graph=graph_file, plan=plan_file)
            for arg in argv
        ])
    assert exc.value.code == 2
    assert f"argument {option}: must be " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["place", "--graph", "g.json", "--nodes", "2", "--jobs", "2"],
    ["evaluate", "--graph", "g.json", "--plan", "p.json", "--jobs", "2"],
    ["experiment", "fig14", "--jobs", "2"],
], ids=["place", "evaluate", "experiment"])
def test_no_command_takes_jobs(argv, capsys):
    """Placement, scoring and experiment runs all run inline: no
    command opens a process pool."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestReport:
    def test_writes_selected_artifacts(self, tmp_path, capsys):
        path = str(tmp_path / "report.md")
        assert main([
            "report", "-o", path, "--scale", "quick", "--only", "fig2",
        ]) == 0
        content = Path(path).read_text()
        assert content.startswith("# Reproduction report")
        assert "fig2" in content
        assert "fig14" not in content

    @pytest.mark.parametrize("argv", [
        ["--scale", "galactic"], ["--only", "fig2", "fig999"],
    ])
    def test_parser_rejects_unknown_scale_and_ids(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["report", "-o", "r.md", *argv])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact_id", ["fig2", "fig9"])
    def test_full_scale_prints_what_experiment_prints(
        self, artifact_id, tmp_path, capsys
    ):
        """``report --scale full`` runs each artifact at paper scale,
        exactly as ``experiment ID`` does."""
        path = tmp_path / "full.md"
        assert main([
            "report", "-o", str(path), "--scale", "full",
            "--only", artifact_id,
        ]) == 0
        capsys.readouterr()
        assert main(["experiment", artifact_id]) == 0
        table = capsys.readouterr().out
        assert path.read_text().endswith(
            f"\n## {artifact_id} — {ARTIFACTS[artifact_id].title}\n\n"
            f"```\n{table}```\n"
        )


class TestObservabilityFlags:
    def test_simulate_trace_out_and_prometheus(
        self, tmp_path, graph_file, plan_file, capsys
    ):
        trace_path = str(tmp_path / "run.jsonl")
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "2",
            "--trace-out", trace_path, "--emit-metrics", "prometheus",
        ]) == 0
        out = capsys.readouterr().out
        assert f"trace written to {trace_path}" in out
        assert "# TYPE rod_sim_runs_total counter" in out
        assert "rod_sim_runs_total 1" in out

        from repro.obs import read_trace

        events = read_trace(trace_path)
        assert events[0]["type"] == "sim.start"
        assert events[-1]["type"] == "sim.end"

    def test_simulate_emit_metrics_json(
        self, graph_file, plan_file, capsys
    ):
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "2",
            "--emit-metrics", "json",
        ]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index("{"):])
        assert doc["rod_sim_runs_total"]["type"] == "counter"

    def test_evaluate_emit_metrics_profiles_phases(
        self, graph_file, plan_file, capsys
    ):
        assert main([
            "evaluate", "--graph", graph_file, "--plan", plan_file,
            "--emit-metrics", "json",
        ]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out[out.index('{\n'):])
        phases = {
            sample["labels"]["phase"]
            for sample in doc["repro_phase_seconds"]["samples"]
        }
        assert "evaluate.volume_ratio" in phases


class TestTraceSubcommand:
    def test_renders_trace_report(
        self, tmp_path, graph_file, plan_file, capsys
    ):
        trace_path = str(tmp_path / "run.jsonl")
        main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "2",
            "--trace-out", trace_path,
        ])
        capsys.readouterr()
        assert main(["trace", trace_path, "--width", "30"]) == 0
        out = capsys.readouterr().out
        assert "events by type:" in out
        assert "per-node utilization" in out

    def test_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", str(path)]) == 1
        assert "empty trace" in capsys.readouterr().out


class TestVerbosityFlags:
    def test_verbose_flag_sets_debug_level(self, tmp_path):
        import logging

        path = str(tmp_path / "g.json")
        assert main([
            "-vv", "generate", "--kind", "monitoring", "--inputs", "2",
            "--seed", "1", "-o", path,
        ]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        main(["generate", "--kind", "monitoring", "--inputs", "2",
              "--seed", "1", "-o", path])
        assert logging.getLogger("repro").level == logging.WARNING

    def test_quiet_flag_sets_error_level(self, tmp_path):
        import logging

        path = str(tmp_path / "g.json")
        assert main([
            "-q", "generate", "--kind", "monitoring", "--inputs", "2",
            "--seed", "1", "-o", path,
        ]) == 0
        assert logging.getLogger("repro").level == logging.ERROR
        main(["generate", "--kind", "monitoring", "--inputs", "2",
              "--seed", "1", "-o", path])


class TestTraceFilters:
    @pytest.fixture
    def trace_path(self, tmp_path, graph_file, plan_file):
        path = str(tmp_path / "run.jsonl")
        main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "2",
            "--trace-out", path,
        ])
        return path

    def test_type_filter(self, trace_path, capsys):
        capsys.readouterr()
        assert main([
            "trace", trace_path, "--type", "batch.serviced",
        ]) == 0
        out = capsys.readouterr().out
        assert "batch.serviced" in out
        assert "batch.enqueued" not in out

    def test_comma_separated_types(self, trace_path, capsys):
        capsys.readouterr()
        assert main([
            "trace", trace_path, "--type", "node.busy,node.idle",
        ]) == 0
        out = capsys.readouterr().out
        assert "node.busy" in out and "node.idle" in out
        assert "batch.serviced" not in out

    def test_node_and_since_filters(self, trace_path, capsys):
        capsys.readouterr()
        assert main([
            "trace", trace_path, "--node", "0", "--since", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        # Geometry still comes from the unfiltered trace header.
        assert "2 nodes" in out

    def test_filters_that_empty_the_trace_fail(self, trace_path, capsys):
        capsys.readouterr()
        assert main([
            "trace", trace_path, "--type", "no.such.event",
        ]) == 1
        assert "no events" in capsys.readouterr().out


class TestRunRegistryCli:
    @pytest.fixture
    def recorded(self, tmp_path, graph_file, plan_file, capsys):
        root = str(tmp_path / "runs")
        for run_id in ("base", "same"):
            assert main([
                "simulate", "--graph", graph_file, "--plan", plan_file,
                "--rates", "20,20", "--duration", "2",
                "--record", root, "--run-id", run_id,
            ]) == 0
        capsys.readouterr()
        return root

    def test_record_announces_run_dir(
        self, tmp_path, graph_file, plan_file, capsys
    ):
        root = str(tmp_path / "r")
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "2",
            "--record", root, "--run-id", "x",
        ]) == 0
        assert "run recorded to" in capsys.readouterr().out
        from repro.obs import load_run
        import os

        run = load_run(os.path.join(root, "x"))
        assert run.has_trace
        assert run.manifest.argv[0] == "simulate"

    def test_runs_list_and_show(self, recorded, capsys):
        assert main(["runs", "list", "--root", recorded]) == 0
        out = capsys.readouterr().out
        assert "base" in out and "same" in out and "simulate" in out
        assert main(["runs", "show", "base", "--root", recorded]) == 0
        out = capsys.readouterr().out
        assert "config digest" in out and "trace:" in out

    def test_runs_show_missing_run_fails(self, tmp_path, capsys):
        assert main([
            "runs", "show", "ghost", "--root", str(tmp_path),
        ]) == 1
        assert "ghost" in capsys.readouterr().out

    def test_compare_identical_runs_exits_zero(self, recorded, capsys):
        assert main([
            "compare", "base", "same", "--root", recorded,
        ]) == 0
        out = capsys.readouterr().out
        assert "no metric deltas" in out
        assert "0 breach(es)" in out

    def test_compare_regression_exits_nonzero(
        self, recorded, graph_file, plan_file, capsys
    ):
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "60,60", "--duration", "2",
            "--record", recorded, "--run-id", "hot",
        ]) == 0
        capsys.readouterr()
        assert main([
            "compare", "base", "hot", "--root", recorded,
        ]) == 1
        assert "breach" in capsys.readouterr().out

    def test_compare_threshold_flags(self, recorded, capsys):
        assert main([
            "compare", "base", "same", "--root", recorded,
            "--threshold", "latency.p95=0.5",
            "--default-threshold", "0.1",
        ]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="NAME=REL"):
            main([
                "compare", "base", "same", "--root", recorded,
                "--threshold", "garbage",
            ])

    def test_report_writes_self_contained_html(self, recorded, capsys):
        import os

        assert main(["report", "base", "--root", recorded]) == 0
        capsys.readouterr()
        path = os.path.join(recorded, "base", "report.html")
        html = Path(path).read_text()
        assert html.startswith("<!DOCTYPE html>")
        for banned in ("http://", "https://", "<script"):
            assert banned not in html

    def test_report_custom_output_path(self, recorded, tmp_path, capsys):
        out = str(tmp_path / "custom.html")
        assert main(["report", "base", "--root", recorded, "-o", out]) == 0
        assert Path(out).read_text().startswith("<!DOCTYPE html>")

    def test_legacy_markdown_report_still_requires_output(self):
        with pytest.raises(SystemExit, match="-o/--output"):
            main(["report"])

    def test_evaluate_record(self, tmp_path, graph_file, plan_file, capsys):
        root = str(tmp_path / "runs")
        assert main([
            "evaluate", "--graph", graph_file, "--plan", plan_file,
            "--record", root, "--run-id", "ev",
        ]) == 0
        from repro.obs import find_run

        run = find_run("ev", root=root)
        assert run.manifest.kind == "evaluate"
        assert "volume_ratio" in run.result

    def test_experiment_record(self, tmp_path, capsys):
        root = str(tmp_path / "runs")
        assert main([
            "experiment", "fig2", "--record", root, "--run-id", "exp",
        ]) == 0
        from repro.obs import find_run

        run = find_run("exp", root=root)
        assert run.manifest.kind == "experiment"
        assert run.result["rows"]


class TestExplainAndSloCli:
    @pytest.fixture
    def recorded_run(self, tmp_path, graph_file, plan_file, capsys):
        root = str(tmp_path / "runs")
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "3",
            "--record", root, "--run-id", "base",
        ]) == 0
        capsys.readouterr()
        return root

    def test_explain_renders_attribution(self, recorded_run, capsys):
        assert main(["explain", "base", "--root", recorded_run]) == 0
        out = capsys.readouterr().out
        assert "run base" in out
        assert "attributed" in out
        assert "service" in out

    def test_explain_json_is_fully_attributed(self, recorded_run, capsys):
        assert main([
            "explain", "base", "--root", recorded_run, "--json",
        ]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["attributed_ratio"] >= 0.999
        assert obj["unclosed_spans"] == 0

    def test_explain_missing_run_fails(self, tmp_path, capsys):
        assert main([
            "explain", "ghost", "--root", str(tmp_path),
        ]) == 1
        assert "ghost" in capsys.readouterr().out

    def test_slo_verdict_exit_codes(self, recorded_run, tmp_path, capsys):
        loose = tmp_path / "loose.json"
        loose.write_text(json.dumps({"objectives": [
            {"name": "lat", "kind": "latency", "threshold_seconds": 60.0,
             "target": 0.5, "window_seconds": 1.0},
        ]}))
        assert main([
            "slo", "base", "--root", recorded_run,
            "--config", str(loose),
        ]) == 0
        out = capsys.readouterr().out
        assert "0 breached" in out
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({"objectives": [
            {"name": "tput", "kind": "throughput",
             "min_tuples_per_second": 1e9, "window_seconds": 1.0},
        ]}))
        assert main([
            "slo", "base", "--root", recorded_run,
            "--config", str(strict),
        ]) == 1
        assert "BREACH" in capsys.readouterr().out

    def test_slo_bad_config_aborts(
        self, recorded_run, tmp_path, graph_file, plan_file
    ):
        bad = tmp_path / "bad.json"
        latency = {"name": "lat", "kind": "latency", "threshold_seconds": 1.0,
                   "target": 0.9, "window_seconds": 1.0}
        tput = {"name": "tput", "kind": "throughput",
                "min_tuples_per_second": 1.0, "window_seconds": 1.0}
        cases = [
            ({"objectives": []},
             "SLO config needs a non-empty 'objectives' list"),
            ({"objectives": [{k: v for k, v in latency.items()
                              if k != "threshold_seconds"}]},
             "objective 'lat': missing 'threshold_seconds'"),
            ({"objectives": [{k: v for k, v in latency.items()
                              if k != "target"}]},
             "objective 'lat': missing 'target'"),
            ({"objectives": [{k: v for k, v in tput.items()
                              if k != "min_tuples_per_second"}]},
             "objective 'tput': missing 'min_tuples_per_second'"),
            ({"objectives": [dict(latency, threshold_seconds=None)]},
             "objective 'lat': threshold_seconds must be a number, got None"),
            ({"objectives": [dict(tput, window_seconds="soon")]},
             "objective 'tput': window_seconds must be a number, got 'soon'"),
            ({"objectives": [dict(latency, max_burn_rate=[2])]},
             "objective 'lat': max_burn_rate must be a number, got [2]"),
        ]
        for config, message in cases:
            bad.write_text(json.dumps(config))
            match = re.escape(f"--config {bad}: {message}")
            with pytest.raises(SystemExit, match=match):
                main([
                    "slo", "base", "--root", recorded_run,
                    "--config", str(bad),
                ])
            match = re.escape(f"--slo {bad}: {message}")
            with pytest.raises(SystemExit, match=match):
                main([
                    "simulate", "--graph", graph_file, "--plan", plan_file,
                    "--rates", "20,20", "--duration", "1", "--slo", str(bad),
                ])

    def test_simulate_slo_flag_gates_exit(
        self, tmp_path, graph_file, plan_file, capsys
    ):
        strict = tmp_path / "strict.json"
        strict.write_text(json.dumps({"objectives": [
            {"name": "tput", "kind": "throughput",
             "min_tuples_per_second": 1e9, "window_seconds": 1.0},
        ]}))
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "2",
            "--slo", str(strict),
        ]) == 1
        assert "BREACH" in capsys.readouterr().out


class TestWhyAndRunsJsonCli:
    @pytest.fixture
    def controlled_root(self, tmp_path, graph_file, plan_file, capsys):
        """One controller-less run and one chaos+failover run."""
        root = str(tmp_path / "runs")
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "2",
            "--record", root, "--run-id", "plain",
        ]) == 0
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "6",
            "--chaos-seed", "5", "--failover", "volume",
            "--record", root, "--run-id", "chaos",
        ]) == 0
        capsys.readouterr()
        return root

    def test_runs_list_json(self, controlled_root, capsys):
        assert main([
            "runs", "list", "--root", controlled_root, "--json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_id = {row["run_id"]: row for row in rows}
        assert set(by_id) == {"plain", "chaos"}
        for row in rows:
            assert set(row) >= {
                "run_id", "kind", "created_wall", "sim_seconds",
                "seed", "faults", "config_digest", "path",
            }
            assert row["kind"] == "simulate"
            assert row["sim_seconds"] > 0
        assert by_id["plain"]["faults"] == 0
        assert by_id["chaos"]["faults"] > 0

    def test_runs_list_json_empty_root(self, tmp_path, capsys):
        assert main([
            "runs", "list", "--root", str(tmp_path), "--json",
        ]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_why_renders_decision_audit(self, controlled_root, capsys):
        assert main(["why", "chaos", "--root", controlled_root]) == 0
        out = capsys.readouterr().out
        assert "run chaos" in out
        assert "decisions evaluated" in out
        assert "migrations applied" in out

    def test_why_json_links_every_migration(self, controlled_root, capsys):
        assert main([
            "why", "chaos", "--root", controlled_root, "--json",
        ]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["summary"]["evaluated"] > 0
        assert (
            obj["summary"]["linked_migrations"]
            == obj["summary"]["migrations"]
            == len(obj["migrations"])
        )
        for migration in obj["migrations"]:
            assert migration["decision"] is not None

    def test_why_without_decisions_fails(self, controlled_root, capsys):
        assert main(["why", "plain", "--root", controlled_root]) == 1
        assert "no decision events" in capsys.readouterr().out

    def test_why_missing_run_fails(self, tmp_path, capsys):
        assert main(["why", "ghost", "--root", str(tmp_path)]) == 1
        assert "ghost" in capsys.readouterr().out

    def test_snapshot_carries_decision_and_drift_keys(
        self, controlled_root
    ):
        from repro.obs import find_run

        for run_id in ("plain", "chaos"):
            result = find_run(run_id, root=controlled_root).result
            assert "decisions" in result and "drift" in result
            assert set(result["decisions"]) >= {
                "evaluated", "migrations", "linked_migrations",
                "triggers", "no_op",
            }
            assert set(result["drift"]) >= {
                "detected", "by_signal", "by_direction",
            }
        plain = find_run("plain", root=controlled_root).result
        # Controller-less constant-rate run: zero-valued but present.
        assert plain["decisions"]["evaluated"] == 0
        assert plain["drift"]["detected"] == 0


#: A run recorded before spans rode on the batch events: the batch
#: pair carries no span ids, and separate span.open/span.close events
#: (which nothing reads any more) carry the lineage.
OLD_FORMAT_TRACE = [
    {"type": "sim.start", "t": 0.0, "nodes": 1, "operators": 2,
     "step_seconds": 0.1, "horizon": 1.0, "capacities": [1.0],
     "scheduling": "fifo", "arrival_kind": "deterministic"},
    {"type": "span.open", "t": 0.0, "span": 0, "operator": "a", "port": 0,
     "count": 4, "birth": 0.0},
    {"type": "batch.enqueued", "t": 0.0, "node": 0, "operator": "a",
     "port": 0, "count": 4},
    {"type": "node.busy", "t": 0.0, "node": 0},
    {"type": "batch.serviced", "t": 0.01, "node": 0, "operator": "a",
     "port": 0, "count": 4, "out": 4, "work": 0.01},
    {"type": "span.close", "t": 0.01, "span": 0, "node": 0, "start": 0.0,
     "work": 0.01, "out": 4},
    {"type": "span.open", "t": 0.01, "span": 1, "operator": "b", "port": 0,
     "count": 4, "birth": 0.0, "parent": 0},
    {"type": "batch.enqueued", "t": 0.01, "node": 0, "operator": "b",
     "port": 0, "count": 4},
    {"type": "batch.serviced", "t": 0.03, "node": 0, "operator": "b",
     "port": 0, "count": 4, "out": 4, "work": 0.02, "sink": "b",
     "latency": 0.03},
    {"type": "span.close", "t": 0.03, "span": 1, "node": 0, "start": 0.01,
     "work": 0.02, "out": 4, "sink": "b", "latency": 0.03},
    {"type": "node.idle", "t": 0.03, "node": 0},
    {"type": "sim.end", "t": 1.0, "node_busy": [0.03], "tuples_in": 4,
     "tuples_out": 4, "max_utilization": 0.03, "migrations": 0},
]


class TestOldFormatRun:
    """An old run reads as span-less instead of crashing the readers."""

    @pytest.fixture
    def root(self, tmp_path):
        run_dir = tmp_path / "runs" / "old"
        run_dir.mkdir(parents=True)
        (run_dir / "manifest.json").write_text(
            json.dumps({"run_id": "old", "kind": "simulate"})
        )
        (run_dir / "trace.jsonl").write_text("".join(
            json.dumps(dict(event, wall=1.0)) + "\n"
            for event in OLD_FORMAT_TRACE
        ))
        return str(tmp_path / "runs")

    def test_explain_asks_for_a_re_recording(self, root, capsys):
        assert main(["explain", "old", "--root", root]) == 1
        out = capsys.readouterr().out
        assert "trace carries no span events" in out
        assert "re-record it" in out

    def test_report_renders_without_the_critical_path(self, root, capsys):
        assert main(["report", "old", "--root", root]) == 0
        capsys.readouterr()
        html = Path(root, "old", "report.html").read_text()
        assert "Utilization heatmap" in html
        assert "Latency critical path" not in html

    def test_trace_span_view_finds_no_spans(self, root, capsys):
        path = os.path.join(root, "old", "trace.jsonl")
        assert main(["trace", path, "--span", "0"]) == 1
        assert "trace carries no span events" in capsys.readouterr().out


class TestTraceSpanLineage:
    @pytest.fixture
    def trace_path(self, tmp_path, graph_file, plan_file, capsys):
        path = str(tmp_path / "run.jsonl")
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "2",
            "--trace-out", path,
        ]) == 0
        capsys.readouterr()
        return path

    def test_span_lineage_view(self, trace_path, capsys):
        assert main(["trace", trace_path, "--span", "0"]) == 0
        out = capsys.readouterr().out
        assert "lineage of span 0" in out
        assert "span 0" in out

    def test_unknown_span_fails(self, trace_path, capsys):
        assert main(["trace", trace_path, "--span", "999999"]) == 1
        assert "does not appear" in capsys.readouterr().out

    def test_operator_filter_narrows_lineage(self, trace_path, capsys):
        assert main([
            "trace", trace_path, "--span", "0", "--operator", "nope",
        ]) == 0
        out = capsys.readouterr().out
        # Lineage header still prints; no member rows survive the filter.
        assert "lineage of span 0" in out
        assert "op=nope" not in out


class TestMalformedTrace:
    """Every trace viewer reports a malformed trace as ``<path>: line N:
    ...`` with exit status 1, not as a traceback."""

    @pytest.fixture
    def root(self, tmp_path, graph_file, plan_file, capsys):
        root = str(tmp_path / "runs")
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "1",
            "--record", root, "--run-id", "bad",
        ]) == 0
        capsys.readouterr()
        path = os.path.join(root, "bad", "trace.jsonl")
        with open(path, "a") as handle:
            handle.write('{"type": "batch.serv\n')
        return root

    @pytest.mark.parametrize("argv", [
        ["trace", "{trace}"],
        ["runs", "show", "bad", "--root", "{root}"],
        ["explain", "bad", "--root", "{root}"],
        ["why", "bad", "--root", "{root}"],
        ["slo", "bad", "--root", "{root}", "--config", "{slo}"],
        ["report", "bad", "--root", "{root}"],
    ], ids=lambda argv: "-".join(argv[:2]) if argv[0] == "runs" else argv[0])
    def test_viewer_exits_with_the_line(self, root, tmp_path, argv):
        trace = os.path.join(root, "bad", "trace.jsonl")
        slo = tmp_path / "slo.json"
        slo.write_text(json.dumps({"objectives": [
            {"name": "tput", "kind": "throughput",
             "min_tuples_per_second": 1.0, "window_seconds": 1.0},
        ]}))
        with open(trace) as handle:
            bad_line = sum(1 for _ in handle)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(trace=trace, root=root, slo=slo)
                  for arg in argv])
        assert str(exc.value.code).startswith(
            f"{trace}: line {bad_line}: "
        )


class TestImpossibleTrace:
    """A trace no run can have written — a span closed twice, a node
    the header does not declare — exits 1 with ``<path>: ...`` naming
    the span or node, not with a traceback."""

    @pytest.fixture
    def root(self, tmp_path, graph_file, plan_file, capsys):
        root = str(tmp_path / "runs")
        assert main([
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "1",
            "--record", root, "--run-id", "run",
        ]) == 0
        capsys.readouterr()
        return root

    @staticmethod
    def _rewrite(root, edit):
        """Rewrite the run's trace lines through ``edit``; its path."""
        path = os.path.join(root, "run", "trace.jsonl")
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(edit(lines))
        return path

    @pytest.mark.parametrize("argv", [
        ["explain", "run", "--root", "{root}"],
        ["report", "run", "--root", "{root}"],
        ["trace", "{trace}", "--span", "0"],
    ], ids=lambda argv: argv[0])
    def test_span_closed_twice(self, root, argv):
        spans = []

        def repeat_a_service(lines):
            line = next(x for x in lines if '"batch.serviced"' in x)
            spans.append(json.loads(line)["span"])
            return lines + [line]

        trace = self._rewrite(root, repeat_a_service)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(root=root, trace=trace) for arg in argv])
        assert exc.value.code == f"{trace}: span {spans[0]} closed twice"

    @pytest.mark.parametrize("argv", [
        ["report", "run", "--root", "{root}"],
        ["trace", "{trace}"],
    ], ids=lambda argv: argv[0])
    def test_node_outside_the_header(self, root, argv):
        def declare_one_node(lines):
            header = json.loads(lines[0])
            assert header["type"] == "sim.start" and header["nodes"] == 2
            return [json.dumps(dict(header, nodes=1)) + "\n"] + lines[1:]

        trace = self._rewrite(root, declare_one_node)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(root=root, trace=trace) for arg in argv])
        message = str(exc.value.code)
        assert message.startswith(f"{trace}: ")
        assert "names node 1, but the trace declares 1 node(s)" in message

    #: A field a viewer reads, rewritten on the first event of its type:
    #: (event type, field, its new value or ``None`` to drop it, what
    #: the message says after the event's type and time).
    UNREADABLE = {
        "node-not-a-number": ("batch.serviced", "node", "x",
                              "has a 'node' that is not a number: 'x'"),
        "node-missing": ("batch.serviced", "node", None,
                         "has no 'node' field"),
        "birth-not-a-number": ("batch.enqueued", "birth", "zz",
                               "has a 'birth' that is not a number: 'zz'"),
        "trigger-missing": ("decision.evaluated", "trigger", None,
                            "has no 'trigger' field"),
    }

    @pytest.mark.parametrize("case, argv", [
        ("node-not-a-number", ["trace", "{trace}"]),
        ("node-not-a-number", ["trace", "{trace}", "--node", "0"]),
        ("node-not-a-number", ["explain", "run", "--root", "{root}"]),
        ("node-not-a-number", ["report", "run", "--root", "{root}"]),
        ("node-missing", ["trace", "{trace}"]),
        ("node-missing", ["explain", "run", "--root", "{root}"]),
        ("node-missing", ["report", "run", "--root", "{root}"]),
        ("birth-not-a-number", ["trace", "{trace}", "--span", "0"]),
        ("birth-not-a-number", ["explain", "run", "--root", "{root}"]),
        ("birth-not-a-number", ["report", "run", "--root", "{root}"]),
        ("trigger-missing", ["why", "run", "--root", "{root}"]),
        ("trigger-missing", ["report", "run", "--root", "{root}"]),
    ], ids=lambda value: value if isinstance(value, str) else "".join(
        [value[0], *(arg for arg in value if arg in ("--node", "--span"))]
    ))
    def test_unreadable_field(self, budget_root, tmp_path, case, argv):
        kind, field, value, tail = self.UNREADABLE[case]
        root = str(tmp_path / "runs")
        shutil.copytree(os.path.join(budget_root, "runs"), root)
        where = []

        def rewrite_the_first(lines):
            at = next(
                number for number, line in enumerate(lines)
                if f'"type":"{kind}"' in line
            )
            record = json.loads(lines[at])
            where.append(f"{kind} at t={record['t']}")
            if value is None:
                del record[field]
            else:
                record[field] = value
            return lines[:at] + [json.dumps(record) + "\n"] + lines[at + 1:]

        trace = self._rewrite(root, rewrite_the_first)
        with pytest.raises(SystemExit) as exc:
            main([arg.format(root=root, trace=trace) for arg in argv])
        assert exc.value.code == f"{trace}: {where[0]} {tail}"

    def test_a_corrupt_result_is_not_a_trace_defect(self, root):
        with open(os.path.join(root, "run", "result.json"), "w") as handle:
            handle.write("{")
        with pytest.raises(json.JSONDecodeError) as exc:
            main(["report", "run", "--root", root])
        assert "trace.jsonl" not in str(exc.value)

    def test_a_bad_option_is_not_a_trace_defect(self, root, capsys):
        # The parser refuses the option before the trace is opened.
        trace = os.path.join(root, "run", "trace.jsonl")
        with pytest.raises(SystemExit) as exc:
            main(["trace", trace, "--width", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --width: must be >= 1, got 0" in err
        assert trace not in err


class TestRecordOnce:
    """``simulate`` builds its snapshot from the events it emitted; the
    sections must equal what the analyzers return on the written file."""

    SLO = {"objectives": [
        {"name": "lat", "kind": "latency", "threshold_seconds": 60.0,
         "target": 0.5, "window_seconds": 1.0},
    ]}

    @pytest.mark.parametrize("mode", ["record", "slo", "trace-out"])
    def test_snapshot_equals_the_written_trace(
        self, tmp_path, graph_file, plan_file, capsys, monkeypatch, mode
    ):
        from repro.obs import find_run, read_trace
        from repro.obs.critical_path import analyze_critical_path
        from repro.obs.decisions import decision_snapshot
        from repro.obs.drift import drift_snapshot
        from repro.obs.slo import evaluate_slos, load_slo_config

        root = str(tmp_path / "runs")
        argv = [
            "simulate", "--graph", graph_file, "--plan", plan_file,
            "--rates", "20,20", "--duration", "6",
            "--chaos-seed", "5", "--failover", "volume",
            "--record", root, "--run-id", "run",
        ]
        trace = os.path.join(root, "run", "trace.jsonl")
        slo = None
        if mode == "slo":
            slo = str(tmp_path / "slo.json")
            with open(slo, "w") as handle:
                json.dump(self.SLO, handle)
            argv += ["--slo", slo]
        elif mode == "trace-out":
            trace = str(tmp_path / "out.jsonl")
            argv += ["--trace-out", trace]

        def no_read_back(source):
            raise AssertionError(f"simulate read {source} back")

        for name in ("repro.cli.read_trace", "repro.obs.runs.read_trace",
                     "repro.obs.trace.read_trace"):
            monkeypatch.setattr(name, no_read_back)
        assert main(argv) == 0
        monkeypatch.undo()
        capsys.readouterr()
        events = read_trace(trace)
        expected = {
            "critical_path": analyze_critical_path(events).to_json_obj(),
            "decisions": decision_snapshot(events),
            "drift": drift_snapshot(events),
        }
        assert expected["decisions"]["migrations"] > 0
        if slo is not None:
            expected["slo"] = evaluate_slos(
                events, load_slo_config(slo)
            ).to_json_obj()
        result = find_run("run", root=root).result
        assert {key: result.get(key) for key in expected} == json.loads(
            json.dumps(expected)
        )


def test_a_trace_out_run_has_no_trace(tmp_path, graph_file, plan_file, capsys):
    """A run whose events went to ``--trace-out`` holds neither a trace
    nor a stored analysis: ``explain`` and ``why`` refuse it, and its
    report has no trace sections."""
    root = str(tmp_path / "runs")
    assert main([
        "simulate", "--graph", graph_file, "--plan", plan_file,
        "--rates", "20,20", "--duration", "2", "--chaos-seed", "5",
        "--failover", "volume", "--record", root, "--run-id", "out",
        "--trace-out", str(tmp_path / "out.jsonl"),
    ]) == 0
    assert sorted(os.listdir(os.path.join(root, "out"))) == [
        "manifest.json", "metrics.json", "result.json",
    ]
    capsys.readouterr()
    for viewer in ("explain", "why"):
        assert main([viewer, "out", "--root", root]) == 1
        assert capsys.readouterr().out == (
            f"run out has no trace; {viewer} needs a traced recording "
            "(simulate --record)\n"
        )
    assert main(["report", "out", "--root", root]) == 0
    html = Path(root, "out", "report.html").read_text()
    assert "Headline metrics" in html
    assert "Utilization heatmap" not in html


#: Modules no start-up path may load: SciPy and NumPy, the layers that
#: pull them in, and the process-pool modules, which no command uses.
#: ``report`` may load NumPy.  The last three are modules none of these
#: steps runs, which an eagerly importing package ``__init__`` would
#: load: the linter, operator clustering and the functional runtime.
HEAVY_MODULES = (
    "numpy", "scipy", "repro.core", "repro.simulator.engine",
    "repro.placement", "repro.dynamics", "repro.experiments",
    "repro.check", "multiprocessing", "concurrent.futures",
    "repro.check.lint", "repro.core.clustering", "repro.runtime",
)


@pytest.fixture(scope="module")
def budget_root(tmp_path_factory):
    """A small recorded chaos + failover run for the start-up budget."""
    work = tmp_path_factory.mktemp("budget")
    graph, plan = str(work / "graph.json"), str(work / "plan.json")
    root = str(work / "runs")
    for argv in (
        ["generate", "--kind", "random", "--inputs", "2",
         "--ops-per-tree", "5", "--seed", "3", "-o", graph],
        ["place", "--graph", graph, "--nodes", "2", "-o", plan],
        ["simulate", "--graph", graph, "--plan", plan, "--rates", "20,20",
         "--duration", "6", "--chaos-seed", "5", "--failover", "volume",
         "--record", root, "--run-id", "run"],
    ):
        assert main(argv) == 0
    return str(work)


@pytest.mark.parametrize("argv, allowed", [
    (["--help"], ()),
    (["generate", "--kind", "random", "--inputs", "2", "-o",
      "{work}/g.json"], ()),
    (["why", "run", "--root", "{work}/runs"], ()),
    # A recorded run's explain renders its stored analysis.
    (["explain", "run", "--root", "{work}/runs"], ()),
    (["report", "run", "--root", "{work}/runs", "-o", "{work}/r.html"],
     ("numpy",)),
    (["place", "--graph", "{work}/graph.json", "--nodes", "2"],
     ("numpy", "repro.core", "repro.placement")),
    # Its harness needs only NumPy and the trace generators.
    (["experiment", "fig2"], ("numpy", "repro.experiments")),
    # The engine, its controllers and the plan checks.
    (["simulate", "--graph", "{work}/graph.json", "--plan",
      "{work}/plan.json", "--rates", "20,20", "--duration", "6",
      "--chaos-seed", "5", "--failover", "volume", "--record",
      "{work}/budget-runs"],
     ("numpy", "repro.core", "repro.simulator.engine", "repro.dynamics",
      "repro.check")),
], ids=["help", "generate", "why", "explain", "report", "place",
        "experiment-fig2", "simulate-record"])
def test_start_up_import_budget(budget_root, argv, allowed):
    """Each step imports only the layers it runs: in a fresh
    interpreter, ``main(argv)`` loads none of ``HEAVY_MODULES`` beyond
    ``allowed``."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    probe = (
        "import json, sys\n"
        "from repro.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe,
         *(arg.format(work=budget_root) for arg in argv)],
        capture_output=True, text=True, env=env, check=False, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    loaded = {
        name for name in HEAVY_MODULES
        if name in modules and name not in allowed
    }
    assert not loaded


@pytest.mark.parametrize("package", [
    "repro", "repro.simulator", "repro.workload", "repro.experiments",
    "repro.core", "repro.core.volume", "repro.graphs", "repro.check",
    "repro.runtime", "repro.elastic", "repro.dynamics", "repro.placement",
    "repro.faults",
])
def test_lazy_re_exports_resolve(package):
    """Every ``__all__`` name of a lazily re-exporting package imports."""
    module = __import__(package, fromlist=["__all__"])
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match="has no attribute 'missing'"):
        getattr(module, "missing")
