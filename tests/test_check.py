"""Tests for the static-analysis subsystem (repro.check)."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import build_load_model
from repro.check import (
    CheckError,
    CheckReport,
    Diagnostic,
    Severity,
    check_artifact,
    check_document,
    check_experiment_config,
    check_graph,
    check_model,
    check_paths,
    check_placement,
    check_plan_document,
    classify_document,
)
from repro.core.rod import rod_place
from repro.deploy import Deployment
from repro.graphs.generator import monitoring_graph
from repro.graphs.operators import Filter, Map
from repro.graphs.query_graph import QueryGraph

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "examples" / "configs"


@pytest.fixture
def graph():
    return monitoring_graph(2, seed=1)


@pytest.fixture
def model(graph):
    return build_load_model(graph)


@pytest.fixture
def placement(model):
    return rod_place(model, [1.0, 1.0])


@pytest.fixture
def plan_doc(placement):
    return json.loads(placement.to_json())


class TestDiagnostics:
    def test_format_includes_code_severity_location_hint(self):
        d = Diagnostic(
            code="REPRO305", severity=Severity.ERROR, message="mismatch",
            location="plan.json", fix_hint="regenerate",
        )
        line = d.format()
        assert "plan.json" in line
        assert "REPRO305" in line
        assert "error" in line
        assert "regenerate" in line

    def test_severity_parse(self):
        assert Severity.parse("ERROR") is Severity.ERROR
        assert Severity.parse("warning") is Severity.WARNING
        with pytest.raises(ValueError, match="unknown severity"):
            Severity.parse("fatal")

    def test_report_aggregation(self):
        report = CheckReport()
        report.add(Diagnostic("A1", Severity.INFO, "i"))
        report.add(Diagnostic("A2", Severity.WARNING, "w"))
        report.add(Diagnostic("A3", Severity.ERROR, "e"))
        assert report.counts() == (1, 1, 1)
        assert not report.ok
        assert report.max_severity() is Severity.ERROR
        assert [d.code for d in report.at_least(Severity.WARNING)] == [
            "A2", "A3",
        ]

    def test_raise_if_errors(self):
        report = CheckReport([Diagnostic("A3", Severity.ERROR, "boom")])
        with pytest.raises(CheckError) as excinfo:
            report.raise_if_errors()
        assert excinfo.value.report is report
        assert "A3" in str(excinfo.value)

    def test_clean_report_chains(self):
        report = CheckReport([Diagnostic("A2", Severity.WARNING, "w")])
        assert report.raise_if_errors() is report


class TestGraphVerifier:
    def test_clean_graph(self, graph):
        assert check_graph(graph).counts() == (0, 0, 0)

    def test_empty_graph_warns(self):
        report = check_graph(QueryGraph("empty"))
        assert report.ok
        assert [d.code for d in report] == ["REPRO101"]
        assert report.diagnostics[0].severity is Severity.WARNING

    def test_unconsumed_input_warns(self):
        g = QueryGraph("dangling")
        g.add_input("I1")
        g.add_input("I2")
        g.add_operator(Map("m", cost=1e-4), ["I1"])
        report = check_graph(g)
        codes = [d.code for d in report]
        assert "REPRO102" in codes
        assert report.ok  # warning, not error

    def test_diagnostic_names_the_stream(self):
        g = QueryGraph("dangling")
        g.add_input("I1")
        g.add_input("I2")
        g.add_operator(Map("m", cost=1e-4), ["I2"])
        (diag,) = check_graph(g).by_code("REPRO102")
        assert "'I1'" in diag.message
        assert diag.fix_hint


class TestModelVerifier:
    def test_clean_model(self, model):
        assert check_model(model).counts() == (0, 0, 0)

    def test_shape_mismatch_is_an_error(self, model):
        bad = dataclasses.replace(
            model, coefficients=model.coefficients[:, :-1]
        )
        report = check_model(bad)
        (diag,) = report.by_code("REPRO201")
        assert diag.severity is Severity.ERROR
        assert str(model.num_variables) in diag.message

    def test_nan_coefficient(self, model):
        coeffs = model.coefficients.copy()
        coeffs[0, 0] = np.nan
        report = check_model(dataclasses.replace(model, coefficients=coeffs))
        assert [d.code for d in report.errors] == ["REPRO203"]

    def test_negative_coefficient(self, model):
        coeffs = model.coefficients.copy()
        coeffs[1, 0] = -0.25
        report = check_model(dataclasses.replace(model, coefficients=coeffs))
        assert [d.code for d in report.errors] == ["REPRO202"]

    def test_zero_column_warns_unbounded(self, model):
        coeffs = model.coefficients.copy()
        coeffs[:, 0] = 0.0
        report = check_model(dataclasses.replace(model, coefficients=coeffs))
        (diag,) = report.by_code("REPRO204")
        assert diag.severity is Severity.WARNING
        assert model.variables[0] in diag.message

    def test_empty_graph_model_is_clean(self):
        model = build_load_model(QueryGraph("empty"))
        assert check_model(model).counts() == (0, 0, 0)


class TestPlanDocumentVerifier:
    def test_clean_document(self, plan_doc, model):
        report = check_plan_document(plan_doc, model=model)
        assert report.counts() == (0, 0, 0)

    def test_missing_assignment(self):
        report = check_plan_document({"capacities": [1.0]})
        assert [d.code for d in report.errors] == ["REPRO301"]

    def test_zero_capacity(self, plan_doc, model):
        plan_doc["capacities"][0] = 0.0
        report = check_plan_document(plan_doc, model=model)
        assert report.by_code("REPRO304")

    def test_negative_capacity(self, plan_doc, model):
        plan_doc["capacities"][1] = -2.0
        report = check_plan_document(plan_doc, model=model)
        (diag,) = report.by_code("REPRO304")
        assert diag.severity is Severity.ERROR

    def test_partial_mapping(self, plan_doc, model):
        dropped = next(iter(plan_doc["assignment"]))
        del plan_doc["assignment"][dropped]
        report = check_plan_document(plan_doc, model=model)
        (diag,) = report.by_code("REPRO301")
        assert dropped in diag.message

    def test_unknown_operator(self, plan_doc, model):
        plan_doc["assignment"]["ghost-op"] = 0
        report = check_plan_document(plan_doc, model=model)
        (diag,) = report.by_code("REPRO302")
        assert "ghost-op" in diag.message

    def test_node_index_out_of_bounds(self, plan_doc, model):
        op = next(iter(plan_doc["assignment"]))
        plan_doc["assignment"][op] = 99
        report = check_plan_document(plan_doc, model=model)
        assert report.by_code("REPRO303")

    def test_non_integer_node(self, plan_doc, model):
        op = next(iter(plan_doc["assignment"]))
        plan_doc["assignment"][op] = "zero"
        report = check_plan_document(plan_doc, model=model)
        assert report.by_code("REPRO303")

    def test_stale_ln_is_diagnosed_with_structure(self, plan_doc, model):
        """The acceptance-criteria scenario: a corrupted plan whose stored
        L^n disagrees with the recomputed A.L^o yields a structured
        diagnostic with code, location and fix hint."""
        plan_doc["node_coefficients"][0][0] += 0.5
        report = check_plan_document(
            plan_doc, model=model, location="plans/stale.json"
        )
        (diag,) = report.errors
        assert diag.code == "REPRO305"
        assert diag.location == "plans/stale.json"
        assert diag.fix_hint is not None
        assert "recomputed" in diag.message

    def test_ln_dimension_mismatch(self, plan_doc, model):
        plan_doc["node_coefficients"] = [
            row[:-1] for row in plan_doc["node_coefficients"]
        ]
        report = check_plan_document(plan_doc, model=model)
        (diag,) = report.by_code("REPRO305")
        assert f"d={model.num_variables}" in diag.message

    def test_moving_one_operator_breaks_consistency(self, plan_doc, model):
        op = next(iter(plan_doc["assignment"]))
        plan_doc["assignment"][op] = 1 - plan_doc["assignment"][op]
        report = check_plan_document(plan_doc, model=model)
        assert report.by_code("REPRO305")

    def test_empty_node_is_info(self, model):
        mapping = {name: 0 for name in model.operator_names}
        doc = {"assignment": mapping, "capacities": [1.0, 1.0]}
        report = check_plan_document(doc, model=model)
        assert report.ok
        assert report.by_code("REPRO306")

    def test_graph_name_mismatch_warns(self, plan_doc, model):
        plan_doc["graph"] = "some-other-graph"
        report = check_plan_document(plan_doc, model=model)
        assert report.by_code("REPRO308")


class TestPlacementVerifier:
    def test_clean_placement(self, placement):
        assert check_placement(placement).ok

    def test_runner_dispatch(self, graph, model, placement):
        report = check_artifact(graph, model, placement)
        assert report.ok

    def test_unregistered_artifact_is_skipped_with_info(self):
        report = check_artifact(object())
        assert report.ok
        assert report.by_code("REPRO002")


class TestExperimentConfigVerifier:
    def base_config(self):
        return {
            "graph": "monitoring-2",
            "strategy": "rod",
            "capacities": [1.0, 1.0],
            "seed": 1,
            "rate_region": [[0.0, 100.0], [0.0, 100.0]],
        }

    def test_clean_config(self, model):
        report = check_experiment_config(self.base_config(), model=model)
        assert report.counts() == (0, 0, 0)

    def test_missing_seed_warns(self, model):
        config = self.base_config()
        del config["seed"]
        report = check_experiment_config(config, model=model)
        (diag,) = report.by_code("REPRO401")
        assert diag.severity is Severity.WARNING
        assert report.ok

    def test_rate_region_dimension_mismatch(self, model):
        config = self.base_config()
        config["rate_region"] = [[0.0, 100.0]]  # model has 2 inputs
        report = check_experiment_config(config, model=model)
        (diag,) = report.by_code("REPRO402")
        assert "2 input stream(s)" in diag.message

    def test_rates_dimension_mismatch(self, model):
        config = self.base_config()
        config["rates"] = [10.0, 10.0, 10.0]
        report = check_experiment_config(config, model=model)
        assert report.by_code("REPRO402")

    def test_inverted_interval(self, model):
        config = self.base_config()
        config["rate_region"] = [[10.0, 1.0], [0.0, 5.0]]
        report = check_experiment_config(config, model=model)
        assert report.by_code("REPRO403")

    def test_unknown_strategy(self, model):
        config = self.base_config()
        config["strategy"] = "gradient-descent"
        report = check_experiment_config(config, model=model)
        assert report.by_code("REPRO404")

    def test_overloaded_utilization_warns(self, model):
        config = self.base_config()
        config["utilization"] = 1.4
        report = check_experiment_config(config, model=model)
        assert report.by_code("REPRO405")

    def test_without_model_dimensions_unchecked(self):
        config = self.base_config()
        config["rate_region"] = [[0.0, 100.0]]
        report = check_experiment_config(config)  # no model to compare
        assert report.ok


class TestClassification:
    def test_classify(self, plan_doc, graph):
        from repro.graphs.serialize import graph_to_dict

        assert classify_document(graph_to_dict(graph)) == "graph"
        assert classify_document(plan_doc) == "plan"
        assert classify_document({"strategy": "rod"}) == "experiment"
        assert classify_document({"totally": "unrelated"}) is None

    def test_check_document_routes_by_kind(self, plan_doc, model):
        report = check_document(plan_doc, model=model)
        assert report.ok
        report = check_document({"unrelated": True})
        assert report.by_code("REPRO002")


class TestCheckPaths:
    def test_bundled_configs_have_no_errors(self):
        """Acceptance criterion: every bundled example/experiment config
        checks clean at error severity."""
        report = check_paths([CONFIG_DIR])
        assert report.errors == []
        assert report.warnings == []

    def test_corrupted_plan_file_fails(self, tmp_path, placement, graph):
        from repro.graphs.serialize import dump_graph

        dump_graph(graph, str(tmp_path / "g.graph.json"))
        doc = placement.to_document()
        doc["node_coefficients"][0][0] += 1.0
        (tmp_path / "bad.plan.json").write_text(json.dumps(doc))
        report = check_paths([tmp_path])
        assert [d.code for d in report.errors] == ["REPRO305"]
        assert str(tmp_path / "bad.plan.json") in report.errors[0].location

    def test_unreadable_json(self, tmp_path):
        (tmp_path / "broken.json").write_text("{not json")
        report = check_paths([tmp_path])
        assert report.by_code("REPRO001")

    def test_python_files_are_linted(self, tmp_path):
        (tmp_path / "mod.py").write_text("import random\nr = random.random()\n")
        report = check_paths([tmp_path])
        assert report.by_code("REPRO501")
        assert check_paths([tmp_path], lint=False).ok


class TestDeploymentGate:
    def test_plan_verifies_by_default(self, graph):
        deployment = Deployment.plan(graph, [1.0, 1.0])
        assert deployment.placement.num_nodes == 2

    def test_corrupt_model_fails_plan_construction(self, graph, monkeypatch):
        import repro.deploy as deploy_module

        def corrupt_build(g):
            model = build_load_model(g)
            coeffs = model.coefficients.copy()
            coeffs[0, 0] = np.nan
            return dataclasses.replace(model, coefficients=coeffs)

        monkeypatch.setattr(deploy_module, "build_load_model", corrupt_build)
        with pytest.raises(CheckError) as excinfo:
            Deployment.plan(graph, [1.0, 1.0])
        assert excinfo.value.report.by_code("REPRO203")

    def test_verify_false_skips_the_gate(self, graph, monkeypatch):
        import repro.deploy as deploy_module

        def corrupt_build(g):
            model = build_load_model(g)
            coeffs = model.coefficients.copy()
            coeffs[0, 0] = np.nan
            return dataclasses.replace(model, coefficients=coeffs)

        monkeypatch.setattr(deploy_module, "build_load_model", corrupt_build)
        deployment = Deployment.plan(graph, [1.0, 1.0], verify=False)
        assert deployment.placement.num_nodes == 2


class TestHarnessGate:
    def test_make_model_verifies(self):
        from repro.experiments.common import make_model

        model = make_model(num_inputs=2, operators_per_tree=5, seed=0)
        assert model.num_operators == 10

    def test_validate_run_rejects_bad_capacities(self, model):
        from repro.experiments.common import validate_run

        with pytest.raises(CheckError):
            validate_run(model, [0.0, 1.0], seed=1)

    def test_validate_run_rejects_unknown_strategy(self, model):
        from repro.experiments.common import validate_run

        with pytest.raises(CheckError):
            validate_run(model, [1.0, 1.0], seed=1, strategy="psychic")

    def test_validate_run_accepts_clean_config(self, model):
        from repro.experiments.common import validate_run

        validate_run(model, [1.0, 1.0], seed=1, strategy="rod")
