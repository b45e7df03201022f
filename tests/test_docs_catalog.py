"""The committed docs must match the code.

``docs/observability.md`` carries generated event/metric catalog tables
between ``BEGIN/END GENERATED`` markers; ``scripts/gen_event_catalog.py``
rewrites them from ``repro.obs.schema``.  This pins the committed file
to the registry so a schema change cannot land without regenerating the
docs (CI runs the same check via ``--check``).  The fault and
simulator docs must name every fault kind the engine understands, and
the static-analysis code table must list every lint rule.
"""

import importlib.util
import re
from pathlib import Path

from repro.check.lint import LINT_CODES
from repro.faults import FAULT_KINDS

ROOT = Path(__file__).resolve().parents[1]


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_event_catalog", ROOT / "scripts" / "gen_event_catalog.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsCatalogInSync:
    def test_committed_tables_match_registry(self):
        gen = _load_generator()
        text = (ROOT / "docs" / "observability.md").read_text()
        assert gen.splice(text) == text, (
            "docs/observability.md catalog tables are stale; run "
            "`python scripts/gen_event_catalog.py`"
        )

    def test_check_mode_passes_on_committed_docs(self):
        gen = _load_generator()
        assert gen.main(["--check"]) == 0


class TestFaultDocsInSync:
    def test_every_fault_kind_is_documented(self):
        text = (ROOT / "docs" / "robustness.md").read_text()
        assert [k for k in FAULT_KINDS if f"`{k}`" not in text] == []

    def test_simulator_docs_point_at_the_failure_model(self):
        text = (ROOT / "docs" / "simulator.md").read_text()
        assert "No failure model" not in text
        assert "robustness.md" in text


class TestLintDocsInSync:
    def test_code_table_matches_the_lint_registry(self):
        text = (ROOT / "docs" / "static_analysis.md").read_text()
        rows = dict(re.findall(r"^\| (REPRO5\d\d) \| (\w+) \|", text, re.M))
        # REPRO500 reports a file that cannot be parsed; no rule emits it.
        assert rows.pop("REPRO500") == "error"
        assert rows == {
            code: str(severity) for code, (severity, _) in LINT_CODES.items()
        }
