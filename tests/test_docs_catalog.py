"""The committed docs must match the code.

``docs/observability.md`` carries generated event/metric catalog tables
between ``BEGIN/END GENERATED`` markers; ``scripts/gen_event_catalog.py``
rewrites them from ``repro.obs.schema``.  This pins the committed file
to the registry so a schema change cannot land without regenerating the
docs (CI runs the same check via ``--check``).  The fault and
simulator docs must name every fault kind the engine understands, the
static-analysis code table must list every lint rule, the
run-directory table must name every file a run directory holds, every
test or benchmark and every dotted ``repro.`` name a doc cites must
exist, DESIGN.md's experiment index must name importable modules and
existing bench targets, the CLI reference must cover every subcommand,
option and artifact id the parser declares, and every ``repro-rod``
command a doc shows must parse.
"""

import argparse
import ast
import importlib.util
import re
import shlex
from pathlib import Path

from repro.check.lint import LINT_CODES
from repro.cli import build_parser
from repro.faults import FAULT_KINDS
from repro.obs import runs
from repro.paper import ARTIFACTS
from repro.placers import PLACERS

ROOT = Path(__file__).resolve().parents[1]


#: A cited test or benchmark: a path, then any ``::Class::name`` chain.
CITATION = re.compile(r"\b(?:tests|benchmarks)/[\w./-]*\w(?:::\w+)*")


def _resolves(citation: str) -> bool:
    """Whether the cited path exists and defines each ``::name`` in
    turn: a top-level class or function, then members of that class."""
    path, *names = citation.split("::")
    if not (ROOT / path).exists():
        return False
    scope = ast.parse((ROOT / path).read_text()).body if names else []
    for name in names:
        found = [
            node for node in scope
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name == name
        ]
        if not found:
            return False
        scope = found[0].body
    return True


#: An inline code span, and a dotted ``repro.`` name inside one; a
#: trailing ``*`` marks a glob such as ``repro.check.verify_*``.
CODE_SPAN = re.compile(r"`[^`\n]+`")
REPRO_NAME = re.compile(r"(?<![\w.-])repro(?:\.\w+)+\*?")


def _imports(dotted: str) -> bool:
    """Whether the longest importable prefix of ``dotted`` has each
    remaining part as an attribute, in turn."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for part in parts[cut:]:
                found = getattr(found, part)
        except AttributeError:
            return False
        return True
    return False


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


class TestRunDirectoryDocs:
    def test_the_table_names_every_run_file(self):
        """The run-directory table of docs/observability.md names
        exactly the files of ``repro.obs.runs``'s ``*_NAME`` constants."""
        text = (ROOT / "docs" / "observability.md").read_text()
        section = text[text.index("## The run registry"):]
        section = section[:section.index("\n## ")]
        table = re.findall(r"^\| `([\w.]+)` \|", section, re.M)
        files = [
            value for name, value in vars(runs).items()
            if name.endswith("_NAME")
        ]
        assert len(files) == 5
        assert sorted(table) == sorted(files)


class TestTraceReadingDocs:
    def test_the_reading_example_runs(self, tmp_path, monkeypatch, capsys):
        """The first code block of "Reading and rendering traces" runs
        as written on a recorded trace."""
        from repro.cli import main

        text = (ROOT / "docs" / "observability.md").read_text()
        section = text[text.index("## Reading and rendering traces"):]
        block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        assert "RunIndex" in block
        monkeypatch.chdir(tmp_path)
        graph = str(ROOT / "examples" / "configs" / "monitoring.graph.json")
        assert main(["place", "--graph", graph, "--nodes", "2",
                     "-o", "plan.json"]) == 0
        assert main(["simulate", "--graph", graph, "--plan", "plan.json",
                     "--rates", "60,60", "--duration", "2",
                     "--trace-out", "run.jsonl"]) == 0
        capsys.readouterr()
        exec(compile(block, "observability.md", "exec"), {})
        assert "per-node utilization" in capsys.readouterr().out


class TestDocCitations:
    def test_every_cited_test_and_benchmark_resolves(self):
        citations = [
            (doc.name, citation)
            for doc in sorted((ROOT / "docs").glob("*.md"))
            for citation in CITATION.findall(doc.read_text())
        ]
        assert len(citations) > 100  # the pattern still matches the docs
        assert [c for c in citations if not _resolves(c[1])] == []

    def test_every_cited_repro_name_resolves(self):
        docs = [ROOT / "README.md", ROOT / "DESIGN.md",
                ROOT / "EXPERIMENTS.md", *sorted((ROOT / "docs").glob("*.md"))]
        citations = [
            (doc.name, name)
            for doc in docs
            for span in CODE_SPAN.findall(doc.read_text())
            for name in REPRO_NAME.findall(span)
            if not name.endswith("*")
        ]
        assert len(citations) > 100  # the pattern still matches the docs
        assert [c for c in citations if not _imports(c[1])] == []


def _experiment_index():
    """DESIGN.md section 3's table, one ``{header: cell}`` dict a row."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text[text.index("## 3. Experiment index"):]
    section = section[:section.index("\n## ")]
    header, _rule, *body = [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines() if line.startswith("|")
    ]
    return [dict(zip(header, cells)) for cells in body]


class TestExperimentIndex:
    def test_every_module_cell_imports(self):
        names = [
            (row["Id"], name)
            for row in _experiment_index()
            for name in re.findall(r"`([^`]+)`", row["Modules"])
        ]
        assert len(names) > 20  # the parser still finds the table
        assert [n for n in names if not _imports(f"repro.{n[1]}")] == []

    def test_every_bench_target_resolves(self):
        targets = [
            (row["Id"], row["Bench target"])
            for row in _experiment_index()
        ]
        assert len(targets) > 20
        # A row's target cites tests or benchmarks that exist, or names
        # the CI step that runs it.
        assert [
            t for t in targets
            if not (CITATION.findall(t[1]) or t[1].startswith("CI "))
        ] == []
        assert [
            (row_id, citation)
            for row_id, cell in targets
            for citation in CITATION.findall(cell)
            if not _resolves(citation)
        ] == []


def _parsers(parser):
    """``parser`` and every subcommand parser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


class TestCliReference:
    def test_every_subcommand_option_and_artifact_is_documented(self):
        text = (ROOT / "docs" / "cli.md").read_text()
        parser = build_parser()
        commands = next(
            action.choices for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(re.findall(r"^## `([\w-]+)`", text, re.M)) == set(commands)
        undocumented = [
            action.option_strings
            for each in _parsers(parser)
            for action in each._actions
            if action.option_strings
            and not isinstance(action, argparse._HelpAction)
            and not any(
                re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text)
                for option in action.option_strings
            )
        ]
        assert undocumented == []
        assert sorted(_first_cells(text, "experiment")) == sorted(ARTIFACTS)
        assert _first_cells(text, "place") == list(PLACERS)


#: A fenced block's body.
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)

#: Shell words that end a command: what follows is another program.
SHELL_BREAKS = {"|", ">", ">>", "&&", ";"}


def _documented_commands():
    """``(doc name, argv)`` for each ``repro-rod`` command that starts a
    line of a fenced block in the README or ``docs/``, continuation
    lines joined; an example elided with ``...`` is not a command."""
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for block in FENCE.findall(doc.read_text()):
            for line in block.replace("\\\n", " ").splitlines():
                line = line.strip()
                line = line[2:] if line.startswith("$ ") else line
                if not line.startswith("repro-rod "):
                    continue
                words = shlex.split(line, comments=True)
                for index, word in enumerate(words):
                    if word in SHELL_BREAKS:
                        words = words[:index]
                        break
                if "..." not in words:
                    yield doc.name, words[1:]


def _parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


class TestDocumentedCommands:
    def test_every_documented_command_parses(self):
        commands = list(_documented_commands())
        assert len(commands) >= 40  # the pattern still matches the docs
        assert [c for c in commands if not _parses(c[1])] == []


def _first_cells(text, command):
    """The backticked first cells of the table in a command's section."""
    section = text[text.index(f"## `{command}`"):]
    section = section[:section.index("\n## ")]
    return re.findall(r"^\| `([\w-]+)` \|", section, re.M)
