"""File-level checking: classify JSON artifacts, walk paths, run passes.

This is the engine behind ``repro-rod check --paths ...``.  It walks
files and directories, classifies each JSON document as a query-graph,
plan, or experiment-config artifact, cross-references plans and configs
against graph documents found in the same batch (by graph name), and
lints every ``.py`` file with :mod:`repro.check.lint`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.load_model import LoadModel, build_load_model
from ..graphs.serialize import graph_from_dict
from .diagnostics import CheckReport, Diagnostic, Severity
from .lint import lint_paths
from .verify_config import check_experiment_config
from .verify_graph import check_graph
from .verify_model import check_model
from .verify_plan import check_plan_document

__all__ = ["classify_document", "check_document", "check_paths"]

_SKIP_DIRS = {".git", "__pycache__", "build", "dist", ".venv", "node_modules"}


def classify_document(doc: Mapping[str, Any]) -> Optional[str]:
    """Best-effort artifact kind of a JSON document.

    Returns ``"graph"``, ``"plan"``, ``"experiment"`` or ``None`` for
    JSON files that are none of our artifacts (ignored, not errors).
    """
    kind = doc.get("kind")
    if kind in ("graph", "plan", "experiment"):
        return str(kind)
    if "inputs" in doc and "operators" in doc:
        return "graph"
    if "assignment" in doc:
        return "plan"
    if "strategy" in doc or "rate_region" in doc:
        return "experiment"
    return None


def _load_json(path: Path) -> Tuple[Optional[Mapping[str, Any]], CheckReport]:
    report = CheckReport()
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        report.add(Diagnostic(
            code="REPRO001",
            severity=Severity.ERROR,
            message=f"cannot read artifact: {exc}",
            location=str(path),
        ))
        return None, report
    if not isinstance(doc, Mapping):
        return None, report  # JSON arrays/scalars are not our artifacts
    return doc, report


def _check_graph_document(
    doc: Mapping[str, Any], location: str
) -> Tuple[Optional[LoadModel], CheckReport]:
    """Verify a graph document; returns its load model when buildable."""
    try:
        graph = graph_from_dict(dict(doc))
    except (KeyError, ValueError, TypeError) as exc:
        report = CheckReport()
        report.add(Diagnostic(
            code="REPRO107",
            severity=Severity.ERROR,
            message=f"graph document does not deserialize: {exc}",
            location=location,
            fix_hint="see repro.graphs.serialize for the document format",
        ))
        return None, report
    report = check_graph(graph)
    if not report.ok:
        return None, report
    try:
        model = build_load_model(graph)
    except (KeyError, ValueError, TypeError) as exc:
        report.add(Diagnostic(
            code="REPRO107",
            severity=Severity.ERROR,
            message=f"load model cannot be built from the graph: {exc}",
            location=location,
        ))
        return None, report
    report.merge(check_model(model))
    return model, report


def check_document(
    doc: Mapping[str, Any],
    location: str = "document",
    model: Optional[LoadModel] = None,
) -> CheckReport:
    """Verify one classified JSON document (graph, plan or experiment)."""
    kind = classify_document(doc)
    if kind == "graph":
        _, report = _check_graph_document(doc, location)
        return report
    if kind == "plan":
        return check_plan_document(doc, model=model, location=location)
    if kind == "experiment":
        return check_experiment_config(doc, model=model, location=location)
    report = CheckReport()
    report.add(Diagnostic(
        code="REPRO002",
        severity=Severity.INFO,
        message="JSON document is not a recognized artifact; skipped",
        location=location,
    ))
    return report


def _collect_files(paths: Iterable[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*")):
                if candidate.suffix in (".json", ".py") and not (
                    _SKIP_DIRS.intersection(candidate.parts)
                ):
                    files.append(candidate)
        elif path.exists():
            files.append(path)
        else:
            files.append(path)  # surfaces as REPRO001 below
    return files


def check_paths(paths: Iterable[object], lint: bool = True) -> CheckReport:
    """Check every artifact under ``paths`` (files or directories).

    JSON artifacts are classified and verified; plans and experiment
    configs are cross-checked against graph documents discovered in the
    same batch, matched by graph name.  With ``lint=True`` every ``.py``
    file also runs through ``repro-lint``.
    """
    files = _collect_files(Path(str(p)) for p in paths)
    report = CheckReport()

    if lint:
        py_files = [p for p in files if p.suffix == ".py"]
        if py_files:
            report.merge(lint_paths(py_files))

    # First pass: parse JSON files, verify graphs, index models by name.
    models: Dict[str, LoadModel] = {}
    pending: List[Tuple[Path, Mapping[str, Any], str]] = []
    for path in files:
        if path.suffix == ".py":
            continue
        doc, parse_report = _load_json(path)
        report.merge(parse_report)
        if doc is None:
            continue
        kind = classify_document(doc)
        if kind == "graph":
            model, graph_report = _check_graph_document(doc, str(path))
            report.merge(graph_report)
            if model is not None:
                models[model.graph.name] = model
        elif kind in ("plan", "experiment"):
            pending.append((path, doc, kind))
        else:
            report.add(Diagnostic(
                code="REPRO002",
                severity=Severity.INFO,
                message="JSON document is not a recognized artifact; skipped",
                location=str(path),
            ))

    # Second pass: plans/configs see every graph found in the batch.
    for path, doc, kind in pending:
        model = models.get(str(doc.get("graph", "")))
        if kind == "plan":
            report.merge(
                check_plan_document(doc, model=model, location=str(path))
            )
        else:
            report.merge(
                check_experiment_config(doc, model=model, location=str(path))
            )
    return report
