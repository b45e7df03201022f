"""Verifier dispatch for in-memory artifacts.

:func:`check_artifact` runs the verifier passes that fit each
artifact's type — query graphs, load models, placements — and
aggregates one :class:`~repro.check.diagnostics.CheckReport`.  A
:class:`LoadModel` also has its graph checked, and a
:class:`Placement` its model's graph; any other type is skipped with a
``REPRO002`` info.
"""

from __future__ import annotations

from typing import Any

from ..core.load_model import LoadModel
from ..core.plans import Placement
from ..graphs.query_graph import QueryGraph
from .diagnostics import CheckReport, Diagnostic, Severity
from .verify_graph import check_graph
from .verify_model import check_model
from .verify_plan import check_placement

__all__ = ["check_artifact"]


def check_artifact(*artifacts: Any) -> CheckReport:
    """Check artifacts in order, graph passes before model or plan ones."""
    report = CheckReport()
    for artifact in artifacts:
        if isinstance(artifact, QueryGraph):
            report.merge(check_graph(artifact))
        elif isinstance(artifact, LoadModel):
            report.merge(check_graph(artifact.graph))
            report.merge(check_model(artifact))
        elif isinstance(artifact, Placement):
            report.merge(check_graph(artifact.model.graph))
            report.merge(check_placement(artifact))
        else:
            report.add(Diagnostic(
                code="REPRO002",
                severity=Severity.INFO,
                message=(
                    f"no verifier registered for "
                    f"{type(artifact).__name__}; artifact skipped"
                ),
            ))
    return report
