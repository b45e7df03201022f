"""Static analysis for ROD artifacts and for this repository itself.

Two cooperating layers (see ``docs/static_analysis.md``):

**Semantic verifiers** check the artifacts the planner consumes and
produces — query graphs, load models, placement plans, experiment
configs — *before* they reach NumPy, turning deep shape errors and
silently-wrong volumes into structured :class:`Diagnostic` records with
stable codes, locations and fix hints.  They gate plan construction
(:meth:`repro.deploy.Deployment.plan`) and back the ``repro-rod check``
CLI subcommand.

**repro-lint** is an AST lint pass over the source tree enforcing
repo invariants generic tools can't: seeded RNGs only, no float-literal
``==`` in load/rate math, no mutable default arguments, ``__all__`` in
every public module.  Its ``noqa`` baseline lives in
:mod:`repro.check.suppress`; stale suppressions are reported as
``REPRO507`` and pruned by ``repro-lint --prune-baseline``.

Determinism is proven at run time rather than statically:
:mod:`repro.check.determinism` runs the same seeded placement and
simulation under two ``PYTHONHASHSEED`` values and diffs the results.

Quick use::

    from repro.check import check_artifact
    check_artifact(graph, model, placement).raise_if_errors()
"""

from .diagnostics import CheckError, CheckReport, Diagnostic, Severity
from .runner import CheckRunner, check_artifact, default_runner
from .verify_graph import check_graph
from .verify_model import check_model
from .verify_plan import check_placement, check_plan_document
from .verify_config import check_experiment_config
from .artifacts import check_document, check_paths, classify_document
from .lint import LINT_CODES, lint_paths, lint_source, prune_baseline_paths
from .suppress import NoqaMarker, find_markers

__all__ = [
    "CheckError",
    "CheckReport",
    "CheckRunner",
    "Diagnostic",
    "LINT_CODES",
    "NoqaMarker",
    "Severity",
    "check_artifact",
    "check_document",
    "check_experiment_config",
    "check_graph",
    "check_model",
    "check_paths",
    "check_placement",
    "check_plan_document",
    "classify_document",
    "default_runner",
    "find_markers",
    "lint_paths",
    "lint_source",
    "prune_baseline_paths",
]
