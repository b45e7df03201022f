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

from .._lazy import lazy_exports

# Imported on first access, so a semantic check does not load the
# linter, and ``python -m repro.check.lint`` runs a module that is
# not imported yet.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".artifacts": ("check_document", "check_paths", "classify_document"),
    ".diagnostics": ("CheckError", "CheckReport", "Diagnostic", "Severity"),
    ".lint": (
        "LINT_CODES",
        "lint_paths",
        "lint_source",
        "prune_baseline_paths",
    ),
    ".runner": ("CheckRunner", "check_artifact", "default_runner"),
    ".suppress": ("NoqaMarker", "find_markers"),
    ".verify_config": ("check_experiment_config",),
    ".verify_graph": ("check_graph",),
    ".verify_model": ("check_model",),
    ".verify_plan": ("check_placement", "check_plan_document"),
})

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
