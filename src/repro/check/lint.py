"""``repro-lint`` — AST lint rules for repo-specific invariants (``REPRO5xx``).

Generic tools cannot know this repo's contracts; these rules encode the
ones that have bitten stream-processing reproductions before:

* **REPRO501 unseeded-rng** (error) — no ``random.Random()`` without a
  seed and no global-state RNG calls (``random.random()``,
  ``np.random.seed(...)``, ``np.random.uniform(...)``, ...).  Every
  experiment must be replayable from its seed.
* **REPRO502 float-equality** (error) — no ``==``/``!=`` against float
  literals in load/rate math; use ``math.isclose`` or an explicit
  tolerance.  ``assert`` statements are exempt: tests state exact
  IEEE-representable oracles on purpose.
* **REPRO503 mutable-default** (error) — no mutable default arguments.
* **REPRO504 missing-all** (warning) — every public module under
  ``src/`` defines ``__all__``.
* **REPRO505 print-in-library** (error) — no ``print()`` in library
  code under ``repro`` (console entry points ``cli.py`` and the text
  renderer ``textplot.py`` are exempt, as are tests and benchmarks).
  Library code reports through ``repro.obs.log.get_logger(__name__)``
  so ``-v``/``-q`` and log capture work uniformly.
* **REPRO506 scalar-loop-in-kernel** (warning) — no per-element Python
  loops over array data in the volume kernel
  (``src/repro/core/volume/``): a ``for`` over ``range(...)`` whose
  body subscripts with the loop variable is almost always a vectorizable
  hot loop there.  Intentional exceptions (digit-position recurrences,
  sieve striding) carry a justified ``noqa``.
* **REPRO507 unused-suppression** (warning) — a ``noqa`` entry that no
  longer suppresses any finding of a rule that ran, or that names a
  ``REPRO`` code no rule emits.  Stale baselines hide future
  regressions; ``repro-lint --prune-baseline`` rewrites them away.
* **REPRO508 dense-alloc-in-placement-loop** (warning) — no dense
  multi-dimensional ``np.zeros``/``np.empty``/``np.ones``/``np.full``
  allocation inside a loop in the placement package
  (``src/repro/placement/``).  Placement searches visit thousands of
  candidates; an ``np.zeros((n_nodes, ...))`` per candidate is the
  allocation pattern that made flat search collapse at 1000 nodes —
  hoist the buffer or patch deltas instead (see
  ``docs/performance.md``).  Loops that genuinely need a fresh dense
  buffer per iteration carry a justified ``noqa``.

Suppress a finding by appending ``# noqa`` or ``# noqa: REPRO502`` to
the offending line, with a justification comment.

Exit codes: **0** clean, **1** findings at or above ``--fail-on``,
**2** parse or internal errors (the offending file is printed).
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .diagnostics import CheckReport, Diagnostic, Severity
from .suppress import (
    apply_suppressions,
    find_markers,
    prune_markers,
    stale_codes,
)

__all__ = [
    "LINT_CODES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "prune_baseline_paths",
    "main",
]

#: code -> (severity, one-line summary), the ``repro-lint`` rule registry.
LINT_CODES = {
    "REPRO501": (Severity.ERROR, "unseeded or global-state RNG"),
    "REPRO502": (Severity.ERROR, "float literal compared with ==/!="),
    "REPRO503": (Severity.ERROR, "mutable default argument"),
    "REPRO504": (Severity.WARNING, "public module lacks __all__"),
    "REPRO505": (Severity.ERROR, "print() in library code"),
    "REPRO506": (Severity.WARNING, "per-element Python loop in volume kernel"),
    "REPRO507": (Severity.WARNING, "unused noqa suppression"),
    "REPRO508": (Severity.WARNING,
                 "dense array allocation in placement loop"),
}

#: directories (as ``path.parts`` suffixes) whose modules must not loop
#: per-element over arrays — the QMC volume kernel is the repro's inner
#: loop, so REPRO506 is scoped to it.
_SCALAR_LOOP_SCOPE = ("core", "volume")

#: directories (as ``path.parts`` suffixes) whose loops must not allocate
#: dense multi-dimensional arrays per iteration — placement searches
#: score thousands of candidates, so REPRO508 is scoped to them.
_DENSE_ALLOC_SCOPE = ("repro", "placement")

#: numpy constructors whose multi-dimensional form REPRO508 flags.
_DENSE_ALLOC_FUNCS = frozenset({"zeros", "empty", "ones", "full"})

#: module stems under ``repro`` allowed to print: the console entry
#: point and the ASCII renderer whose whole job is terminal output.
_PRINT_EXEMPT_STEMS = frozenset({"cli", "textplot"})

_SKIP_DIRS = {".git", "__pycache__", "build", "dist", ".venv", "node_modules"}

#: ``random`` module functions that mutate/consume the hidden global state.
_RANDOM_STATE_FUNCS = frozenset({
    "random", "seed", "randint", "randrange", "uniform", "gauss",
    "normalvariate", "expovariate", "shuffle", "choice", "choices",
    "sample", "betavariate", "triangular", "paretovariate", "getrandbits",
})

#: ``np.random`` attributes that are fine to call (seedable constructors).
_NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
    "Philox",
})


def _is_test_path(path: Path) -> bool:
    parts = set(path.parts)
    return (
        "tests" in parts
        or "benchmarks" in parts
        or path.stem.startswith("test_")
        or path.stem == "conftest"
    )


class _LintVisitor(ast.NodeVisitor):
    """Single-pass visitor collecting REPRO501-503 findings."""

    def __init__(self, forbid_print: bool = False,
                 flag_scalar_loops: bool = False,
                 flag_dense_allocs: bool = False) -> None:
        self.findings: List[Dict[str, object]] = []
        self._assert_depth = 0
        self._loop_depth = 0
        self.forbid_print = forbid_print
        self.flag_scalar_loops = flag_scalar_loops
        self.flag_dense_allocs = flag_dense_allocs

    def _report(self, code: str, node: ast.AST, message: str,
                fix_hint: str) -> None:
        self.findings.append({
            "code": code,
            "lineno": getattr(node, "lineno", 1),
            "message": message,
            "fix_hint": fix_hint,
        })

    # ----------------------------------------------------------- REPRO501

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self.forbid_print
            and isinstance(func, ast.Name)
            and func.id == "print"
        ):
            self._report(
                "REPRO505", node,
                "print() in library code",
                "log via repro.obs.log.get_logger(__name__) instead",
            )
        if (
            self.flag_dense_allocs
            and self._loop_depth > 0
            and isinstance(func, ast.Attribute)
            and func.attr in _DENSE_ALLOC_FUNCS
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
            and node.args
            and isinstance(node.args[0], ast.Tuple)
            and len(node.args[0].elts) >= 2
        ):
            self._report(
                "REPRO508", node,
                f"dense np.{func.attr}(...) allocation inside a placement "
                "loop",
                "hoist the buffer out of the loop or patch per-candidate "
                "deltas (see the incremental annealing/optimal kernels)",
            )
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id == "random":
                if func.attr == "Random" and not node.args and not node.keywords:
                    self._report(
                        "REPRO501", node,
                        "random.Random() constructed without a seed",
                        "pass an explicit seed: random.Random(seed)",
                    )
                elif func.attr in _RANDOM_STATE_FUNCS:
                    self._report(
                        "REPRO501", node,
                        f"random.{func.attr}() uses the global RNG state",
                        "use a seeded random.Random(seed) instance",
                    )
            elif (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in ("np", "numpy")
                and func.attr not in _NP_RANDOM_ALLOWED
            ):
                self._report(
                    "REPRO501", node,
                    f"np.random.{func.attr}() uses numpy's global RNG state",
                    "use np.random.default_rng(seed)",
                )
        self.generic_visit(node)

    # ----------------------------------------------------------- REPRO502

    def visit_Assert(self, node: ast.Assert) -> None:
        self._assert_depth += 1
        self.generic_visit(node)
        self._assert_depth -= 1

    def visit_Compare(self, node: ast.Compare) -> None:
        if self._assert_depth == 0:
            operands = [node.left] + list(node.comparators)
            has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            has_float = any(
                isinstance(o, ast.Constant) and isinstance(o.value, float)
                for o in operands
            )
            if has_eq and has_float:
                self._report(
                    "REPRO502", node,
                    "float literal compared with ==/!=",
                    "use math.isclose(...) or compare against a tolerance",
                )
        self.generic_visit(node)

    # ----------------------------------------------------------- REPRO503

    def _check_defaults(self, node: ast.AST, args: ast.arguments) -> None:
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                self._report(
                    "REPRO503", default,
                    "mutable default argument is shared across calls",
                    "default to None and create the value inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node, node.args)
        self.generic_visit(node)

    # ----------------------------------------------------------- REPRO506

    @staticmethod
    def _body_subscripts_with(body: Sequence[ast.stmt], name: str) -> bool:
        """Whether any statement indexes something with the given name."""
        for statement in body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Subscript) and any(
                    isinstance(ref, ast.Name) and ref.id == name
                    for ref in ast.walk(node.slice)
                ):
                    return True
        return False

    def visit_For(self, node: ast.For) -> None:
        if (
            self.flag_scalar_loops
            and isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "range"
            and self._body_subscripts_with(node.body, node.target.id)
        ):
            self._report(
                "REPRO506", node,
                "per-element Python loop over array data in the volume "
                "kernel",
                "vectorize with whole-array numpy operations, or add a "
                "justified noqa if the loop is not per-point",
            )
        self.visit(node.target)
        self.visit(node.iter)
        self._visit_loop_body(node)

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self._visit_loop_body(node)

    def _visit_loop_body(self, node: ast.stmt) -> None:
        """Visit a loop's body/orelse with the loop depth raised — the
        iterable/test runs once, only the body repeats."""
        self._loop_depth += 1
        for statement in getattr(node, "body", []):
            self.visit(statement)
        self._loop_depth -= 1
        for statement in getattr(node, "orelse", []):
            self.visit(statement)


def _module_defines_all(tree: ast.Module) -> bool:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets
            ):
                return True
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            if isinstance(target, ast.Name) and target.id == "__all__":
                return True
        elif isinstance(node, ast.AugAssign):
            target = node.target
            if isinstance(target, ast.Name) and target.id == "__all__":
                return True
    return False


def _raw_findings(
    tree: ast.Module, path: Path
) -> Tuple[List[Dict[str, object]], Set[str]]:
    """Unsuppressed findings plus the registered codes that did not run.

    A ``noqa`` entry for a skipped rule cannot be judged stale; every
    other ``REPRO`` code, including one no rule emits, can.
    """
    forbid_print = (
        "repro" in path.parts
        and path.stem not in _PRINT_EXEMPT_STEMS
        and not _is_test_path(path)
    )
    parent_parts = path.parts[:-1]
    flag_scalar_loops = (
        parent_parts[-len(_SCALAR_LOOP_SCOPE):] == _SCALAR_LOOP_SCOPE
        and not _is_test_path(path)
    )
    flag_dense_allocs = (
        parent_parts[-len(_DENSE_ALLOC_SCOPE):] == _DENSE_ALLOC_SCOPE
        and not _is_test_path(path)
    )
    visitor = _LintVisitor(
        forbid_print=forbid_print,
        flag_scalar_loops=flag_scalar_loops,
        flag_dense_allocs=flag_dense_allocs,
    )
    visitor.visit(tree)
    findings = visitor.findings

    check_all = (
        "src" in path.parts
        and not path.stem.startswith("_")
        and not _is_test_path(path)
    )
    if check_all and not _module_defines_all(tree):
        findings.append({
            "code": "REPRO504",
            "lineno": 1,
            "message": "public module does not define __all__",
            "fix_hint": "declare __all__ with the module's public names",
        })

    active = {"REPRO501", "REPRO502", "REPRO503"}
    if check_all:
        active.add("REPRO504")
    if forbid_print:
        active.add("REPRO505")
    if flag_scalar_loops:
        active.add("REPRO506")
    if flag_dense_allocs:
        active.add("REPRO508")
    return findings, set(LINT_CODES) - active


def lint_source(source: str, path: Path) -> List[Diagnostic]:
    """Lint one module's source text; returns its diagnostics.

    Findings on a line with a matching ``# noqa`` are dropped, and
    markers that suppressed nothing surface as ``REPRO507``.
    """
    location = str(path)
    try:
        tree = ast.parse(source, filename=location)
    except SyntaxError as exc:
        return [Diagnostic(
            code="REPRO500",
            severity=Severity.ERROR,
            message=f"cannot parse module: {exc.msg}",
            location=f"{location}:{exc.lineno or 1}",
        )]

    findings, skipped = _raw_findings(tree, path)
    findings.sort(key=lambda f: (f["lineno"], f["code"]))
    markers = find_markers(source)
    keep = apply_suppressions(
        [(str(f["code"]), int(f["lineno"])) for f in findings],  # type: ignore[arg-type]
        markers,
    )

    entries: List[Tuple[int, str, Diagnostic]] = []
    for finding, kept in zip(findings, keep):
        if not kept:
            continue
        code = str(finding["code"])
        lineno = int(finding["lineno"])  # type: ignore[arg-type]
        severity, _ = LINT_CODES[code]
        entries.append((lineno, code, Diagnostic(
            code=code,
            severity=severity,
            message=str(finding["message"]),
            location=f"{location}:{lineno}",
            fix_hint=str(finding["fix_hint"]) if finding.get("fix_hint") else None,
        )))
    for lineno in sorted(markers):
        stale = stale_codes(markers[lineno], skipped)
        if not stale:
            continue
        label = ", ".join(stale)
        entries.append((lineno, "REPRO507", Diagnostic(
            code="REPRO507",
            severity=Severity.WARNING,
            message=f"suppression '{label}' no longer matches any finding",
            location=f"{location}:{lineno}",
            fix_hint="remove the stale entry, or run "
                     "repro-lint --prune-baseline",
        )))
    entries.sort(key=lambda e: (e[0], e[1]))
    return [diagnostic for _, _, diagnostic in entries]


def lint_file(path: Path) -> List[Diagnostic]:
    """Lint one ``.py`` file from disk."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [Diagnostic(
            code="REPRO500",
            severity=Severity.ERROR,
            message=f"cannot read file: {exc}",
            location=str(path),
        )]
    return lint_source(source, path)


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into the ``.py`` files to lint."""
    result = []
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    result.append(candidate)
        elif path.suffix == ".py":
            result.append(path)
    return result


def lint_paths(paths: Sequence[object]) -> CheckReport:
    """Lint every ``.py`` file under the given files/directories."""
    report = CheckReport()
    for path in iter_python_files(Path(str(p)) for p in paths):
        report.extend(lint_file(path))
    return report


def prune_baseline_paths(paths: Sequence[object]) -> List[Tuple[Path, int]]:
    """Remove stale ``noqa`` entries in place; ``(path, pruned)`` list.

    Re-runs the same analysis as :func:`lint_paths` to learn which
    markers still suppress something, then rewrites each file whose
    baseline has dead entries.  Unparseable files are left alone.
    """
    changed: List[Tuple[Path, int]] = []
    for path in iter_python_files(Path(str(p)) for p in paths):
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (OSError, SyntaxError):
            continue
        findings, skipped = _raw_findings(tree, path)
        markers = find_markers(source)
        apply_suppressions(
            [(str(f["code"]), int(f["lineno"])) for f in findings],  # type: ignore[arg-type]
            markers,
        )
        new_source, pruned = prune_markers(source, markers, skipped)
        if pruned:
            path.write_text(new_source, encoding="utf-8")
            changed.append((path, pruned))
    return changed


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-lint [paths...] [--fail-on SEVERITY]`` console entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST lint for repo-specific invariants (REPRO5xx)",
    )
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories to lint")
    parser.add_argument("--fail-on", default="warning",
                        choices=("info", "warning", "error"),
                        help="lowest severity that fails the run")
    parser.add_argument("--prune-baseline", action="store_true",
                        help="rewrite files to drop stale noqa entries, "
                             "then lint what remains")
    args = parser.parse_args(argv)

    # This *is* the console entry point; stdout is its interface.
    try:
        if args.prune_baseline:
            for path, pruned in prune_baseline_paths(args.paths):
                print(f"pruned {pruned} stale suppression(s) in {path}")  # noqa: REPRO505
        report = lint_paths(args.paths)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"repro-lint: internal error: {exc}", file=sys.stderr)  # noqa: REPRO505
        return 2
    threshold = Severity.parse(args.fail_on)
    failing = report.at_least(threshold)
    for diagnostic in report:
        print(diagnostic.format())  # noqa: REPRO505
    errors, warnings, infos = report.counts()
    print(f"repro-lint: {errors} error(s), {warnings} warning(s), "  # noqa: REPRO505
          f"{infos} info(s)")
    parse_failures = [d for d in report if d.code == "REPRO500"]
    if parse_failures:
        for diagnostic in parse_failures:
            print(f"repro-lint: cannot analyze {diagnostic.location}",  # noqa: REPRO505
                  file=sys.stderr)
        return 2
    return 1 if failing else 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
