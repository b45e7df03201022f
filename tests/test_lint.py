"""Tests for repro-lint, the AST lint pass (REPRO5xx)."""

from pathlib import Path

import pytest

from repro.check import Severity, lint_paths, lint_source
from repro.check.lint import LINT_CODES, iter_python_files, main

REPO_ROOT = Path(__file__).resolve().parents[1]

SRC_PATH = Path("src/repro/example.py")
TEST_PATH = Path("tests/test_example.py")


def codes(source, path=TEST_PATH):
    return [d.code for d in lint_source(source, path)]


class TestUnseededRng:
    def test_random_random_flagged(self):
        assert codes("import random\nx = random.random()\n") == ["REPRO501"]

    def test_unseeded_random_instance_flagged(self):
        assert codes("import random\nr = random.Random()\n") == ["REPRO501"]

    def test_seeded_random_instance_ok(self):
        assert codes("import random\nr = random.Random(42)\n") == []

    def test_np_random_global_state_flagged(self):
        assert codes("import numpy as np\nnp.random.seed(0)\n") == ["REPRO501"]
        assert codes("import numpy as np\nx = np.random.uniform(0, 1)\n") == [
            "REPRO501",
        ]

    def test_np_default_rng_ok(self):
        assert codes("import numpy as np\nr = np.random.default_rng(7)\n") == []

    def test_random_shuffle_flagged(self):
        assert codes("import random\nrandom.shuffle(items)\n") == ["REPRO501"]


class TestFloatEquality:
    def test_control_flow_comparison_flagged(self):
        assert codes("if ratio == 0.0:\n    pass\n") == ["REPRO502"]

    def test_not_equal_flagged(self):
        assert codes("y = [v for v in vs if v != 1.0]\n") == ["REPRO502"]

    def test_assert_statements_exempt(self):
        # Tests state exact IEEE-representable oracles on purpose.
        assert codes("assert ratio == 0.0\n") == []
        assert codes("assert a == 1.0 and b == 2.0\n") == []

    def test_integer_literals_ok(self):
        assert codes("if count == 0:\n    pass\n") == []

    def test_inequalities_ok(self):
        assert codes("if ratio <= 0.5:\n    pass\n") == []


class TestMutableDefault:
    def test_list_literal_flagged(self):
        assert codes("def f(items=[]):\n    pass\n") == ["REPRO503"]

    def test_dict_constructor_flagged(self):
        assert codes("def f(opts=dict()):\n    pass\n") == ["REPRO503"]

    def test_keyword_only_default_flagged(self):
        assert codes("def f(*, acc={}):\n    pass\n") == ["REPRO503"]

    def test_none_default_ok(self):
        assert codes("def f(items=None):\n    pass\n") == []

    def test_tuple_default_ok(self):
        assert codes("def f(dims=(1, 2)):\n    pass\n") == []


class TestMissingAll:
    def test_public_src_module_without_all(self):
        report = lint_source("x = 1\n", SRC_PATH)
        assert [d.code for d in report] == ["REPRO504"]
        assert report[0].severity is Severity.WARNING

    def test_src_module_with_all_ok(self):
        assert codes('__all__ = ["x"]\nx = 1\n', SRC_PATH) == []

    def test_private_module_exempt(self):
        assert codes("x = 1\n", Path("src/repro/_private.py")) == []
        assert codes("x = 1\n", Path("src/repro/__main__.py")) == []

    def test_test_files_exempt(self):
        assert codes("x = 1\n", TEST_PATH) == []

    def test_non_src_files_exempt(self):
        assert codes("x = 1\n", Path("examples/demo.py")) == []


class TestSuppression:
    def test_bare_noqa(self):
        assert codes("x = random.random()  # noqa\n") == []

    def test_coded_noqa(self):
        assert codes("x = random.random()  # noqa: REPRO501\n") == []

    def test_wrong_code_does_not_suppress(self):
        # The finding survives, and the mismatched suppression itself
        # is reported as unused (REPRO507).
        assert codes("x = random.random()  # noqa: REPRO502\n") == [
            "REPRO501",
            "REPRO507",
        ]

    def test_bare_noqa_that_suppresses_nothing_is_stale(self):
        assert codes("x = 1  # noqa\n") == ["REPRO507"]

    def test_coded_noqa_that_suppresses_nothing_is_stale(self):
        assert codes("x = 1  # noqa: REPRO501\n") == ["REPRO507"]
        # A code no rule emits (a deleted rule's leftover) is stale too.
        assert codes("x = 1  # noqa: REPRO599\n") == ["REPRO507"]

    def test_foreign_tool_codes_are_not_judged(self):
        # Codes outside the REPRO namespace belong to other linters.
        assert codes("x = 1  # noqa: E501\n") == []


class TestPruneBaseline:
    def test_prunes_stale_and_keeps_live_markers(self, tmp_path):
        from repro.check import prune_baseline_paths

        target = tmp_path / "mod.py"
        target.write_text(
            "import random\n"
            "x = random.random()  # noqa: REPRO501\n"
            "y = 1  # noqa: REPRO501\n"
        )
        pruned = dict(prune_baseline_paths([tmp_path]))
        assert pruned == {target: 1}
        text = target.read_text()
        assert text.count("noqa") == 1
        assert "x = random.random()  # noqa: REPRO501" in text
        assert "y = 1\n" in text

    def test_partial_prune_keeps_the_justification_apart(self, tmp_path):
        from repro.check import prune_baseline_paths

        target = tmp_path / "mod.py"
        target.write_text(
            "import random\n"
            "x = random.random()  # noqa: REPRO501, REPRO502  # seeded upstream\n"
        )
        assert dict(prune_baseline_paths([tmp_path])) == {target: 1}
        assert target.read_text() == (
            "import random\n"
            "x = random.random()  # noqa: REPRO501  # seeded upstream\n"
        )

    def test_clean_tree_prunes_nothing(self, tmp_path):
        from repro.check import prune_baseline_paths

        target = tmp_path / "mod.py"
        source = "import random\nx = random.random()  # noqa: REPRO501\n"
        target.write_text(source)
        assert list(prune_baseline_paths([tmp_path])) == []
        assert target.read_text() == source

    def test_main_prune_flag_then_exits_clean(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("x = 1  # noqa: REPRO501\n")
        assert main([str(tmp_path)]) == 1  # stale marker -> REPRO507
        assert main(["--prune-baseline", str(tmp_path)]) == 0
        assert "pruned 1 stale suppression" in capsys.readouterr().out
        assert "noqa" not in target.read_text()


class TestMachinery:
    def test_syntax_error_is_reported_not_raised(self):
        assert codes("def broken(:\n") == ["REPRO500"]

    def test_line_numbers_in_location(self):
        (diag,) = lint_source("x = 1\ny = random.random()\n", TEST_PATH)
        assert diag.location.endswith(":2")

    def test_registry_documents_every_emitted_code(self):
        emitted = {"REPRO501", "REPRO502", "REPRO503", "REPRO504"}
        assert emitted <= set(LINT_CODES)

    def test_iter_python_files_skips_caches(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "mod.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["mod.py"]

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nx = random.random()\n")
        assert main([str(dirty)]) == 1
        assert "REPRO501" in capsys.readouterr().out

    def test_main_exit_2_names_the_unparseable_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main([str(bad)]) == 2
        captured = capsys.readouterr()
        assert "cannot analyze" in captured.err
        assert "bad.py" in captured.err


class TestMergedTreeIsClean:
    def test_src_and_tests_lint_clean(self):
        """Acceptance criterion: repro-lint src tests runs clean."""
        report = lint_paths([REPO_ROOT / "src", REPO_ROOT / "tests"])
        assert [d.format() for d in report] == []

    def test_examples_and_benchmarks_lint_clean(self):
        report = lint_paths(
            [REPO_ROOT / "examples", REPO_ROOT / "benchmarks"]
        )
        assert [d.format() for d in report] == []


class TestPrintInLibrary:
    LIB_PATH = Path("src/repro/simulator/engine.py")
    # ``__all__`` keeps REPRO504 out of the way; these tests are about 505.
    ALL = "__all__ = []\n"

    def test_print_in_library_module_flagged(self):
        assert codes(self.ALL + "print('hello')\n", self.LIB_PATH) == [
            "REPRO505",
        ]

    def test_logger_call_ok(self):
        source = (
            self.ALL
            + "from repro.obs.log import get_logger\n"
            "_LOG = get_logger(__name__)\n"
            "_LOG.info('hello')\n"
        )
        assert codes(source, self.LIB_PATH) == []

    def test_cli_and_textplot_exempt(self):
        assert codes(self.ALL + "print('x')\n", Path("src/repro/cli.py")) == []
        assert codes(
            self.ALL + "print('x')\n", Path("src/repro/workload/textplot.py")
        ) == []

    def test_tests_and_benchmarks_exempt(self):
        assert codes("print('x')\n", Path("tests/test_example.py")) == []
        assert codes("print('x')\n", Path("benchmarks/bench.py")) == []

    def test_outside_repro_package_ok(self):
        assert codes("print('x')\n", Path("scripts/tool.py")) == []

    def test_noqa_suppresses(self):
        assert codes(
            self.ALL + "print('x')  # noqa: REPRO505\n", self.LIB_PATH
        ) == []

    def test_method_named_print_ok(self):
        # Only the builtin counts; obj.print() is someone else's API.
        assert codes(self.ALL + "writer.print('x')\n", self.LIB_PATH) == []


class TestScalarLoopInKernel:
    KERNEL_PATH = Path("src/repro/core/volume/qmc.py")
    ALL = "__all__ = []\n"
    LOOP = (
        "def f(points):\n"
        "    total = 0.0\n"
        "    for i in range(len(points)):\n"
        "        total += points[i].sum()\n"
        "    return total\n"
    )

    def test_range_subscript_loop_flagged_in_kernel(self):
        assert codes(self.ALL + self.LOOP, self.KERNEL_PATH) == ["REPRO506"]

    def test_severity_is_warning(self):
        diagnostics = lint_source(self.ALL + self.LOOP, self.KERNEL_PATH)
        assert diagnostics[0].severity is Severity.WARNING

    def test_same_loop_ok_outside_kernel(self):
        assert codes(
            self.ALL + self.LOOP, Path("src/repro/simulator/engine.py")
        ) == []
        assert codes(self.LOOP, Path("tests/test_example.py")) == []

    def test_loop_without_subscript_ok(self):
        source = (
            self.ALL
            + "def f(chunks):\n"
            "    for i in range(4):\n"
            "        work(i)\n"
        )
        assert codes(source, self.KERNEL_PATH) == []

    def test_iteration_over_sequence_ok(self):
        # Direct iteration (no index arithmetic) is not the pattern
        # REPRO506 targets.
        source = (
            self.ALL
            + "def f(rows):\n"
            "    return [row.sum() for row in rows]\n"
        )
        assert codes(source, self.KERNEL_PATH) == []

    def test_noqa_with_justification_suppresses(self):
        source = self.ALL + self.LOOP.replace(
            "for i in range(len(points)):",
            "for i in range(len(points)):  "
            "# noqa: REPRO506  # O(log n) digit loop",
        )
        assert codes(source, self.KERNEL_PATH) == []

    def test_kernel_modules_carry_justified_baseline(self):
        # The shipped kernel lints clean: every intentional loop has a
        # justified noqa, and nothing else loops per element.
        report = lint_paths([REPO_ROOT / "src" / "repro" / "core" / "volume"])
        assert [d.code for d in report] == []


class TestDenseAllocInPlacementLoop:
    PLACEMENT_PATH = Path("src/repro/placement/searcher.py")
    ALL = "__all__ = []\n"
    LOOP = (
        "import numpy as np\n"
        "def score(plans, n, d):\n"
        "    for plan in plans:\n"
        "        ln = np.zeros((n, d))\n"
        "        use(ln)\n"
    )

    def test_dense_zeros_in_loop_flagged(self):
        assert codes(self.ALL + self.LOOP, self.PLACEMENT_PATH) == [
            "REPRO508",
        ]

    def test_severity_is_warning(self):
        diagnostics = lint_source(self.ALL + self.LOOP, self.PLACEMENT_PATH)
        assert diagnostics[0].severity is Severity.WARNING

    def test_empty_and_full_also_flagged(self):
        for ctor in ("np.empty((n, d))", "np.ones((n, d))",
                     "np.full((n, d), 0.0)"):
            source = self.ALL + self.LOOP.replace("np.zeros((n, d))", ctor)
            assert codes(source, self.PLACEMENT_PATH) == ["REPRO508"], ctor

    def test_while_loop_flagged(self):
        source = (
            self.ALL
            + "import numpy as np\n"
            "def score(n, d):\n"
            "    while improving():\n"
            "        ln = np.zeros((n, d))\n"
            "        use(ln)\n"
        )
        assert codes(source, self.PLACEMENT_PATH) == ["REPRO508"]

    def test_hoisted_allocation_ok(self):
        source = (
            self.ALL
            + "import numpy as np\n"
            "def score(plans, n, d):\n"
            "    ln = np.zeros((n, d))\n"
            "    for plan in plans:\n"
            "        ln[:] = 0.0\n"
            "        use(ln)\n"
        )
        assert codes(source, self.PLACEMENT_PATH) == []

    def test_one_dimensional_allocation_ok(self):
        # Flagging every tiny vector would be noise; the rule targets
        # the (n_nodes, ...)-shaped dense state.
        source = self.ALL + self.LOOP.replace("np.zeros((n, d))",
                                              "np.zeros(n)")
        assert codes(source, self.PLACEMENT_PATH) == []

    def test_iterable_expression_not_counted_as_loop_body(self):
        source = (
            self.ALL
            + "import numpy as np\n"
            "def f(n, d):\n"
            "    for row in np.zeros((n, d)):\n"
            "        use(row)\n"
        )
        assert codes(source, self.PLACEMENT_PATH) == []

    def test_same_loop_ok_outside_placement(self):
        assert codes(
            self.ALL + self.LOOP, Path("src/repro/simulator/engine.py")
        ) == []
        assert codes(self.LOOP, Path("tests/test_example.py")) == []

    def test_noqa_with_justification_suppresses(self):
        source = self.ALL + self.LOOP.replace(
            "ln = np.zeros((n, d))",
            "ln = np.zeros((n, d))  "
            "# noqa: REPRO508  # fresh buffer handed to worker",
        )
        assert codes(source, self.PLACEMENT_PATH) == []

    def test_placement_package_lints_clean(self):
        # The shipped placement package carries no dense per-candidate
        # allocation: the annealing/optimal/hierarchical kernels patch
        # deltas instead (the baseline is empty by construction).
        report = lint_paths([REPO_ROOT / "src" / "repro" / "placement"])
        assert [d.code for d in report] == []
