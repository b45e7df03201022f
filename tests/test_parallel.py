"""Tests for the deterministic experiment fan-out (``repro.parallel``)."""

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro import parallel
from repro.experiments.common import make_model, volume_ratio_runs


def _boom(task):
    raise ValueError(f"task {task} failed")


def _die_once_in_worker(task):
    """Kill the worker the first time a task with a marker path runs."""
    value, marker = task
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(1)
    return value * 2


def _die_in_worker(task):
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return task + 1


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert parallel.resolve_jobs(3) == 3
        assert parallel.resolve_jobs(1) == 1

    def test_zero_and_none_mean_all_cores(self):
        assert parallel.resolve_jobs(0) >= 1
        assert parallel.resolve_jobs(None) == parallel.resolve_jobs(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            parallel.resolve_jobs(-1)


class TestParallelMap:
    def test_inline_results_in_order(self):
        assert parallel.parallel_map(str, range(10), jobs=1) == [
            str(i) for i in range(10)
        ]

    def test_process_results_in_order(self):
        assert parallel.parallel_map(str, range(20), jobs=4) == [
            str(i) for i in range(20)
        ]

    def test_process_equals_inline(self):
        tasks = [float(i) for i in range(16)]
        assert parallel.parallel_map(math.sqrt, tasks, jobs=3) == (
            parallel.parallel_map(math.sqrt, tasks, jobs=1)
        )

    def test_single_task_stays_inline(self):
        before = parallel.parallel_stats()["pools"]
        assert parallel.parallel_map(str, [7], jobs=8) == ["7"]
        assert parallel.parallel_stats()["pools"] == before

    def test_empty_tasks(self):
        assert parallel.parallel_map(str, [], jobs=4) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="jobs"):
            parallel.parallel_map(str, [1], jobs=-1)


class TestFailureHandling:
    def test_inline_raise_propagates_and_records(self):
        """Regression: a raising task must not skip the bookkeeping."""
        before = parallel.parallel_stats()
        with pytest.raises(ValueError, match="task 2 failed"):
            parallel.parallel_map(_boom, [2], jobs=1)
        after = parallel.parallel_stats()
        assert after["failures_inline"] == before["failures_inline"] + 1
        assert after["inline"] == before["inline"] + 1

    def test_process_raise_propagates_and_records(self):
        before = parallel.parallel_stats()
        with pytest.raises(ValueError, match="failed"):
            parallel.parallel_map(_boom, [1, 2, 3], jobs=2)
        after = parallel.parallel_stats()
        assert (
            after["failures_process"] == before["failures_process"] + 1
        )

    def test_broken_pool_keeps_completed_results_and_retries(
        self, tmp_path
    ):
        """A dying worker loses neither the finished results nor the
        batch: unfinished tasks retry in a fresh pool."""
        marker = str(tmp_path / "died")
        before = parallel.parallel_stats()
        results = parallel.parallel_map(
            _die_once_in_worker,
            [(1, None), (2, None), (3, marker), (4, None)],
            jobs=2,
        )
        assert results == [2, 4, 6, 8]
        assert os.path.exists(marker)
        after = parallel.parallel_stats()
        assert after["pool_retries"] == before["pool_retries"] + 1

    def test_pool_breaking_during_submission_is_recovered(
        self, monkeypatch
    ):
        """A worker that dies while later chunks are still being
        submitted breaks the pool mid-submission; the refused chunks
        retry like any other unfinished ones."""
        submit = ProcessPoolExecutor.submit
        calls = []

        def refuse_second(pool, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise BrokenProcessPool("a child process terminated")
            return submit(pool, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", refuse_second)
        before = parallel.parallel_stats()
        assert parallel.parallel_map(str, range(4), jobs=2) == [
            "0", "1", "2", "3",
        ]
        after = parallel.parallel_stats()
        assert after["pool_retries"] == before["pool_retries"] + 1

    def test_inline_fallback_when_pool_keeps_breaking(self):
        """If every pool attempt dies, survivors run inline rather than
        losing the batch."""
        results = parallel.parallel_map(_die_in_worker, [10, 20, 30], jobs=2)
        assert results == [11, 21, 31]


class TestExperimentEquivalence:
    def test_volume_ratio_runs_identical_for_any_jobs(self):
        # The acceptance bar: fanning runs out to worker processes
        # changes nothing, bit for bit.
        model = make_model(3, 6, seed=11)
        capacities = [1.0] * 4
        sequential = volume_ratio_runs(
            "random", model, capacities, repeats=6, samples=512,
            base_seed=3, jobs=1,
        )
        fanned = volume_ratio_runs(
            "random", model, capacities, repeats=6, samples=512,
            base_seed=3, jobs=4,
        )
        np.testing.assert_array_equal(sequential, fanned)

    def test_rate_independent_algorithm_identical_too(self):
        model = make_model(2, 5, seed=2)
        capacities = [1.0] * 3
        np.testing.assert_array_equal(
            volume_ratio_runs("rod", model, capacities, repeats=4,
                              samples=256, base_seed=1, jobs=1),
            volume_ratio_runs("rod", model, capacities, repeats=4,
                              samples=256, base_seed=1, jobs=2),
        )
