"""Deterministic process-pool fan-out for experiment harnesses.

The experiments repeat one embarrassingly-parallel shape over and over:
map a pure task function across a list of seeded work items and collect
the results *in order*.  This module is the one implementation of that
shape, and the only place the repository opens process pools: each task
is a whole experiment run (a placement plus its volume estimate, or a
simulated fault variant).  The kernels below it — QMC estimates and the
placers' searches — run inline, because a pool costs more than one of
them takes (see "Parallel experiment runs" in ``docs/performance.md``).
The properties every caller needs:

* **Determinism** — results are identical for any ``jobs`` value.
  ``jobs=1`` runs the tasks inline (no pool, no pickling) and is the
  reference; ``jobs>1`` fans the same task tuples out to a
  :class:`~concurrent.futures.ProcessPoolExecutor`, and results are
  reassembled in input order.  Task functions must be pure functions of
  their arguments (derive any randomness from seeds in the task tuple).
* **Batching** — tasks are grouped into chunks, one pool submission
  each (:func:`auto_chunksize` sizes them from the task count and pool
  size), so many small tasks do not pay per-task pickle and IPC
  overhead.  Results, their order, and the per-task statistics
  do not depend on the chunking.
* **Resilience** — chunks are submitted individually, so results that
  completed before a worker crash survive it.  A
  :class:`~concurrent.futures.process.BrokenProcessPool` triggers one
  fresh pool for the unfinished tasks; if that pool breaks too, the
  survivors run inline as a last resort.
* **Observability** — every call counts its tasks, failures and pool
  retries; the counters are recorded *even when a task raises*, and
  :func:`parallel_stats` reads them.

Workers are separate processes: task functions and arguments must be
picklable (module-level functions, plain data / NumPy arrays).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

__all__ = [
    "resolve_jobs",
    "auto_chunksize",
    "parallel_map",
    "parallel_stats",
]

T = TypeVar("T")
R = TypeVar("R")

_LOCK = threading.Lock()
_STATS = {
    "inline": 0,
    "process": 0,
    "pools": 0,
    "failures_inline": 0,
    "failures_process": 0,
    "pool_retries": 0,
}

#: Fresh pools tried after a worker crash before the inline fallback.
_POOL_RETRIES = 1

#: Auto-chunking targets this many chunks per worker, so pools stay
#: load-balanced (stragglers can be overtaken) without paying per-task
#: submission overhead.
_CHUNKS_PER_WORKER = 4


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` mean "all cores"."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def auto_chunksize(task_count: int, workers: int) -> int:
    """Chunk size targeting ``_CHUNKS_PER_WORKER`` chunks per worker.

    Small batches stay at chunk size 1 (per-task submission, maximum
    salvageability); thousands of tiny tasks get grouped so the pool
    round-trip cost (pickle + IPC + future bookkeeping) is paid once
    per chunk rather than once per task.
    """
    if task_count < 1 or workers < 1:
        return 1
    return max(1, -(-task_count // (workers * _CHUNKS_PER_WORKER)))


def parallel_map(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    jobs: int = 1,
) -> List[R]:
    """Map ``fn`` over ``tasks``, results in input order.

    ``jobs=1`` executes inline; ``jobs>1`` uses a process pool with at
    most ``min(jobs, len(tasks))`` workers, fed :func:`auto_chunksize`
    chunks.  The output list is identical for every ``jobs`` value as
    long as ``fn`` is a pure function of its task.

    When a worker process dies (:class:`BrokenProcessPool`),
    already-completed results are kept and the unfinished tasks are
    retried in one fresh pool; if that pool breaks too, the survivors
    run inline so one bad worker cannot lose the whole batch.

    Task, failure and retry counters are recorded in the module
    statistics even when this call raises.
    """
    jobs = resolve_jobs(jobs)
    tasks = list(tasks)
    counts = dict.fromkeys(_STATS, 0)
    try:
        if jobs == 1 or len(tasks) <= 1:
            results = _run_inline(fn, list(enumerate(tasks)), counts)
        else:
            workers = min(jobs, len(tasks))
            results = _run_pool(
                fn, tasks, workers, auto_chunksize(len(tasks), workers),
                counts,
            )
    finally:
        with _LOCK:
            for key, value in counts.items():
                _STATS[key] += value
    return [results[index] for index in range(len(tasks))]


def _run_inline(
    fn: Callable[[T], R],
    indexed_tasks: Sequence[Tuple[int, T]],
    counts: Dict[str, int],
) -> Dict[int, R]:
    results: Dict[int, R] = {}
    for index, task in indexed_tasks:
        counts["inline"] += 1
        try:
            results[index] = fn(task)
        except BaseException:
            counts["failures_inline"] += 1
            raise
    return results


def _chunk_worker(
    fn: Callable[[T], R], tasks: Sequence[T]
) -> Tuple[str, List[R], Optional[BaseException]]:
    """Run one chunk inside a worker process, one task at a time.

    Returns ``("ok", results, None)`` or — when a task raises —
    ``("err", results-so-far, exception)``, so the parent can keep
    per-task statistics exact and re-raise the original exception.
    """
    results: List[R] = []
    for task in tasks:
        try:
            results.append(fn(task))
        except BaseException as exc:
            return ("err", results, exc)
    return ("ok", results, None)


def _run_pool(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    workers: int,
    chunksize: int,
    counts: Dict[str, int],
) -> Dict[int, R]:
    results: Dict[int, R] = {}
    pending: List[Tuple[int, T]] = list(enumerate(tasks))
    for attempt in range(_POOL_RETRIES + 1):
        got, pending = _run_one_pool(fn, pending, workers, chunksize, counts)
        results.update(got)
        if not pending:
            return results
        if attempt < _POOL_RETRIES:
            counts["pool_retries"] += 1
    # Every pool broke: run the survivors inline as the last resort.
    results.update(_run_inline(fn, pending, counts))
    return results


_Chunk = List[Tuple[int, T]]


def _run_one_pool(
    fn: Callable[[T], R],
    pending: Sequence[Tuple[int, T]],
    workers: int,
    chunksize: int,
    counts: Dict[str, int],
) -> Tuple[Dict[int, R], List[Tuple[int, T]]]:
    """One pool attempt: ``(results by index, tasks left unfinished)``."""
    chunks: List[_Chunk] = [
        list(pending[start:start + chunksize])
        for start in range(0, len(pending), chunksize)
    ]
    pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
        max_workers=min(workers, len(chunks))
    )
    counts["pools"] += 1
    futures = [(chunk, _submit(pool, fn, chunk)) for chunk in chunks]
    results: Dict[int, R] = {}
    try:
        for chunk, future in futures:
            try:
                status, values, error = future.result()
            except BrokenProcessPool:
                return results, _harvest(futures, results, counts)
            for (index, _task), value in zip(chunk, values):
                results[index] = value
            counts["process"] += len(values)
            if status == "err":
                # The task after the completed prefix raised.
                counts["process"] += 1
                counts["failures_process"] += 1
                _abort_pool(pool, futures)
                pool = None
                assert error is not None
                raise error
        return results, []
    finally:
        if pool is not None:
            pool.shutdown(wait=True)


def _submit(
    pool: ProcessPoolExecutor, fn: Callable[[T], R], chunk: _Chunk
) -> "Future":
    """Submit one chunk.  A worker can die while later chunks are still
    being submitted; the pool then refuses them, and each gets a failed
    future so it joins the unfinished tasks like any other."""
    try:
        return pool.submit(_chunk_worker, fn, [t for _, t in chunk])
    except BrokenProcessPool as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


def _harvest(
    futures: Sequence[Tuple[_Chunk, "Future"]],
    results: Dict[int, R],
    counts: Dict[str, int],
) -> List[Tuple[int, T]]:
    """Salvage chunks that finished cleanly before the pool broke."""
    unfinished: List[Tuple[int, T]] = []
    for chunk, future in futures:
        if chunk and chunk[0][0] in results:
            continue  # already consumed by the await loop
        if (
            future.done()
            and not future.cancelled()
            and future.exception() is None
        ):
            _status, values, _error = future.result()
            for (index, _task), value in zip(chunk, values):
                results[index] = value
            counts["process"] += len(values)
            # A raising task and its unexecuted successors retry; on a
            # deterministic raise the retry pool re-raises it cleanly.
            unfinished.extend(chunk[len(values):])
        else:
            unfinished.extend(chunk)
    return unfinished


def _abort_pool(
    pool: ProcessPoolExecutor,
    futures: Sequence[Tuple[_Chunk, "Future"]],
) -> None:
    """Tear the pool down without waiting for in-flight work.

    Once a task has raised, the batch has failed: ``shutdown(wait=True)``
    would still block until every queued chunk ran, so queued futures
    are cancelled and live workers killed before the non-blocking
    shutdown.
    """
    for _chunk, future in futures:
        future.cancel()
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - teardown is best-effort
            pass
    pool.shutdown(wait=False)


def parallel_stats() -> dict:
    """Process-wide counters (tasks by mode, pools, failures, retries)."""
    with _LOCK:
        return dict(_STATS)
