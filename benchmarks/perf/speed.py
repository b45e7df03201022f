"""Machine-speed calibration: report times in reference seconds.

The benchmark shares its machine, whose speed drifts by up to 2x over
seconds to minutes (measured: the ``steady`` op took 0.19 s, then 0.35 s
for about ten seconds, then 0.19 s again).  So every measured interval
is bracketed by a yardstick, and an interval of ``t`` seconds measured
while the yardstick took ``c`` seconds is reported as ``t * R / c``,
where ``R`` is the yardstick's time on the quiet machine the README
describes — so reference seconds read close to wall seconds there.

Two yardsticks, because no single one tracks every kind of contention:

* :func:`scale`, for work done inside the benchmark's process: the
  geometric mean of two fixed loops — heap pushes and pops with dict
  updates, and a small discrete-event loop with per-node queues and a
  growing sample list.  On that machine it cut the spread of 5-20 s
  windows of the ``steady`` op from 7-28% to 1-3%, and of ``plan`` from
  6-29% to 2-3%.  A third loop, a walk over a few megabytes, slowed
  least under contention and made the correction worse.
* :func:`process_scale`, for child processes (set-up samples and the
  CLI pipeline): a cold ``python -c "import numpy"``.  It cut the
  spread of set-up samples from 20% to 6% and of pipeline ops from 16%
  to 5%, where the in-process loops managed only 22% and 10%.

The yardsticks are benchmark code and must never change: a change
rescales every time the benchmark reports.
"""

from __future__ import annotations

import heapq
import math
import subprocess
import sys
import time
from collections import deque
from typing import List

__all__ = ["REFERENCE_S", "PROCESS_REFERENCE_S", "process_scale", "scale"]

#: :func:`yardstick_seconds` on the quiet machine.
REFERENCE_S = 0.0037
#: :func:`probe_seconds` on the quiet machine.
PROCESS_REFERENCE_S = 0.1


def _heap_and_dict() -> None:
    heap = []
    totals = {}
    for i in range(4000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        totals[i % 97] = totals.get(i % 97, 0.0) + i * 0.5
    while heap:
        heapq.heappop(heap)


def _event_loop() -> None:
    events = []
    seq = 0
    queues = [deque() for _ in range(8)]
    stats = {f"op{k}": [0, 0, 0.0] for k in range(48)}
    waits: List[float] = []
    busy = [0.0] * 8
    for i in range(2000):
        heapq.heappush(events, (i * 0.005, 3, seq, i % 48, 10))
        seq += 1
    while events:
        now, kind, _, op, count = heapq.heappop(events)
        record = stats[f"op{op}"]
        record[0] += count
        record[1] += count // 2
        record[2] += count * 1e-4
        node = op % 8
        queues[node].append((now, op, count))
        if len(queues[node]) > 3:
            waits.append(now - queues[node].popleft()[0])
        if kind == 3 and op < 40:
            heapq.heappush(
                events, (now + 0.002 + busy[node], 2, seq, op + 8,
                         count // 2 + 1)
            )
            seq += 1
            busy[node] = (busy[node] + 1e-4) % 0.01


_LOOPS = (_heap_and_dict, _event_loop)


def yardstick_seconds() -> float:
    """Geometric mean of the loops' wall seconds, measured now."""
    logs = []
    for loop in _LOOPS:
        start = time.perf_counter()
        loop()
        logs.append(math.log(time.perf_counter() - start))
    return math.exp(sum(logs) / len(logs))


def scale() -> float:
    """Reference seconds per wall second in this process, measured now."""
    return REFERENCE_S / yardstick_seconds()


def probe_seconds() -> float:
    """Wall seconds of a cold interpreter importing NumPy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def process_scale() -> float:
    """Reference seconds per wall second of a child process, measured
    now."""
    return PROCESS_REFERENCE_S / probe_seconds()
