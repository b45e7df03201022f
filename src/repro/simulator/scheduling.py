"""Per-node batch scheduling disciplines.

Each simulated node serves one batch at a time; when it frees up, the
scheduling policy picks the next pending batch:

* ``"fifo"`` — global arrival order (the classic single-queue node);
* ``"round_robin"`` — one batch per operator in rotation, the
  Aurora/Borealis-style operator scheduler that bounds per-operator
  starvation;
* ``"longest_queue"`` — serve the operator with the most queued tuples,
  which drains hotspots fastest at the cost of starving light operators
  during bursts.

Scheduling changes *latency distribution*, never feasibility — total
work is policy-independent — which is exactly what the scheduling
ablation benchmark demonstrates.

Migration stalls are modelled as high-priority entries that preempt the
queue (the node is busy serializing/installing operator state).
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

__all__ = ["POLICIES", "SchedulerQueue", "Stall"]

POLICIES = ("fifo", "round_robin", "longest_queue")


@dataclass(frozen=True)
class Stall:
    """A non-work queue entry: the node pauses for ``duration`` seconds.

    ``decision`` carries the decision-audit id of the migration that
    caused the pause (-1 when tracing is off), so ``node.stall`` trace
    events attribute reconfiguration time to the controller decision.
    """

    duration: float
    decision: int = -1


class SchedulerQueue:
    """Pending batches of one node under a scheduling policy."""

    def __init__(self, policy: str = "fifo") -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; "
                f"expected one of {POLICIES}"
            )
        self.policy = policy
        self._stalls: Deque[Stall] = deque()
        # fifo: one global deque of batches.
        self._fifo: Deque[object] = deque()
        # round_robin / longest_queue: per-operator FIFO deques, never
        # empty; the OrderedDict's order doubles as the rotation order.
        self._per_op: "OrderedDict[str, Deque[object]]" = OrderedDict()
        # Queued tuples per operator in ``_per_op``, kept by every push
        # and removal so a longest_queue pop need not re-sum the queues.
        self._tuples: Dict[str, int] = {}
        if policy == "fifo":
            # The deque's own append: a push runs once per batch.
            self.push = self._fifo.append  # type: ignore[method-assign]

    # ---------------------------------------------------------------- push

    def push(self, batch) -> None:
        """Enqueue a batch (``batch.operator`` names its operator).  A
        fifo queue's ``push`` is its deque's append instead."""
        operator = batch.operator
        queue = self._per_op.get(operator)
        if queue is None:
            queue = deque()
            self._per_op[operator] = queue
            self._tuples[operator] = batch.count
        else:
            self._tuples[operator] += batch.count
        queue.append(batch)

    def push_stall(self, duration: float, decision: int = -1) -> None:
        """Enqueue a migration stall, served before any batch."""
        if not 0 <= duration < math.inf:
            raise ValueError(
                f"stall duration must be finite and >= 0, got {duration}"
            )
        self._stalls.append(Stall(duration, decision))

    # ----------------------------------------------------------------- pop

    def pop(self):
        """Next entry to serve: a :class:`Stall` or a batch."""
        if self._stalls:
            return self._stalls.popleft()
        if self._fifo:
            return self._fifo.popleft()
        if not self._per_op:
            raise IndexError("pop from an empty scheduler queue")
        if self.policy == "round_robin":
            name, queue = next(iter(self._per_op.items()))
            batch = queue.popleft()
            # Rotate: the served operator goes to the back.
            self._per_op.move_to_end(name)
        else:
            # longest_queue: operator with the most queued tuples, the
            # first in ``_per_op`` order on a tie.
            name = max(self._per_op, key=self._tuples.__getitem__)
            queue = self._per_op[name]
            batch = queue.popleft()
        if queue:
            self._tuples[name] -= batch.count
        else:
            del self._per_op[name], self._tuples[name]
        return batch

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._stalls) + len(self._fifo) + sum(
            len(queue) for queue in self._per_op.values()
        )

    @property
    def is_empty(self) -> bool:
        return not (self._fifo or self._per_op or self._stalls)

    def queued_tuples(self, operator: Optional[str] = None) -> int:
        """Tuples pending, for one operator or in total."""
        if self.policy == "fifo":
            batches = [
                b for b in self._fifo
                if operator is None or b.operator == operator
            ]
            return sum(b.count for b in batches)
        if operator is not None:
            return self._tuples.get(operator, 0)
        return sum(self._tuples.values())

    def take_operator(self, operator: str) -> Tuple[object, ...]:
        """Remove and return all pending batches of one operator.

        Used when a migration moves an operator: its queued work follows
        it to the destination node.
        """
        if self.policy == "fifo":
            taken = tuple(
                b for b in self._fifo if b.operator == operator
            )
            kept = [b for b in self._fifo if b.operator != operator]
            self._fifo.clear()  # in place: ``push`` is its bound append
            self._fifo.extend(kept)
            return taken
        self._tuples.pop(operator, None)
        return tuple(self._per_op.pop(operator, ()))
