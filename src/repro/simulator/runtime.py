"""Per-operator runtime behaviour inside the simulator.

A runtime turns an arriving batch of tuples into (CPU work, output
tuples).  Selectivities are applied with fractional carry so long-run
output counts match the analytic rates exactly; window joins keep a real
sliding window of recent arrival counts per input port, so their
quadratic load emerges from simulation rather than being asserted.

Each runtime carries its fractional tuples in a float: it adds the
batch's expected output, emits ``int(carry + 1e-9)`` whole tuples and
keeps the rest.  The epsilon absorbs accumulated binary-fraction error
(e.g. 1000 x 0.3 summing to 299.9999...) without ever over-emitting
noticeably.  The three lines are written out in each ``process``: it
runs once per served batch.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from ..graphs.operators import (
    LinearOperator,
    Operator,
    VariableSelectivityOp,
    WindowJoin,
)

__all__ = ["OperatorRuntime", "make_runtime"]


class OperatorRuntime:
    """Base runtime: subclasses define :meth:`process`."""

    def __init__(self, operator: Operator) -> None:
        self.operator = operator

    def process(self, now: float, port: int, count: int) -> Tuple[float, int]:
        """Consume ``count`` tuples on ``port`` at time ``now``.

        Returns ``(cpu_seconds_of_work, output_tuple_count)`` where the CPU
        work is expressed for a unit-capacity node (the engine divides by
        the node's capacity).
        """
        raise NotImplementedError


class LinearRuntime(OperatorRuntime):
    """Constant per-tuple cost and selectivity per port."""

    def __init__(self, operator: LinearOperator) -> None:
        super().__init__(operator)
        self._carries = [0.0] * operator.arity

    def process(self, now: float, port: int, count: int) -> Tuple[float, int]:
        op = self.operator
        carry = self._carries[port] + op.selectivities[port] * count
        out = int(carry + 1e-9)
        self._carries[port] = carry - out
        return op.costs[port] * count, out


class VariableSelectivityRuntime(OperatorRuntime):
    """Linear cost; output drawn from the nominal selectivity."""

    def __init__(self, operator: VariableSelectivityOp) -> None:
        super().__init__(operator)
        self._carry = 0.0

    def process(self, now: float, port: int, count: int) -> Tuple[float, int]:
        op = self.operator
        carry = self._carry + op.nominal_selectivity * count
        out = int(carry + 1e-9)
        self._carry = carry - out
        return op.cost * count, out


class WindowJoinRuntime(OperatorRuntime):
    """Sliding-window join over both input ports.

    Matches pairs whose timestamps differ by at most ``window / 2`` (the
    model's ``window`` is the *total* temporal extent).  A batch arriving
    on one port pairs with the opposite port's tuples still inside the
    half-window, and both ports probe each other symmetrically, so the
    steady-state pairing rate is ``2 * (window/2) * r_u * r_v =
    window * r_u * r_v`` — exactly the Section 6.2 load model.  The
    quadratic load thus *emerges* from simulation rather than being
    asserted.  Accuracy requires the simulation step to be well below the
    half-window (the engine enforces ``step <= window / 2``).
    """

    def __init__(self, operator: WindowJoin) -> None:
        super().__init__(operator)
        self._windows: List[Deque[Tuple[float, int]]] = [deque(), deque()]
        self._carry = 0.0

    def _expire(self, now: float, port: int) -> None:
        window = self._windows[port]
        horizon = now - self.operator.window / 2.0
        while window and window[0][0] <= horizon:
            window.popleft()

    def window_population(self, now: float, port: int) -> int:
        self._expire(now, port)
        return sum(count for _, count in self._windows[port])

    def process(self, now: float, port: int, count: int) -> Tuple[float, int]:
        if port not in (0, 1):
            raise IndexError(f"join has ports 0 and 1, got {port}")
        opposite = 1 - port
        pairs = count * self.window_population(now, opposite)
        self._expire(now, port)
        self._windows[port].append((now, count))
        carry = self._carry + self.operator.selectivity * pairs
        out = int(carry + 1e-9)
        self._carry = carry - out
        return self.operator.cost_per_pair * pairs, out


def make_runtime(operator: Operator) -> OperatorRuntime:
    """Instantiate the right runtime for an operator."""
    if isinstance(operator, WindowJoin):
        return WindowJoinRuntime(operator)
    if isinstance(operator, VariableSelectivityOp):
        return VariableSelectivityRuntime(operator)
    if isinstance(operator, LinearOperator):
        return LinearRuntime(operator)
    raise TypeError(f"no runtime for operator type {type(operator).__name__}")
