"""Measurement containers for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["LatencyStats", "OperatorStats", "SimulationResult"]


@dataclass
class OperatorStats:
    """Per-operator counters gathered during a run."""

    tuples_in: int = 0
    tuples_out: int = 0
    work_seconds: float = 0.0

    @property
    def measured_cost(self) -> float:
        """Average CPU seconds per input tuple (0 if nothing processed)."""
        return self.work_seconds / self.tuples_in if self.tuples_in else 0.0

    @property
    def measured_selectivity(self) -> float:
        """Output/input tuple ratio (0 if nothing processed)."""
        return self.tuples_out / self.tuples_in if self.tuples_in else 0.0


class LatencyStats:
    """Weighted end-to-end latency samples (seconds).

    **Empty-sample contract:** every aggregate (:meth:`mean`,
    :meth:`percentile`, :meth:`percentiles`, :meth:`maximum`) returns
    ``0.0`` when no sample was recorded — an unloaded system has no
    latency, not an undefined one.  Callers that must distinguish "no
    traffic" from "zero latency" check :attr:`is_empty` first; no
    aggregate ever raises on emptiness.
    """

    def __init__(self) -> None:
        self._values: List[float] = []
        self._weights: List[int] = []

    def record(self, latency: float, count: int = 1) -> None:
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._values.append(float(latency))
        self._weights.append(int(count))

    def add(self, latency: float, count: int) -> None:
        """Append a sample known to be valid: a ``float`` latency >= 0
        and an ``int`` count >= 1.  The engine's sink samples are that
        by construction; every other caller uses :meth:`record`."""
        self._values.append(latency)
        self._weights.append(count)

    @property
    def total_tuples(self) -> int:
        return int(sum(self._weights))

    @property
    def is_empty(self) -> bool:
        return not self._values

    def mean(self) -> float:
        """Weighted mean latency; ``0.0`` on empty samples."""
        if self.is_empty:
            return 0.0
        values = np.asarray(self._values)
        weights = np.asarray(self._weights, dtype=float)
        return float(np.average(values, weights=weights))

    def percentile(self, q: float) -> float:
        """Weighted percentile, ``q`` in [0, 100]; ``0.0`` on empty."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.is_empty:
            return 0.0
        values = np.asarray(self._values)
        weights = np.asarray(self._weights, dtype=float)
        order = np.argsort(values)
        values, weights = values[order], weights[order]
        cumulative = np.cumsum(weights)
        threshold = q / 100.0 * cumulative[-1]
        index = int(np.searchsorted(cumulative, threshold))
        return float(values[min(index, values.size - 1)])

    def percentiles(self) -> Dict[str, float]:
        """The headline quantiles ``{"p50", "p95", "p99"}``.

        All ``0.0`` on empty samples, per the class contract.
        """
        return {
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def maximum(self) -> float:
        """Largest recorded latency; ``0.0`` on empty samples."""
        return max(self._values) if self._values else 0.0

    def merge(self, other: "LatencyStats") -> None:
        self._values.extend(other._values)
        self._weights.extend(other._weights)


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Attributes
    ----------
    duration:
        Simulated wall-clock horizon in seconds (arrival window).
    node_busy:
        CPU-seconds each node spent serving batches and stalls, past
        the horizon too; work left queued on a crashed node
        (``stranded_tuples``) is not counted.
    node_utilization:
        ``node_busy / (capacity * duration)`` — exceeds 1.0 when a node
        received more work than it could finish within the horizon.
    backlog_seconds:
        Wall-clock seconds past the horizon each node would need to drain
        its queue (0 for stable nodes).
    latency:
        End-to-end latency over all sink tuples.
    sink_latency:
        Per-sink-stream latency statistics.
    tuples_in / tuples_out:
        Source tuples injected and sink tuples produced.
    """

    duration: float
    node_busy: np.ndarray
    node_utilization: np.ndarray
    backlog_seconds: np.ndarray
    latency: LatencyStats
    sink_latency: Dict[str, LatencyStats] = field(default_factory=dict)
    operator_stats: Dict[str, OperatorStats] = field(default_factory=dict)
    tuples_in: int = 0
    tuples_out: int = 0
    #: Operator moves applied by a migration controller, in time order.
    migrations: List[object] = field(default_factory=list)
    #: Fault events applied by a :class:`repro.faults.FaultSchedule`,
    #: in time order (empty for fault-free runs).
    faults: List[object] = field(default_factory=list)
    #: Tuples still queued when the run drained — work stranded on
    #: crashed nodes that no failover controller rescued.
    stranded_tuples: int = 0
    #: CPU-seconds served per (time bin, node); bins are ``step_seconds``
    #: wide and cover the arrival horizon (later work folds into the last
    #: bin).  Empty array when the engine was asked not to record it.
    work_timeline: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 0))
    )

    def utilization_timeline(
        self, capacities: np.ndarray, step_seconds: float
    ) -> np.ndarray:
        """Per-bin utilization: served work / (capacity * bin width)."""
        if self.work_timeline.size == 0:
            raise ValueError("this run did not record a work timeline")
        capacities = np.asarray(capacities, dtype=float)
        return self.work_timeline / (capacities[None, :] * step_seconds)

    @property
    def migration_count(self) -> int:
        return len(self.migrations)

    @property
    def total_migration_pause(self) -> float:
        """Seconds of node stall spent on migrations (both endpoints)."""
        return float(
            sum(2.0 * m.pause_seconds for m in self.migrations)
        )

    @property
    def fault_count(self) -> int:
        return len(self.faults)

    @property
    def max_utilization(self) -> float:
        return float(self.node_utilization.max())

    def is_feasible(
        self,
        utilization_threshold: float = 0.99,
        backlog_tolerance: float = 1e-6,
    ) -> bool:
        """The paper's probe: no node saturated, queues drained.  Work
        stranded on a crashed node counts as undrained."""
        return (
            self.max_utilization <= utilization_threshold
            and float(self.backlog_seconds.max()) <= backlog_tolerance
            and self.stranded_tuples == 0
        )

    def summary(self) -> str:
        quantiles = self.latency.percentiles()
        text = (
            f"duration={self.duration:g}s in={self.tuples_in} "
            f"out={self.tuples_out} max_util={self.max_utilization:.3f} "
            f"mean_latency={self.latency.mean() * 1e3:.2f}ms "
            f"p50={quantiles['p50'] * 1e3:.2f}ms "
            f"p95={quantiles['p95'] * 1e3:.2f}ms "
            f"p99={quantiles['p99'] * 1e3:.2f}ms"
        )
        if self.faults:
            text += (
                f" faults={self.fault_count} "
                f"stranded={self.stranded_tuples}"
            )
        return text
