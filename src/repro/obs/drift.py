"""Windowed load-drift detection: EWMA level + Page–Hinkley statistic.

The paper's resiliency argument is about *load variations*; this module
makes them first-class observables.  A :class:`PageHinkley` detector
watches one scalar signal (an input's arrival rate, or the cluster's
feasible-volume ratio sampled over time) and raises a detection when the
cumulative deviation from the running mean exceeds a threshold — the
classic Page–Hinkley change test, run two-sided so both load surges and
collapses fire.

Deviations are *relative* (normalised by the running mean), so the same
default thresholds work for a 10 tuples/s feed and a 10k tuples/s feed.
On detection the detector re-anchors its baseline at the current EWMA
level: a sustained step change fires once, and the eventual reversion
fires again in the opposite direction.

The simulator feeds detectors causally — arrival rates straight from
the resolved rate series (one detector per input), the feasible-volume
ratio at every control poll — and emits each detection as a
``drift.detected`` trace event at fault priority, so the detection
timestamp always precedes any same-instant control reaction.  End-of-run
counters surface as ``rod_drift_*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from .index import Trace, as_index
from .metrics import MetricsRegistry

__all__ = [
    "DriftDetection",
    "PageHinkley",
    "DriftMonitor",
    "drift_snapshot",
    "record_drift_metrics",
]


@dataclass(frozen=True)
class DriftDetection:
    """One threshold crossing of a monitored signal."""

    t: float
    signal: str               # "arrival_rate" | "feasible_volume"
    direction: str            # "up" | "down"
    statistic: float          # Page–Hinkley statistic at crossing
    threshold: float
    observed: float           # raw sample that tripped the detector
    baseline: float           # EWMA level just before the crossing
    input: Optional[int] = None  # input-stream index (arrival signals)


class PageHinkley:
    """Two-sided, mean-relative Page–Hinkley change detector.

    ``delta`` is the slack (minimum relative deviation that accumulates);
    ``threshold`` the cumulative relative deviation that fires; ``alpha``
    the EWMA smoothing for the reported baseline level.  ``min_samples``
    observations must arrive before the first detection may fire.
    """

    def __init__(
        self,
        delta: float = 0.05,
        threshold: float = 0.5,
        alpha: float = 0.3,
        min_samples: int = 4,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be > 0")
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.alpha = float(alpha)
        self.min_samples = int(min_samples)
        self._count = 0
        self._mean = 0.0
        self._ewma: Optional[float] = None
        self._up = 0.0
        self._down = 0.0
        #: Statistic and EWMA baseline at the most recent detection.
        self.last_statistic = 0.0
        self.last_baseline = 0.0

    @property
    def ewma(self) -> float:
        return 0.0 if self._ewma is None else self._ewma

    @property
    def statistic(self) -> float:
        return max(self._up, self._down)

    def update(self, value: float) -> Optional[str]:
        """Feed one sample; returns ``"up"``/``"down"`` on detection.

        On detection the running mean re-anchors at the current sample,
        so a sustained new level does not re-fire every step.
        """
        value = float(value)
        ewma_before = value if self._ewma is None else self._ewma
        self._ewma = (
            value if self._ewma is None
            else self.alpha * value + (1.0 - self.alpha) * self._ewma
        )
        if self._count == 0:
            self._count = 1
            self._mean = value
            return None
        reference = self._mean if abs(self._mean) > 1e-12 else 1e-12
        deviation = (value - self._mean) / abs(reference)
        self._count += 1
        self._mean += (value - self._mean) / self._count
        self._up = max(0.0, self._up + deviation - self.delta)
        self._down = max(0.0, self._down - deviation - self.delta)
        if self._count < self.min_samples:
            return None
        direction = None
        if self._up > self.threshold:
            direction = "up"
            self.last_statistic = self._up
        elif self._down > self.threshold:
            direction = "down"
            self.last_statistic = self._down
        if direction is not None:
            self.last_baseline = ewma_before
            # Re-anchor at the new level; reversion fires the other way.
            self._count = 1
            self._mean = value
            self._ewma = value
            self._up = 0.0
            self._down = 0.0
        return direction


class DriftMonitor:
    """Named Page–Hinkley detectors over the run's drift signals, each
    a :class:`PageHinkley` with its default settings."""

    def __init__(self) -> None:
        self._detectors: Dict[str, PageHinkley] = {}
        self.detections: List[DriftDetection] = []

    def _detector(self, key: str) -> PageHinkley:
        detector = self._detectors.get(key)
        if detector is None:
            detector = self._detectors[key] = PageHinkley()
        return detector

    def observe(
        self,
        signal: str,
        t: float,
        value: float,
        input_index: Optional[int] = None,
    ) -> Optional[DriftDetection]:
        key = (
            signal if input_index is None else f"{signal}[{input_index}]"
        )
        detector = self._detector(key)
        direction = detector.update(value)
        if direction is None:
            return None
        detection = DriftDetection(
            t=float(t),
            signal=signal,
            direction=direction,
            statistic=round(detector.last_statistic, 9),
            threshold=detector.threshold,
            observed=float(value),
            baseline=round(detector.last_baseline, 9),
            input=input_index,
        )
        self.detections.append(detection)
        return detection

    def scan_rate_series(
        self, series: np.ndarray, step_seconds: float
    ) -> List[DriftDetection]:
        """Stream the resolved arrival-rate series through per-input
        detectors, returning detections stamped at each step's start.

        The detectors are causal (each verdict uses only rows up to the
        current step); only the trigger *times* are computed up front so
        the engine can enqueue them as timed events.
        """
        found = []
        steps, inputs = series.shape
        for step in range(steps):
            t = step * step_seconds
            for k in range(inputs):
                detection = self.observe(
                    "arrival_rate", t, float(series[step, k]),
                    input_index=k,
                )
                if detection is not None:
                    found.append(detection)
        return found

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-detector end-of-run state for metric export."""
        out = {}
        for key, detector in sorted(self._detectors.items()):
            out[key] = {
                "statistic": detector.statistic,
                "baseline": detector.ewma,
            }
        return out


def drift_snapshot(events: Trace) -> Dict[str, object]:
    """Diffable drift summary for ``result.json``."""
    detections = as_index(events).drift
    by_signal: Dict[str, int] = {}
    by_direction: Dict[str, int] = {}
    for detection in detections:
        signal = str(detection.get("signal"))
        direction = str(detection.get("direction"))
        by_signal[signal] = by_signal.get(signal, 0) + 1
        by_direction[direction] = by_direction.get(direction, 0) + 1
    snapshot: Dict[str, object] = {
        "detected": len(detections),
        "by_signal": dict(sorted(by_signal.items())),
        "by_direction": dict(sorted(by_direction.items())),
    }
    stamped = [d["t"] for d in detections if d["t"] is not None]
    if stamped:
        snapshot["first_t"] = float(stamped[0])  # type: ignore[arg-type]
    return snapshot


def record_drift_metrics(
    registry: MetricsRegistry,
    detections: Iterable[DriftDetection],
    summary: Dict[str, Dict[str, float]],
) -> None:
    """Fold drift counters/levels into the metrics registry (post-run)."""
    detections = list(detections)
    if not detections and not summary:
        return
    if detections:
        counter = registry.counter(
            "rod_drift_events_total",
            "drift detections per monitored signal",
            ("signal",),
        )
        for detection in detections:
            counter.labels(signal=detection.signal).inc()
    if summary:
        statistic = registry.gauge(
            "rod_drift_statistic",
            "end-of-run Page-Hinkley statistic per signal",
            ("signal",),
        )
        baseline = registry.gauge(
            "rod_drift_baseline",
            "end-of-run EWMA baseline level per signal",
            ("signal",),
        )
        for key, state in summary.items():
            statistic.labels(signal=key).set(state["statistic"])
            baseline.labels(signal=key).set(state["baseline"])
