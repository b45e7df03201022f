"""Declarative service-level objectives evaluated over run traces.

The paper's experiments care about *staying* within a latency bound as
load varies — this module turns that into a checkable verdict.  An SLO
config is a JSON object::

    {"objectives": [
        {"name": "p99-interactive", "kind": "latency",
         "threshold_seconds": 0.5, "target": 0.99,
         "window_seconds": 10.0, "max_burn_rate": 2.0},
        {"name": "sustained-output", "kind": "throughput",
         "min_tuples_per_second": 50.0, "window_seconds": 10.0}
    ]}

*Latency* objectives use error-budget semantics: at least ``target``
of all sink tuples must land within ``threshold_seconds``, so the
error budget is ``1 - target``.  The run is cut into fixed
``window_seconds`` windows and each window's *burn rate* is its bad
fraction divided by the budget — burn rate 1.0 spends the budget
exactly at the allowed pace, and any window burning faster than
``max_burn_rate`` (default 1.0) is a breach.  *Throughput* objectives
require every full window inside the arrival horizon to deliver at
least ``min_tuples_per_second`` of sink output.

:func:`evaluate_slos` consumes sink ``batch.serviced`` events (present
in every recorded trace since the run registry landed), so it works on
old traces as well as span-bearing ones.  Results surface three ways:
the ``rod_slo_*`` metric families (:func:`record_slo_metrics`), the
``slo.*`` snapshot section diffed by ``repro-rod compare``
(direction-aware: budget remaining falling is a regression), and the
``repro-rod slo`` CLI verdict (exit 1 on breach).

:class:`SloWatcher` is the streaming twin — a duck-typed hook a
dynamics controller can feed per-completion observations to and poll
``burning`` to trigger reactive moves before the budget is gone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Union

from .metrics import MetricsRegistry
from .trace import TraceEvent

__all__ = [
    "LatencyObjective",
    "ThroughputObjective",
    "ObjectiveResult",
    "SloReport",
    "SloWatcher",
    "parse_slo_config",
    "load_slo_config",
    "evaluate_slos",
    "record_slo_metrics",
    "render_slo_report",
]

Objective = Union["LatencyObjective", "ThroughputObjective"]


@dataclass(frozen=True)
class LatencyObjective:
    """At least ``target`` of sink tuples within ``threshold_seconds``."""

    name: str
    threshold_seconds: float
    target: float
    window_seconds: float
    max_burn_rate: float = 1.0

    kind = "latency"

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad fraction."""
        return 1.0 - self.target


@dataclass(frozen=True)
class ThroughputObjective:
    """Every full window must emit ``min_tuples_per_second`` or more."""

    name: str
    min_tuples_per_second: float
    window_seconds: float

    kind = "throughput"


@dataclass(frozen=True)
class ObjectiveResult:
    """One objective's verdict over a run.

    ``budget_remaining`` is the unspent fraction of the error budget
    (1.0 = untouched, 0.0 = exhausted or overdrawn); ``attainment`` is
    achieved / required (>= 1.0 means met overall).  Both falling is a
    regression, which is how :mod:`repro.obs.diff` reads them.
    """

    name: str
    kind: str
    ok: bool
    windows: int
    breach_windows: int
    bad_fraction: float
    budget_remaining: float
    worst_burn_rate: float
    attainment: float

    def to_json_obj(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "windows": self.windows,
            "breach_windows": self.breach_windows,
            "bad_fraction": self.bad_fraction,
            "budget_remaining": self.budget_remaining,
            "worst_burn_rate": self.worst_burn_rate,
            "attainment": self.attainment,
        }


@dataclass
class SloReport:
    """All objectives' verdicts for one run."""

    results: List[ObjectiveResult]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def breached(self) -> List[ObjectiveResult]:
        return [result for result in self.results if not result.ok]

    def to_json_obj(self) -> Dict[str, object]:
        """Snapshot section keyed by objective name (``slo.*`` keys)."""
        return {
            "objectives": {
                result.name: result.to_json_obj()
                for result in sorted(self.results, key=lambda r: r.name)
            },
        }


def _number(
    entry: Mapping[str, object], name: str, key: str,
    default: Optional[float] = None,
) -> float:
    """``entry[key]`` as a float; a missing key without a default, or a
    value ``float()`` rejects, raises ``ValueError`` naming both."""
    if key not in entry:
        if default is None:
            raise ValueError(f"objective {name!r}: missing {key!r}")
        return default
    value = entry[key]
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(
            f"objective {name!r}: {key} must be a number, got {value!r}"
        ) from None


def parse_slo_config(obj: Mapping[str, object]) -> List[Objective]:
    """Validate a config mapping into objective instances."""
    raw = obj.get("objectives")
    if not isinstance(raw, list) or not raw:
        raise ValueError(
            "SLO config needs a non-empty 'objectives' list"
        )
    objectives: List[Objective] = []
    seen = set()
    for index, entry in enumerate(raw):
        if not isinstance(entry, Mapping):
            raise ValueError(f"objectives[{index}] is not an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"objectives[{index}] needs a 'name'")
        if name in seen:
            raise ValueError(f"duplicate objective name {name!r}")
        seen.add(name)
        kind = entry.get("kind")
        window = _number(entry, name, "window_seconds", default=0.0)
        if not window > 0 or not math.isfinite(window):
            raise ValueError(
                f"objective {name!r}: window_seconds must be finite > 0"
            )
        if kind == "latency":
            threshold = _number(entry, name, "threshold_seconds")
            target = _number(entry, name, "target")
            burn = _number(entry, name, "max_burn_rate", default=1.0)
            if not threshold > 0 or not math.isfinite(threshold):
                raise ValueError(
                    f"objective {name!r}: threshold_seconds must be "
                    "finite > 0"
                )
            if not 0.0 < target < 1.0:
                raise ValueError(
                    f"objective {name!r}: target must be in (0, 1) — "
                    "an error budget of zero is unenforceable"
                )
            if not burn > 0:
                raise ValueError(
                    f"objective {name!r}: max_burn_rate must be > 0"
                )
            objectives.append(LatencyObjective(
                name=name, threshold_seconds=threshold, target=target,
                window_seconds=window, max_burn_rate=burn,
            ))
        elif kind == "throughput":
            rate = _number(entry, name, "min_tuples_per_second")
            if not rate > 0 or not math.isfinite(rate):
                raise ValueError(
                    f"objective {name!r}: min_tuples_per_second must be "
                    "finite > 0"
                )
            objectives.append(ThroughputObjective(
                name=name, min_tuples_per_second=rate,
                window_seconds=window,
            ))
        else:
            raise ValueError(
                f"objective {name!r}: unknown kind {kind!r} "
                "(expected 'latency' or 'throughput')"
            )
    return objectives


def load_slo_config(path: str) -> List[Objective]:
    """Read and validate an SLO config JSON file."""
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: SLO config must be a JSON object")
    return parse_slo_config(obj)


def _sink_samples(
    events: Sequence[TraceEvent],
) -> List[Sequence[float]]:
    """(t, latency, out) per sink completion, in trace order."""
    samples: List[Sequence[float]] = []
    for event in events:
        if event.type != "batch.serviced":
            continue
        f = event.fields
        if f.get("sink") is None or event.t is None:
            continue
        samples.append((
            float(event.t),
            float(f.get("latency", 0.0)),  # type: ignore[arg-type]
            float(f.get("out", 0)),  # type: ignore[arg-type]
        ))
    return samples


def _horizon(events: Sequence[TraceEvent]) -> float:
    for event in events:
        if event.type == "sim.start":
            value = event.fields.get("horizon")
            if value is not None:
                return float(value)  # type: ignore[arg-type]
    last = [float(e.t) for e in events if e.t is not None]
    return max(last) if last else 0.0


def _evaluate_latency(
    objective: LatencyObjective,
    samples: Sequence[Sequence[float]],
) -> ObjectiveResult:
    window = objective.window_seconds
    budget = objective.budget
    totals: Dict[int, float] = {}
    bad: Dict[int, float] = {}
    bad_mass = 0.0
    total_mass = 0.0
    for t, latency, out in samples:
        index = int(t // window)
        totals[index] = totals.get(index, 0.0) + out
        total_mass += out
        if latency > objective.threshold_seconds:
            bad[index] = bad.get(index, 0.0) + out
            bad_mass += out
    worst = 0.0
    breaches = 0
    for index, total in totals.items():
        burn = (bad.get(index, 0.0) / total) / budget
        worst = max(worst, burn)
        if burn > objective.max_burn_rate:
            breaches += 1
    bad_fraction = bad_mass / total_mass if total_mass else 0.0
    remaining = max(0.0, 1.0 - bad_fraction / budget)
    good_fraction = 1.0 - bad_fraction
    return ObjectiveResult(
        name=objective.name,
        kind=objective.kind,
        ok=breaches == 0 and bad_fraction <= budget,
        windows=len(totals),
        breach_windows=breaches,
        bad_fraction=bad_fraction,
        budget_remaining=remaining,
        worst_burn_rate=worst,
        attainment=good_fraction / objective.target,
    )


def _evaluate_throughput(
    objective: ThroughputObjective,
    samples: Sequence[Sequence[float]],
    horizon: float,
) -> ObjectiveResult:
    window = objective.window_seconds
    windows = int(horizon // window)
    if windows == 0:
        # The run is shorter than one window: judge it as a single
        # partial window so short smoke runs still get a verdict.
        windows = 1
        window = horizon if horizon > 0 else window
    counts = [0.0] * windows
    for t, _, out in samples:
        index = int(t // window)
        if index < windows:
            counts[index] += out
        else:
            # Drained output past the horizon counts toward the last
            # full window — it is still delivered work.
            counts[windows - 1] += out
    required = objective.min_tuples_per_second * window
    worst_rate = min(counts) / window if counts else 0.0
    breaches = sum(1 for c in counts if c < required)
    bad_fraction = breaches / windows if windows else 0.0
    attainment = worst_rate / objective.min_tuples_per_second
    return ObjectiveResult(
        name=objective.name,
        kind=objective.kind,
        ok=breaches == 0,
        windows=windows,
        breach_windows=breaches,
        bad_fraction=bad_fraction,
        budget_remaining=max(0.0, 1.0 - bad_fraction),
        worst_burn_rate=bad_fraction,
        attainment=attainment,
    )


def evaluate_slos(
    events: Sequence[TraceEvent],
    objectives: Sequence[Objective],
) -> SloReport:
    """Judge every objective against one trace."""
    samples = _sink_samples(events)
    horizon = _horizon(events)
    results: List[ObjectiveResult] = []
    for objective in objectives:
        if isinstance(objective, LatencyObjective):
            results.append(_evaluate_latency(objective, samples))
        else:
            results.append(
                _evaluate_throughput(objective, samples, horizon)
            )
    return SloReport(results=results)


def record_slo_metrics(
    registry: MetricsRegistry, report: SloReport
) -> None:
    """Surface a report as the ``rod_slo_*`` metric families."""
    remaining = registry.gauge(
        "rod_slo_budget_remaining",
        "fraction of an objective's error budget left",
        ("objective",),
    )
    worst = registry.gauge(
        "rod_slo_worst_burn_rate",
        "worst burn rate observed over an objective's windows",
        ("objective",),
    )
    breaches = registry.counter(
        "rod_slo_breaches_total",
        "windows that burned faster than the objective allows",
        ("objective",),
    )
    for result in report.results:
        remaining.labels(objective=result.name).set(
            result.budget_remaining
        )
        worst.labels(objective=result.name).set(result.worst_burn_rate)
        if result.breach_windows:
            breaches.labels(objective=result.name).inc(
                result.breach_windows
            )


def render_slo_report(report: SloReport) -> str:
    """The ``repro-rod slo`` text verdict table."""
    rows = [("objective", "kind", "verdict", "windows", "breaches",
             "budget left", "worst burn", "attainment")]
    for result in sorted(report.results, key=lambda r: r.name):
        rows.append((
            result.name,
            result.kind,
            "ok" if result.ok else "BREACH",
            str(result.windows),
            str(result.breach_windows),
            f"{result.budget_remaining:.1%}",
            f"{result.worst_burn_rate:.2f}",
            f"{result.attainment:.3f}",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        )
        if index == 0:
            lines.append("  ".join("-" * w for w in widths).rstrip())
    breached = report.breached
    lines.append(
        f"{len(report.results)} objective(s), {len(breached)} breached"
    )
    return "\n".join(lines)


class SloWatcher:
    """Streaming latency-objective monitor — the controller hook.

    Feed it every sink completion via :meth:`observe`; it maintains the
    current burn-rate window incrementally and exposes ``burning``
    (the most recently *completed* window breached) plus a running
    breach count.  Duck-typed on purpose: a dynamics controller only
    needs ``observe`` and ``burning``, no import of this module.
    """

    def __init__(self, objective: LatencyObjective) -> None:
        self.objective = objective
        self.breaches = 0
        self._window_index: Optional[int] = None
        self._window_total = 0.0
        self._window_bad = 0.0
        self._last_burn = 0.0
        self._last_breached = False

    def observe(self, t: float, latency: float, count: int = 1) -> None:
        """Record one sink completion at simulated time ``t``."""
        index = int(t // self.objective.window_seconds)
        if self._window_index is None:
            self._window_index = index
        elif index != self._window_index:
            self._roll_window()
            self._window_index = index
        self._window_total += count
        if latency > self.objective.threshold_seconds:
            self._window_bad += count

    def _roll_window(self) -> None:
        if self._window_total > 0:
            burn = (
                self._window_bad / self._window_total
            ) / self.objective.budget
            self._last_burn = burn
            self._last_breached = burn > self.objective.max_burn_rate
            if self._last_breached:
                self.breaches += 1
        self._window_total = 0.0
        self._window_bad = 0.0

    @property
    def burning(self) -> bool:
        """True when the last completed window breached its burn rate."""
        return self._last_breached

    @property
    def last_burn_rate(self) -> float:
        """Burn rate of the last completed window (0.0 before any)."""
        return self._last_burn
