"""Regression diffing between recorded runs.

Flattens two run snapshots (``result.json``, see :mod:`repro.obs.runs`)
into dotted-key metric maps, compares them key by key, and judges each
delta against a configurable relative threshold.  The comparison is
**direction-aware**: latency/backlog/utilization going *up* is a
regression, throughput (``tuples_out``) or a volume ratio going *down*
is a regression, and metrics with no known polarity breach on movement
in either direction.  Two runs of the same seed and configuration
produce identical snapshots, so their diff is all-zero and clean.

``repro-rod compare RUN_A RUN_B`` is the CLI front end; it exits
non-zero when any thresholded metric breaches, which is what lets CI
gate on "did this PR regress the committed baseline run".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .runs import Run
from .text import text_table

__all__ = [
    "DEFAULT_THRESHOLD",
    "MetricDelta",
    "RunDiff",
    "compare_metrics",
    "compare_runs",
    "flatten_metrics",
    "parse_thresholds",
]

#: Default relative tolerance before a delta counts as a breach.
DEFAULT_THRESHOLD = 0.02

#: Key substrings whose metrics regress when they grow / shrink.
#: When a key matches tokens from both lists, the longest match wins —
#: ``critical_path.attributed_ratio`` is lower-is-worse via
#: ``attributed_ratio`` even though ``critical_path`` marks the rest of
#: that section higher-is-worse.
_HIGHER_IS_WORSE = (
    "latency", "backlog", "utilization", "stall", "pause", "wall_seconds",
    "critical_path", "burn_rate", "breach", "bad_fraction",
    "unclosed_spans", "stranded",
    # Decision/drift audit: more drift, more SLO-triggered deliberations,
    # and more pathological no-op periods all read as regressions.
    "drift", "slo-burn", "cooldown-pinned", "no-valid-candidate",
    "max-moves-exhausted",
)
_LOWER_IS_WORSE = (
    "tuples_out", "volume_ratio", "ratio",
    "budget_remaining", "attributed_ratio", "attainment",
    # Migrations losing their decision linkage is an audit regression.
    "linked_migrations",
)


def flatten_metrics(
    obj: object, prefix: str = ""
) -> Dict[str, float]:
    """Dotted-key map of every number reachable inside ``obj``.

    Dicts contribute their keys, lists their indices; booleans and
    strings are skipped (they are provenance, not metrics).
    """
    out: Dict[str, float] = {}
    if isinstance(obj, bool):
        return out
    if isinstance(obj, (int, float)):
        out[prefix or "value"] = float(obj)
        return out
    if isinstance(obj, Mapping):
        for key in sorted(obj):
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_metrics(obj[key], sub))
        return out
    if isinstance(obj, (list, tuple)):
        for index, item in enumerate(obj):
            sub = f"{prefix}.{index}" if prefix else str(index)
            out.update(flatten_metrics(item, sub))
        return out
    return out


def _direction(name: str) -> int:
    """+1 when growth is a regression, -1 when shrinkage is, 0 both ways.

    The longest matching token decides, so a specific polarity
    (``attributed_ratio``) overrides a broad section marker
    (``critical_path``) on the same key.  Ties across lists keep the
    higher-is-worse reading — no current token pair ties, and pessimism
    is the safer default for a regression gate.
    """
    lowered = name.lower()
    best_length = 0
    direction = 0
    for token in _HIGHER_IS_WORSE:
        if token in lowered and len(token) > best_length:
            best_length = len(token)
            direction = 1
    for token in _LOWER_IS_WORSE:
        if token in lowered and len(token) > best_length:
            best_length = len(token)
            direction = -1
    return direction


@dataclass(frozen=True)
class MetricDelta:
    """One metric compared across two runs."""

    name: str
    a: float
    b: float
    threshold: float
    direction: int      # see :func:`_direction`

    @property
    def delta(self) -> float:
        return self.b - self.a

    @property
    def relative(self) -> float:
        """Relative change vs. ``a`` (``inf`` when appearing from zero)."""
        if self.a != 0:
            return (self.b - self.a) / abs(self.a)
        if self.b == 0:
            return 0.0
        return math.copysign(math.inf, self.b)

    @property
    def breach(self) -> bool:
        rel = self.relative
        if self.direction > 0:
            return rel > self.threshold
        if self.direction < 0:
            return rel < -self.threshold
        return abs(rel) > self.threshold


class RunDiff:
    """All metric deltas between two snapshots plus structural drift."""

    def __init__(
        self,
        deltas: Sequence[MetricDelta],
        only_a: Sequence[str] = (),
        only_b: Sequence[str] = (),
        names: Tuple[str, str] = ("a", "b"),
    ) -> None:
        self.deltas = list(deltas)
        #: Metric keys present in only one snapshot — structural drift
        #: (different node count, renamed operator); reported, never a
        #: threshold breach by itself.
        self.only_a = list(only_a)
        self.only_b = list(only_b)
        self.names = names

    @property
    def breaches(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.breach]

    @property
    def changed(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.delta != 0]

    def format(self, show_unchanged: bool = False) -> str:
        """Aligned text table of the diff, breaches flagged ``!``."""
        name_a, name_b = self.names
        rows = [("metric", name_a, name_b, "delta", "rel", "")]
        for d in self.deltas:
            if not show_unchanged and d.delta == 0 and not d.breach:
                continue
            rel = d.relative
            rel_text = (
                f"{rel:+.2%}" if math.isfinite(rel) else
                ("+new" if rel > 0 else "-new")
            )
            rows.append((
                d.name, f"{d.a:g}", f"{d.b:g}", f"{d.delta:+g}",
                rel_text, "!" if d.breach else "",
            ))
        lines = text_table(rows) if len(rows) > 1 else [
            f"no metric deltas between {name_a} and {name_b} "
            f"({len(self.deltas)} metrics compared)"
        ]
        for key in self.only_a:
            lines.append(f"only in {name_a}: {key}")
        for key in self.only_b:
            lines.append(f"only in {name_b}: {key}")
        breaches = self.breaches
        lines.append(
            f"{len(self.deltas)} metrics compared, "
            f"{len(self.changed)} changed, {len(breaches)} breach(es)"
        )
        return "\n".join(lines)


def parse_thresholds(
    specs: Sequence[str],
) -> Dict[str, float]:
    """Parse ``NAME=REL`` CLI threshold specs into a map.

    ``NAME`` matches a flattened metric key by exact name or prefix
    (``latency`` covers ``latency.p99``); ``REL`` is a relative
    tolerance, e.g. ``0.1`` for ±10%.
    """
    thresholds: Dict[str, float] = {}
    for spec in specs:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            raise ValueError(
                f"threshold spec {spec!r} is not NAME=REL (e.g. "
                "latency.p99=0.1)"
            )
        rel = float(value)
        if rel < 0 or not math.isfinite(rel):
            raise ValueError(
                f"threshold for {name!r} must be a finite value >= 0"
            )
        thresholds[name] = rel
    return thresholds


def _threshold_for(name: str, thresholds: Mapping[str, float],
                   default: float) -> float:
    if name in thresholds:
        return thresholds[name]
    best: Optional[Tuple[int, float]] = None
    for key, value in thresholds.items():
        if name.startswith(key + "."):
            if best is None or len(key) > best[0]:
                best = (len(key), value)
    return best[1] if best is not None else default


def compare_metrics(
    a: Mapping[str, object],
    b: Mapping[str, object],
    thresholds: Optional[Mapping[str, float]] = None,
    default_threshold: float = DEFAULT_THRESHOLD,
    names: Tuple[str, str] = ("a", "b"),
) -> RunDiff:
    """Diff two snapshot dicts (already-flat maps also accepted)."""
    thresholds = dict(thresholds or {})
    flat_a = flatten_metrics(a)
    flat_b = flatten_metrics(b)
    shared = sorted(set(flat_a) & set(flat_b))
    deltas = [
        MetricDelta(
            name=key,
            a=flat_a[key],
            b=flat_b[key],
            threshold=_threshold_for(key, thresholds, default_threshold),
            direction=_direction(key),
        )
        for key in shared
    ]
    return RunDiff(
        deltas,
        only_a=sorted(set(flat_a) - set(flat_b)),
        only_b=sorted(set(flat_b) - set(flat_a)),
        names=names,
    )


def compare_runs(
    run_a: Run,
    run_b: Run,
    thresholds: Optional[Mapping[str, float]] = None,
    default_threshold: float = DEFAULT_THRESHOLD,
) -> RunDiff:
    """Diff two recorded runs by their ``result.json`` snapshots."""
    return compare_metrics(
        run_a.result,
        run_b.result,
        thresholds=thresholds,
        default_threshold=default_threshold,
        names=(run_a.run_id, run_b.run_id),
    )
