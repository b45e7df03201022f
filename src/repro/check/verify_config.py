"""Experiment-config verifier pass (``REPRO4xx``).

An *experiment config* is the declarative JSON/dict form of one
experiment run: which graph, which cluster, which placement strategy,
what rate region or rate point to explore, and the seed that makes the
run reproducible.  The pass checks dimensional consistency against the
load model (when available) and flags configs that cannot reproduce.

Recognized keys::

    {
      "kind": "experiment",
      "graph": "<graph name or relative path to a graph document>",
      "capacities": [1.0, 1.0],
      "strategy": "rod",
      "seed": 3,
      "rate_region": [[0, 100], [0, 80]],
      "rates": [50.0, 40.0],
      "utilization": 0.8,
      "duration": 20.0
    }
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Optional, Sequence

import numpy as np

from ..core.load_model import LoadModel
from ..placers import PLACERS
from .diagnostics import CheckReport, Diagnostic, Severity

__all__ = ["check_experiment_config"]


def _check_rate_vector(
    values: Sequence[Any],
    key: str,
    expected_dim: Optional[int],
    location: str,
) -> Iterator[Diagnostic]:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        yield Diagnostic(
            code="REPRO402",
            severity=Severity.ERROR,
            message=f"{key!r} must be a flat list of rates, got shape {arr.shape}",
            location=location,
        )
        return
    if expected_dim is not None and arr.shape[0] != expected_dim:
        yield Diagnostic(
            code="REPRO402",
            severity=Severity.ERROR,
            message=(
                f"{key!r} has {arr.shape[0]} entry(ies) but the graph "
                f"declares {expected_dim} input stream(s)"
            ),
            location=location,
            fix_hint="one rate per system input stream, in input order",
        )
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr < 0)):
        yield Diagnostic(
            code="REPRO403",
            severity=Severity.ERROR,
            message=f"{key!r} entries must be finite and >= 0, got {arr.tolist()}",
            location=location,
        )


def _iter_config_diagnostics(
    config: Mapping[str, Any],
    model: Optional[LoadModel],
    location: str,
) -> Iterator[Diagnostic]:
    expected_dim = model.num_inputs if model is not None else None

    if config.get("seed") is None:
        yield Diagnostic(
            code="REPRO401",
            severity=Severity.WARNING,
            message="config declares no 'seed'; the run is not reproducible",
            location=location,
            fix_hint="add an integer 'seed' so reruns regenerate the artifact",
        )

    strategy = config.get("strategy")
    if strategy is not None and strategy not in PLACERS:
        yield Diagnostic(
            code="REPRO404",
            severity=Severity.ERROR,
            message=(
                f"unknown placement strategy {strategy!r}; expected one of "
                f"{list(PLACERS)}"
            ),
            location=location,
        )

    region = config.get("rate_region")
    if region is not None:
        arr = np.asarray(region, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            yield Diagnostic(
                code="REPRO402",
                severity=Severity.ERROR,
                message=(
                    "'rate_region' must be a list of [low, high] pairs, "
                    f"got shape {arr.shape}"
                ),
                location=location,
                fix_hint="one [low, high] interval per system input stream",
            )
        else:
            if expected_dim is not None and arr.shape[0] != expected_dim:
                yield Diagnostic(
                    code="REPRO402",
                    severity=Severity.ERROR,
                    message=(
                        f"'rate_region' has {arr.shape[0]} interval(s) but "
                        f"the graph declares {expected_dim} input stream(s)"
                    ),
                    location=location,
                    fix_hint="one [low, high] interval per input stream",
                )
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                yield Diagnostic(
                    code="REPRO403",
                    severity=Severity.ERROR,
                    message="'rate_region' bounds must be finite and >= 0",
                    location=location,
                )
            elif np.any(arr[:, 0] > arr[:, 1]):
                yield Diagnostic(
                    code="REPRO403",
                    severity=Severity.ERROR,
                    message="'rate_region' has an interval with low > high",
                    location=location,
                )

    rates = config.get("rates")
    if rates is not None:
        yield from _check_rate_vector(rates, "rates", expected_dim, location)

    capacities = config.get("capacities")
    if capacities is not None:
        c = np.asarray(capacities, dtype=float)
        if (
            c.ndim != 1 or c.size == 0
            or not np.all(np.isfinite(c)) or np.any(c <= 0)
        ):
            yield Diagnostic(
                code="REPRO304",
                severity=Severity.ERROR,
                message=(
                    "'capacities' must be a non-empty list of finite "
                    f"positive numbers, got {capacities!r}"
                ),
                location=location,
            )

    utilization = config.get("utilization")
    if utilization is not None:
        u = float(utilization)
        if not 0.0 < u <= 1.0:
            yield Diagnostic(
                code="REPRO405",
                severity=Severity.WARNING,
                message=(
                    f"'utilization' is {u:g}; targets outside (0, 1] start "
                    "the experiment overloaded"
                ),
                location=location,
            )

    duration = config.get("duration")
    if duration is not None and float(duration) <= 0:
        yield Diagnostic(
            code="REPRO406",
            severity=Severity.ERROR,
            message=f"'duration' must be > 0, got {duration!r}",
            location=location,
        )


def check_experiment_config(
    config: Mapping[str, Any],
    model: Optional[LoadModel] = None,
    location: str = "experiment config",
) -> CheckReport:
    """Verify an experiment config, optionally against its load model."""
    report = CheckReport()
    report.extend(_iter_config_diagnostics(config, model, location))
    return report
