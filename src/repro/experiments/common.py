"""Shared plumbing for the experiment harnesses.

Each experiment module exposes ``run(...) -> list[dict]`` returning the
rows of the corresponding paper table/figure; benchmarks and examples
print them with :func:`repro.experiments.table.format_rows`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..check import check_artifact, check_experiment_config
from ..core.load_model import LoadModel, build_load_model
from ..graphs.generator import RandomGraphConfig, random_tree_graph
from ..placement import (
    ConnectedPlacer,
    CorrelationPlacer,
    LLFPlacer,
    Placer,
    RODPlacer,
    RandomPlacer,
)
from ..workload.rates import rate_series

__all__ = [
    "ALGORITHMS",
    "make_model",
    "make_placer",
    "mean_volume_ratio",
    "validate_run",
    "volume_ratio_runs",
]

#: Algorithm names in the paper's Figure 14 legend order.
ALGORITHMS = ("rod", "correlation", "llf", "random", "connected")


def make_model(
    num_inputs: int, operators_per_tree: int, seed: int
) -> LoadModel:
    """A random-tree workload model with the paper's parameters."""
    config = RandomGraphConfig(
        num_inputs=num_inputs, operators_per_tree=operators_per_tree
    )
    model = build_load_model(random_tree_graph(config, seed=seed))
    # Gate every harness run on the static verifiers: a malformed model
    # should fail here with a structured diagnostic, not inside NumPy.
    check_artifact(model).raise_if_errors()
    return model


def validate_run(
    model: LoadModel,
    capacities: Sequence[float],
    seed: Optional[int],
    **extras: object,
) -> None:
    """Verify one experiment run's config before constructing plans.

    Raises :class:`repro.check.CheckError` on error-severity findings
    (bad capacities, mismatched rate dimensions, unknown strategy).
    Warnings — e.g. a missing seed — are tolerated here; ``repro-rod
    check --fail-on warning`` makes them fatal in CI.
    """
    config = {"capacities": list(capacities), "seed": seed}
    config.update(extras)
    check_experiment_config(config, model=model).raise_if_errors()


def make_placer(
    name: str,
    model: LoadModel,
    run_seed: int,
    series_steps: int = 128,
) -> Placer:
    """Instantiate one run of a named algorithm.

    Every non-ROD algorithm is randomized per run exactly as in Section
    7.3.1: Random gets a fresh shuffle seed, the balancers get random
    input stream rates, and the correlation scheme gets a random
    stream-rate time series.  ROD is deterministic and rate-oblivious.
    """
    rng = np.random.default_rng(run_seed)
    if name == "rod":
        return RODPlacer()
    if name == "random":
        return RandomPlacer(seed=run_seed)
    if name == "llf":
        return LLFPlacer(rates=rng.uniform(0.1, 1.0, model.num_variables))
    if name == "connected":
        return ConnectedPlacer(rates=rng.uniform(0.1, 1.0, model.num_variables))
    if name == "correlation":
        series = rate_series(
            model.num_variables,
            series_steps,
            mean_rates=rng.uniform(0.5, 1.5, model.num_variables),
            seed=run_seed,
        )
        return CorrelationPlacer(series)
    raise ValueError(f"unknown algorithm: {name!r}")


def volume_ratio_runs(
    name: str,
    model: LoadModel,
    capacities: Sequence[float],
    repeats: int = 10,
    samples: int = 4096,
    base_seed: int = 0,
) -> np.ndarray:
    """Feasible-set/ideal ratios across randomized runs of an algorithm.

    ROD "does not need to be repeated because it does not depend on the
    input stream rates" — one run suffices; the baselines get fresh
    random rate points / seeds per run, as in Section 7.3.1.  Run ``r``
    is seeded ``base_seed * 1000 + r``.
    """
    validate_run(model, capacities, seed=base_seed, strategy=name)
    runs = 1 if name == "rod" else repeats
    return np.asarray([
        make_placer(name, model, run_seed=base_seed * 1000 + r)
        .place(model, capacities)
        .volume_ratio(samples=samples)
        for r in range(runs)
    ])


def mean_volume_ratio(
    name: str,
    model: LoadModel,
    capacities: Sequence[float],
    repeats: int = 10,
    samples: int = 4096,
    base_seed: int = 0,
) -> float:
    """Average of :func:`volume_ratio_runs`."""
    return float(
        volume_ratio_runs(
            name, model, capacities,
            repeats=repeats, samples=samples, base_seed=base_seed,
        ).mean()
    )
