"""Tuple arrival processes for the simulator.

Converts rate traces (tuples per second, one value per time step) into
per-step arrival counts, either deterministically (fractional carry, so
long-run counts match the trace exactly) or as a Poisson process modulated
by the trace (a doubly-stochastic process, matching the "event-based
aperiodic nature of stream sources").
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "ARRIVAL_KINDS", "deterministic_arrivals", "poisson_arrivals",
    "ArrivalProcess",
]

#: The arrival processes :class:`ArrivalProcess` generates.
ARRIVAL_KINDS = ("deterministic", "poisson")


def deterministic_arrivals(
    rates: Sequence[float], step_seconds: float
) -> np.ndarray:
    """Per-step integer arrival counts preserving cumulative volume.

    Carries the fractional remainder forward so ``sum(counts)`` equals the
    integral of the rate trace to within one tuple.
    """
    if step_seconds <= 0:
        raise ValueError("step_seconds must be > 0")
    r = np.asarray(rates, dtype=float)
    if np.any(r < 0):
        raise ValueError("rates must be >= 0")
    cumulative = np.cumsum(r * step_seconds)
    counts = np.diff(np.floor(cumulative + 1e-9), prepend=0.0)
    return counts.astype(int)


def poisson_arrivals(
    rates: Sequence[float],
    step_seconds: float,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Poisson arrival counts with per-step intensity from the trace."""
    if step_seconds <= 0:
        raise ValueError("step_seconds must be > 0")
    r = np.asarray(rates, dtype=float)
    if np.any(r < 0):
        raise ValueError("rates must be >= 0")
    rng = np.random.default_rng(seed)
    return rng.poisson(r * step_seconds)


class ArrivalProcess:
    """Stateful per-source arrival generator used by simulator sources."""

    def __init__(
        self,
        rates: Sequence[float],
        step_seconds: float,
        kind: str = "deterministic",
        seed: Optional[int] = None,
    ) -> None:
        if kind == "deterministic":
            self.counts = deterministic_arrivals(rates, step_seconds)
        elif kind == "poisson":
            self.counts = poisson_arrivals(rates, step_seconds, seed=seed)
        else:
            raise ValueError(
                f"unknown arrival kind: {kind!r}; "
                f"expected one of {ARRIVAL_KINDS}"
            )
        self.step_seconds = float(step_seconds)

    @property
    def num_steps(self) -> int:
        return int(self.counts.shape[0])

    def steps(self) -> Iterator[tuple]:
        """Yield ``(start_time, count)`` per step, skipping empty steps."""
        for index, count in enumerate(self.counts):
            if count > 0:
                yield index * self.step_seconds, int(count)
