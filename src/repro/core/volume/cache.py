"""Process-wide memoized cache of QMC sample points.

Every consumer of low-discrepancy points — :meth:`FeasibleSet.volume_ratio`,
the annealing and exhaustive placers, the experiment harnesses — asks for
the same kind of stream: ``(dimension, method, seed)`` identifies it,
``count`` says how much of it.  Halton points do not depend on the seed,
so every Halton stream is keyed with ``seed=None``.  Generating Halton
points is the single most repeated computation in the reproduction, so
this module keeps one generation per stream and hands out **read-only
prefix views**:

* A request that fits inside an existing generation is a *hit* and costs
  one dictionary lookup plus a slice.
* A request that extends a Halton generation reuses the cached prefix and
  generates only the missing tail (Halton streams are resumable, so the
  extension is bit-identical to a one-shot generation).
* Cached arrays have ``writeable=False``: a caller that tries to mutate
  shared points fails loudly instead of silently poisoning every later
  estimate.
* Unseeded pseudo-random requests are non-reproducible by construction
  and bypass the cache entirely (still returned read-only, for a
  consistent contract).

Cache effectiveness is observable: :func:`cache_stats` returns the raw
counters and :func:`publish_metrics` exports them into a
:class:`~repro.obs.metrics.MetricsRegistry` as ``repro_volume_cache_hits``
/ ``..._misses`` / ``..._evictions`` counters and a
``repro_volume_cache_points`` gauge.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ...obs.metrics import MetricsRegistry

__all__ = [
    "simplex_points",
    "cache_stats",
    "clear_cache",
    "publish_metrics",
    "MAX_ENTRIES",
]

#: Streams kept resident before least-recently-used eviction kicks in.
MAX_ENTRIES = 64

_Key = Tuple[int, str, Optional[int]]

_LOCK = threading.Lock()
_ENTRIES: "OrderedDict[_Key, np.ndarray]" = OrderedDict()
_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _generate(
    count: int, dimension: int, method: str, seed: Optional[int],
    skip: int = 0,
) -> np.ndarray:
    from . import qmc

    return qmc.generate_unit_simplex(
        count, dimension, method=method, seed=seed, skip=skip
    )


def _freeze(points: np.ndarray) -> np.ndarray:
    points.setflags(write=False)
    return points


def simplex_points(
    count: int,
    dimension: int,
    method: str = "halton",
    seed: Optional[int] = None,
) -> np.ndarray:
    """``count`` unit-simplex points of the given stream, memoized.

    Returns a read-only ``(count, dimension)`` view; identical requests
    (and shorter prefixes of earlier ones) share storage; Halton
    requests that differ only in ``seed`` are identical.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if method not in ("halton", "random"):
        raise ValueError(f"unknown sampling method: {method!r}")
    if method == "random" and seed is None:
        # Non-reproducible stream: nothing to share.
        return _freeze(_generate(count, dimension, method, seed))

    key: _Key = (dimension, method, None if method == "halton" else seed)
    with _LOCK:
        cached = _ENTRIES.get(key)
        if cached is not None and cached.shape[0] >= count:
            _STATS["hits"] += 1
            _ENTRIES.move_to_end(key)
            return cached[:count]

        _STATS["misses"] += 1
        if cached is None or method != "halton":
            # Pseudo-random growth replays the stream from its seed (the
            # prefix property makes the result consistent with any views
            # handed out from the smaller generation).
            points = _generate(count, dimension, method, seed)
        else:
            have = cached.shape[0]
            tail = _generate(count - have, dimension, method, seed, have)
            points = np.concatenate([cached, tail], axis=0)
        _freeze(points)
        _ENTRIES[key] = points
        _ENTRIES.move_to_end(key)
        while len(_ENTRIES) > MAX_ENTRIES:
            _ENTRIES.popitem(last=False)
            _STATS["evictions"] += 1
        return points[:count]


def cache_stats() -> Dict[str, int]:
    """Raw cache counters plus current occupancy."""
    with _LOCK:
        stats = dict(_STATS)
        stats["entries"] = len(_ENTRIES)
        stats["points"] = int(
            sum(entry.shape[0] for entry in _ENTRIES.values())
        )
    return stats


def clear_cache() -> None:
    """Drop every cached stream and zero the counters (test isolation)."""
    with _LOCK:
        _ENTRIES.clear()
        for field in _STATS:
            _STATS[field] = 0


def publish_metrics(registry: MetricsRegistry) -> None:
    """Export the cache counters into ``registry`` (one-shot snapshot)."""
    stats = cache_stats()
    registry.counter(
        "repro_volume_cache_hits",
        "QMC sample-point cache hits",
    ).inc(stats["hits"])
    registry.counter(
        "repro_volume_cache_misses",
        "QMC sample-point cache misses (generations)",
    ).inc(stats["misses"])
    registry.counter(
        "repro_volume_cache_evictions",
        "QMC sample-point cache LRU evictions",
    ).inc(stats["evictions"])
    registry.gauge(
        "repro_volume_cache_points",
        "QMC sample points currently resident in the cache",
    ).set(stats["points"])
