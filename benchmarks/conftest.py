"""Benchmark plumbing: each bench regenerates one paper table/figure.

Every benchmark prints its table and also writes it to
``benchmarks/results/<id>.txt`` so the regenerated artifacts survive
pytest's output capture.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Benchmark tiers are cumulative: ``mid`` runs everything in ``default``
# plus the mid-scale placement race, ``large`` adds the 1000-node runs.
TIER_ORDER = {"default": 0, "mid": 1, "large": 2}


def pytest_addoption(parser):
    parser.addoption(
        "--tier", action="store", default="default",
        choices=tuple(TIER_ORDER),
        help="benchmark tier: default = kernel micro-benches; "
             "mid adds the hierarchical-vs-flat placement race; "
             "large adds the 1000-node scale runs",
    )


@pytest.fixture
def require_tier(request):
    """Callable fixture: skip the benchmark unless ``--tier`` covers it."""
    def _require(wanted: str) -> None:
        have = request.config.getoption("--tier")
        if TIER_ORDER[have] < TIER_ORDER[wanted]:
            pytest.skip(f"requires --tier {wanted} (running --tier {have})")
    return _require


def save_table(artifact_id: str, text: str) -> None:
    """Persist a regenerated table and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{artifact_id}.txt"
    path.write_text(text + "\n")
    print(f"\n=== {artifact_id} ===")
    print(text)


def pytest_benchmark_update_json(config, benchmarks, output_json):
    """Keep raw per-round timings out of ``--benchmark-json`` files.

    ``check_volume_budget.py`` reads only each benchmark's mean; the
    samples under ``stats.data`` once made the committed baseline 4 MB.
    """
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
