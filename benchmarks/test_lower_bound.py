"""Reconstructed Section 6.1 experiment — known lower bounds on rates."""

from repro.experiments import format_rows, lower_bound

from conftest import save_table


def test_lower_bound(benchmark):
    # The harness averages one workload per seed (43-46 by default).
    rows = benchmark.pedantic(
        lambda: lower_bound.run(
            floor_fractions=(0.0, 0.2, 0.4, 0.6), samples=4096
        ),
        rounds=1,
        iterations=1,
    )
    save_table("lower_bound", format_rows(rows))
    by_key = {(r["floor_fraction"], r["algorithm"]): r for r in rows}
    # At zero floor the variants coincide.
    assert by_key[(0.0, "rod")]["restricted_ratio"] == (
        by_key[(0.0, "rod_lb")]["restricted_ratio"]
    )
    # With a substantial floor, floor-aware ROD wins on average.
    for fraction in (0.4, 0.6):
        assert (
            by_key[(fraction, "rod_lb")]["restricted_ratio"]
            >= by_key[(fraction, "rod")]["restricted_ratio"]
        )
    # Both dominate the balancer tuned to the floor point.
    for fraction in (0.2, 0.4, 0.6):
        assert (
            by_key[(fraction, "rod_lb")]["restricted_ratio"]
            > by_key[(fraction, "llf_at_floor")]["restricted_ratio"]
        )
