"""Unit tests for latency statistics and simulation results."""

import numpy as np
import pytest

from repro.simulator.metrics import LatencyStats, OperatorStats, SimulationResult


class TestLatencyStats:
    def test_empty(self):
        stats = LatencyStats()
        assert stats.is_empty
        assert stats.mean() == 0.0
        assert stats.percentile(95) == 0.0
        assert stats.maximum() == 0.0
        assert stats.total_tuples == 0

    def test_weighted_mean(self):
        stats = LatencyStats()
        stats.record(1.0, count=1)
        stats.record(3.0, count=3)
        assert stats.mean() == pytest.approx(2.5)
        assert stats.total_tuples == 4

    def test_percentiles_weighted(self):
        stats = LatencyStats()
        stats.record(1.0, count=90)
        stats.record(10.0, count=10)
        assert stats.percentile(50) == 1.0
        assert stats.percentile(99) == 10.0

    def test_percentile_monotone(self):
        rng = np.random.default_rng(0)
        stats = LatencyStats()
        for value in rng.random(100):
            stats.record(float(value))
        values = [stats.percentile(q) for q in (10, 50, 90, 100)]
        assert values == sorted(values)

    def test_maximum(self):
        stats = LatencyStats()
        stats.record(0.5)
        stats.record(2.5)
        assert stats.maximum() == 2.5

    def test_merge(self):
        a, b = LatencyStats(), LatencyStats()
        a.record(1.0, 2)
        b.record(3.0, 2)
        a.merge(b)
        assert a.mean() == pytest.approx(2.0)

    def test_validation(self):
        stats = LatencyStats()
        with pytest.raises(ValueError):
            stats.record(-1.0)
        with pytest.raises(ValueError):
            stats.record(1.0, count=0)
        with pytest.raises(ValueError):
            stats.percentile(101)


class TestOperatorStats:
    def test_measured_quantities(self):
        stats = OperatorStats(tuples_in=100, tuples_out=25, work_seconds=0.5)
        assert stats.measured_cost == pytest.approx(0.005)
        assert stats.measured_selectivity == pytest.approx(0.25)

    def test_zero_input_safe(self):
        stats = OperatorStats()
        assert stats.measured_cost == 0.0
        assert stats.measured_selectivity == 0.0


class TestSimulationResult:
    def make(self, utilization, backlog):
        return SimulationResult(
            duration=10.0,
            node_busy=np.array([utilization * 10.0]),
            node_utilization=np.array([utilization]),
            backlog_seconds=np.array([backlog]),
            latency=LatencyStats(),
        )

    def test_feasible_when_under_threshold(self):
        assert self.make(0.8, 0.0).is_feasible()

    def test_infeasible_when_saturated(self):
        assert not self.make(1.05, 0.0).is_feasible()

    def test_infeasible_when_backlogged(self):
        assert not self.make(0.8, 1.0).is_feasible()

    def test_infeasible_when_work_is_stranded(self):
        """A crashed node's queued tuples never drain, although no node
        reads saturated or backlogged."""
        result = self.make(0.2, 0.0)
        result.stranded_tuples = 3
        assert not result.is_feasible()

    def test_threshold_configurable(self):
        assert self.make(0.95, 0.0).is_feasible(utilization_threshold=0.99)
        assert not self.make(0.95, 0.0).is_feasible(
            utilization_threshold=0.9
        )

    def test_summary_mentions_key_figures(self):
        text = self.make(0.5, 0.0).summary()
        assert "max_util=0.500" in text
        assert "duration=10s" in text


class TestPercentilesContract:
    def test_percentiles_dict(self):
        stats = LatencyStats()
        stats.record(1.0, count=90)
        stats.record(10.0, count=10)
        quantiles = stats.percentiles()
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert quantiles["p50"] == 1.0
        assert quantiles["p99"] == 10.0

    def test_empty_contract_is_zero_never_raise(self):
        # The documented empty-sample contract: every aggregate returns
        # 0.0; callers distinguish "no data" via is_empty.
        stats = LatencyStats()
        assert stats.is_empty
        assert stats.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        assert stats.mean() == 0.0
        assert stats.maximum() == 0.0

    def test_summary_exposes_quantiles(self):
        latency = LatencyStats()
        latency.record(0.002, count=90)
        latency.record(0.050, count=10)
        result = SimulationResult(
            duration=10.0,
            node_busy=np.array([5.0]),
            node_utilization=np.array([0.5]),
            backlog_seconds=np.array([0.0]),
            latency=latency,
        )
        text = result.summary()
        assert "p50=2.00ms" in text
        assert "p95=50.00ms" in text
        assert "p99=50.00ms" in text
