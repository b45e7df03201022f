"""Migration with queued work: the hand-off path in the engine."""

import numpy as np
import pytest

from repro import build_load_model, placement_from_mapping
from repro.dynamics import Migration, MigrationController
from repro.faults import FaultEvent, FaultSchedule
from repro.graphs import Delay, QueryGraph
from repro.obs import MemorySink, Tracer
from repro.simulator import Simulator


class ForcedMove(MigrationController):
    """Moves one named operator at the first poll, then stays quiet."""

    def __init__(self, operator: str, source: int, target: int,
                 period: float = 1.0, pause: float = 0.2) -> None:
        super().__init__(period)
        self.move = Migration(operator, source, target, pause)
        self.fired = False

    def decide(self, now, utilizations, assignment, model, capacities,
               operator_loads=None):
        if self.fired:
            return []
        self.fired = True
        return [self.move]


@pytest.fixture
def overloaded_plan():
    """One hot node: 'heavy' demands 1.5x a node alone."""
    g = QueryGraph()
    i = g.add_input("I")
    g.add_operator(Delay("heavy", cost=0.015, selectivity=1.0), [i])
    g.add_operator(Delay("light", cost=0.001, selectivity=1.0), [i])
    model = build_load_model(g)
    return placement_from_mapping(
        model, [1.0, 1.0], {"heavy": 0, "light": 0}
    )


class TestQueuedWorkFollowsOperator:
    def test_tuples_conserved_across_forced_move(self, overloaded_plan):
        controller = ForcedMove("heavy", source=0, target=1)
        result = Simulator(
            overloaded_plan, step_seconds=0.1, controller=controller
        ).run(rates=[100.0], duration=10.0)
        assert result.migration_count == 1
        # Every injected tuple is processed by both operators despite the
        # mid-run move of a backlogged operator.
        assert result.operator_stats["heavy"].tuples_in == result.tuples_in
        assert result.operator_stats["light"].tuples_in == result.tuples_in

    def test_move_relieves_the_hot_node(self, overloaded_plan):
        static = Simulator(overloaded_plan, step_seconds=0.1).run(
            rates=[100.0], duration=10.0
        )
        controller = ForcedMove("heavy", source=0, target=1)
        moved = Simulator(
            overloaded_plan, step_seconds=0.1, controller=controller
        ).run(rates=[100.0], duration=10.0)
        # Statically node 0 is overloaded (1.6x); after the early move
        # node 1 absorbs the heavy operator and the peak drops.
        assert static.max_utilization > 1.2
        assert moved.max_utilization < static.max_utilization

    def test_stale_move_ignored(self, overloaded_plan):
        """A decision naming the wrong source node must be dropped."""
        controller = ForcedMove("heavy", source=1, target=0)  # wrong source
        result = Simulator(
            overloaded_plan, step_seconds=0.1, controller=controller
        ).run(rates=[50.0], duration=5.0)
        assert result.migration_count == 0

    def test_node_crashed_during_its_pause_stays_quiet(self, overloaded_plan):
        """The move at t = 1.0 pauses node 1 until t = 1.2, with the
        heavy operator's backlog queued behind the pause.  Node 1
        crashes at t = 1.1: when the pause ends it goes idle and serves
        nothing more."""
        sink = MemorySink()
        Simulator(
            overloaded_plan, step_seconds=0.1,
            controller=ForcedMove("heavy", source=0, target=1),
            faults=FaultSchedule([
                FaultEvent(time=1.1, kind="node.crash", node=1)
            ]),
            tracer=Tracer(sink),
        ).run(rates=[100.0], duration=10.0)
        after = [
            event["type"] for event in sink.events
            if event.get("node") == 1 and event["t"] >= 1.1
            and event["type"] in ("node.stall", "batch.serviced",
                                  "node.idle", "node.busy")
        ]
        assert after == ["node.stall", "node.idle"]


class TestPauseChecked:
    @pytest.mark.parametrize("pause", [float("nan"), float("inf")])
    def test_non_finite_pause_rejected_when_applied(
        self, overloaded_plan, pause
    ):
        controller = ForcedMove("heavy", source=0, target=1, pause=pause)
        sim = Simulator(
            overloaded_plan, step_seconds=0.1, controller=controller
        )
        with pytest.raises(ValueError, match="stall duration"):
            sim.run(rates=[100.0], duration=5.0)


class TestGeometryInfEdges:
    def test_point_distance_with_zero_norm_row(self):
        from repro.core import geometry

        weights = np.array([[0.0, 0.0], [1.0, 1.0]])
        distances = geometry.plane_distance_from_point(
            weights, np.array([0.2, 0.2])
        )
        assert np.isinf(distances[0])
        assert distances[1] == pytest.approx(0.6 / np.sqrt(2))

    def test_ideal_rate_points_zero_coefficient_variable(self):
        """A variable no operator consumes gets rate 0, not infinity."""
        from repro.core.load_model import build_load_model
        from repro.workload.rates import ideal_rate_points

        g = QueryGraph()
        g.add_input("used")
        g.add_input("unused")
        i = g.stream("used")
        g.add_operator(Delay("d", cost=1.0, selectivity=1.0), [i])
        model = build_load_model(g)
        points = ideal_rate_points(model, [1.0], 16, seed=1)
        assert np.all(points[:, 1] == 0.0)
        assert np.all(np.isfinite(points))
