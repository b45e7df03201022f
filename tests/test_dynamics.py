"""Unit tests for operator state and dynamic migration."""

import numpy as np
import pytest

from repro import build_load_model, placement_from_mapping
from repro.dynamics import (
    LoadBalancingController,
    Migration,
    MigrationCostModel,
    graph_state_tuples,
    operator_state_tuples,
)
from repro.graphs import (
    Aggregate,
    Delay,
    Map,
    QueryGraph,
    WindowJoin,
)
from repro.simulator import Simulator


class TestStateModel:
    def test_stateless_operators(self):
        assert operator_state_tuples(Map("m", 1.0), [100.0]) == 0.0
        assert operator_state_tuples(
            Delay("d", cost=1.0, selectivity=0.5), [100.0]
        ) == 0.0

    def test_aggregate_state_is_window(self):
        op = Aggregate("a", cost=1.0, selectivity=0.1)
        assert operator_state_tuples(op, [100.0]) == pytest.approx(10.0)

    def test_join_state_is_both_windows(self):
        op = WindowJoin("j", window=0.5)
        assert operator_state_tuples(op, [100.0, 60.0]) == pytest.approx(80.0)

    def test_graph_state_uses_propagated_rates(self):
        g = QueryGraph()
        i = g.add_input("I")
        f = g.add_operator(Delay("f", cost=1.0, selectivity=0.5), [i])
        g.add_operator(Aggregate("a", cost=1.0, selectivity=0.2), [f])
        state = graph_state_tuples(g, [100.0])
        assert state["f"] == 0.0
        assert state["a"] == pytest.approx(5.0)

    def test_cost_model(self):
        model = MigrationCostModel(base_overhead=0.3,
                                   per_tuple_transfer=1e-3)
        assert model.pause_seconds(0.0) == pytest.approx(0.3)
        assert model.pause_seconds(100.0) == pytest.approx(0.4)
        with pytest.raises(ValueError):
            model.pause_seconds(-1.0)
        with pytest.raises(ValueError):
            MigrationCostModel(base_overhead=-1.0)


class TestControllerDecisions:
    def make_model(self, loads=(5.0, 1.0, 1.0, 1.0)):
        g = QueryGraph()
        i = g.add_input("I")
        for index, cost in enumerate(loads):
            g.add_operator(
                Delay(f"d{index}", cost=cost, selectivity=1.0), [i]
            )
        return build_load_model(g)

    def test_no_move_when_balanced(self):
        model = self.make_model()
        controller = LoadBalancingController(period=1.0)
        moves = controller.decide(
            1.0,
            np.array([0.5, 0.5]),
            {"d0": 0, "d1": 1, "d2": 0, "d3": 1},
            model,
            np.ones(2),
        )
        assert moves == []

    def test_moves_from_busiest_to_calmest(self):
        model = self.make_model()
        controller = LoadBalancingController(period=1.0)
        assignment = {"d0": 0, "d1": 0, "d2": 0, "d3": 1}
        moves = controller.decide(
            1.0,
            np.array([0.9, 0.1]),
            assignment,
            model,
            np.ones(2),
            operator_loads={"d0": 0.5, "d1": 0.2, "d2": 0.2, "d3": 0.1},
        )
        assert len(moves) == 1
        move = moves[0]
        assert move.source == 0 and move.target == 1
        # Target transfer is gap/2 = 0.4: d0 (0.5) is the closest match.
        assert move.operator == "d0"

    def test_cooldown_pins_recently_moved(self):
        model = self.make_model()
        controller = LoadBalancingController(period=1.0, cooldown=10.0)
        assignment = {"d0": 0, "d1": 0, "d2": 1, "d3": 1}
        loads = {"d0": 0.4, "d1": 0.4, "d2": 0.05, "d3": 0.05}
        first = controller.decide(
            1.0, np.array([0.8, 0.1]), assignment, model, np.ones(2),
            operator_loads=loads,
        )
        assert len(first) == 1
        moved = first[0].operator
        assignment[moved] = 1
        # Immediately after, the same operator may not bounce back.
        second = controller.decide(
            2.0, np.array([0.1, 0.8]), assignment, model, np.ones(2),
            operator_loads=loads,
        )
        assert all(m.operator != moved for m in second)

    def test_never_flips_imbalance(self):
        """A move bigger than the gap would just swap roles: refuse."""
        model = self.make_model(loads=(5.0,))
        controller = LoadBalancingController(period=1.0)
        moves = controller.decide(
            1.0,
            np.array([0.5, 0.2]),
            {"d0": 0},
            model,
            np.ones(2),
            operator_loads={"d0": 0.5},
        )
        assert moves == []

    def test_second_best_migrates_when_best_fit_is_immovable(self):
        """Regression: a zero-demand tie must not abandon the period.

        ``a_zero`` (measured load 0) ties ``b_heavy`` (load 0.8) on
        distance to the gap/2 target; the old code picked the tie winner
        first, saw an invalid transfer, and ``break``-ed without moving
        anything.  Candidates must be filtered for validity *before*
        choosing, so the movable second-best operator migrates.
        """
        g = QueryGraph()
        i = g.add_input("I")
        g.add_operator(Delay("a_zero", cost=0.0, selectivity=1.0), [i])
        g.add_operator(Delay("b_heavy", cost=0.8, selectivity=1.0), [i])
        model = build_load_model(g)
        controller = LoadBalancingController(period=1.0)
        moves = controller.decide(
            1.0,
            np.array([0.8, 0.0]),
            {"a_zero": 0, "b_heavy": 0},
            model,
            np.ones(2),
            operator_loads={"a_zero": 0.0, "b_heavy": 0.8},
        )
        assert len(moves) == 1
        assert moves[0].operator == "b_heavy"
        assert moves[0].source == 0 and moves[0].target == 1

    def test_load_fallback_is_per_operator(self):
        """Regression: an operator missing from the measured statistics
        must fall through to its model estimate, not report 0.0 just
        because *some other* operator has measurements."""
        model = self.make_model(loads=(0.05, 0.4))
        controller = LoadBalancingController(period=1.0)
        # Only d0 is measured; d1's demand (0.4 by coefficient mass) is
        # the perfect gap/2 match and must win.  With the old
        # all-or-nothing fallback d1 looked idle (0.0) and d0 moved.
        moves = controller.decide(
            1.0,
            np.array([0.8, 0.0]),
            {"d0": 0, "d1": 0},
            model,
            np.ones(2),
            operator_loads={"d0": 0.05},
        )
        assert len(moves) == 1
        assert moves[0].operator == "d1"

    def test_smoothing_resets_on_node_count_change(self):
        """EWMA state from a 2-node cluster must not leak into a 3-node
        one: on shape change the smoother restarts from the fresh raw."""
        model = self.make_model(loads=(1.0, 1.0))
        controller = LoadBalancingController(period=1.0)
        for t in (1.0, 2.0, 3.0):
            controller.decide(
                t, np.array([1.0, 0.0]), {"d0": 0, "d1": 1},
                model, np.ones(2),
                operator_loads={"d0": 1.0, "d1": 0.0},
            )
        raw = np.array([0.5, 0.5, 0.5])
        moves = controller.decide(
            4.0, raw, {"d0": 0, "d1": 1}, model, np.ones(3),
            operator_loads={"d0": 0.5, "d1": 0.5},
        )
        assert moves == []
        assert np.allclose(controller._smoothed, raw)

    def test_max_moves_per_period_exhaustion(self):
        """The per-period cap bounds the migration storm, not the gap."""
        model = self.make_model(loads=(0.2, 0.2, 0.2, 0.2))
        assignment = {"d0": 0, "d1": 0, "d2": 0, "d3": 0}
        loads = {"d0": 0.2, "d1": 0.2, "d2": 0.2, "d3": 0.2}
        capped = LoadBalancingController(period=1.0, max_moves_per_period=2)
        moves = capped.decide(
            1.0, np.array([0.8, 0.0, 0.0]), dict(assignment),
            model, np.ones(3), operator_loads=loads,
        )
        assert len(moves) == 2
        roomy = LoadBalancingController(period=1.0, max_moves_per_period=4)
        more = roomy.decide(
            1.0, np.array([0.8, 0.0, 0.0]), dict(assignment),
            model, np.ones(3), operator_loads=loads,
        )
        assert len(more) > 2

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadBalancingController(period=0.0)
        with pytest.raises(ValueError):
            LoadBalancingController(imbalance_threshold=-1.0)
        with pytest.raises(ValueError):
            LoadBalancingController(max_moves_per_period=0)
        with pytest.raises(ValueError):
            LoadBalancingController(cooldown=-1.0)
        for period in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="period"):
                LoadBalancingController(period=period)
        with pytest.raises(ValueError, match="cooldown"):
            LoadBalancingController(cooldown=float("nan"))
        # An infinite cooldown means "never move an operator twice".
        assert LoadBalancingController(
            cooldown=float("inf")
        ).cooldown == float("inf")

    def test_history_accumulates(self):
        model = self.make_model()
        controller = LoadBalancingController(period=1.0)
        controller.decide(
            1.0, np.array([0.9, 0.1]),
            {"d0": 0, "d1": 0, "d2": 0, "d3": 0},
            model, np.ones(2),
            operator_loads={"d0": 0.4, "d1": 0.2, "d2": 0.2, "d3": 0.1},
        )
        assert len(controller.history) == 1
        assert isinstance(controller.history[0], Migration)


class TestEngineIntegration:
    def make_plan(self):
        g = QueryGraph()
        i = g.add_input("I")
        g.add_operator(Delay("heavy", cost=0.008, selectivity=1.0), [i])
        g.add_operator(Delay("light", cost=0.002, selectivity=1.0), [i])
        model = build_load_model(g)
        # Both operators on node 0: node 1 idles.
        return placement_from_mapping(
            model, [1.0, 1.0], {"heavy": 0, "light": 0}
        )

    def test_controller_rebalances_lopsided_start(self):
        plan = self.make_plan()
        controller = LoadBalancingController(period=1.0, cooldown=2.0)
        result = Simulator(plan, step_seconds=0.1,
                           controller=controller).run(
            rates=[80.0], duration=20.0
        )
        assert result.migration_count >= 1
        # After rebalancing, node 1 carries real work.
        assert result.node_utilization[1] > 0.05

    def test_static_run_reports_no_migrations(self):
        plan = self.make_plan()
        result = Simulator(plan, step_seconds=0.1).run(
            rates=[80.0], duration=5.0
        )
        assert result.migration_count == 0
        assert result.total_migration_pause == 0.0

    def test_migration_pause_stalls_nodes(self):
        plan = self.make_plan()
        quiet = Simulator(plan, step_seconds=0.1).run(
            rates=[80.0], duration=20.0
        )
        controller = LoadBalancingController(period=1.0, cooldown=50.0)
        moved = Simulator(plan, step_seconds=0.1,
                          controller=controller).run(
            rates=[80.0], duration=20.0
        )
        if moved.migration_count:
            pause = moved.total_migration_pause
            assert pause > 0
            # Stall time shows up as extra accounted work.
            assert moved.node_busy.sum() >= quiet.node_busy.sum()
