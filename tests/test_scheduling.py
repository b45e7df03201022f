"""Unit tests for per-node scheduling policies."""

from dataclasses import dataclass

import pytest

from repro import build_load_model, placement_from_mapping
from repro.graphs import Delay, QueryGraph
from repro.simulator import Simulator
from repro.simulator.scheduling import POLICIES, SchedulerQueue, Stall


@dataclass(frozen=True)
class FakeBatch:
    operator: str
    count: int


class TestSchedulerQueue:
    def test_fifo_order(self):
        q = SchedulerQueue("fifo")
        q.push(FakeBatch("a", 1))
        q.push(FakeBatch("b", 1))
        q.push(FakeBatch("a", 2))
        assert [q.pop().operator for _ in range(3)] == ["a", "b", "a"]

    def test_round_robin_rotates(self):
        q = SchedulerQueue("round_robin")
        for _ in range(2):
            q.push(FakeBatch("a", 1))
            q.push(FakeBatch("b", 1))
        served = [q.pop().operator for _ in range(4)]
        assert served == ["a", "b", "a", "b"]

    def test_round_robin_fifo_within_operator(self):
        q = SchedulerQueue("round_robin")
        q.push(FakeBatch("a", 1))
        q.push(FakeBatch("a", 2))
        first, second = q.pop(), q.pop()
        assert (first.count, second.count) == (1, 2)

    def test_longest_queue_picks_biggest_backlog(self):
        q = SchedulerQueue("longest_queue")
        q.push(FakeBatch("small", 1))
        q.push(FakeBatch("big", 10))
        assert q.pop().operator == "big"
        assert q.pop().operator == "small"

    def test_stalls_served_first(self):
        q = SchedulerQueue("fifo")
        q.push(FakeBatch("a", 1))
        q.push_stall(0.5)
        entry = q.pop()
        assert isinstance(entry, Stall)
        assert entry.duration == 0.5
        assert q.pop().operator == "a"

    def test_len_and_empty(self):
        q = SchedulerQueue("round_robin")
        assert q.is_empty
        q.push(FakeBatch("a", 1))
        q.push_stall(0.1)
        assert len(q) == 2

    def test_queued_tuples(self):
        q = SchedulerQueue("longest_queue")
        q.push(FakeBatch("a", 3))
        q.push(FakeBatch("a", 2))
        q.push(FakeBatch("b", 1))
        assert q.queued_tuples("a") == 5
        assert q.queued_tuples() == 6

    def test_queued_tuples_fifo(self):
        q = SchedulerQueue("fifo")
        q.push(FakeBatch("a", 3))
        q.push(FakeBatch("b", 1))
        assert q.queued_tuples("a") == 3
        assert q.queued_tuples() == 4

    def test_take_operator(self):
        for policy in POLICIES:
            q = SchedulerQueue(policy)
            q.push(FakeBatch("a", 1))
            q.push(FakeBatch("b", 2))
            q.push(FakeBatch("a", 3))
            taken = q.take_operator("a")
            assert [b.count for b in taken] == [1, 3]
            assert len(q) == 1
            assert q.pop().operator == "b"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            SchedulerQueue("fifo").pop()

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            SchedulerQueue("lottery")

    def test_negative_stall_rejected(self):
        for duration in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="stall duration"):
                SchedulerQueue("fifo").push_stall(duration)


class TestSchedulerQueueProperties:
    """Hypothesis: conservation and consistency under any push/pop mix."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    operations = st.lists(
        st.one_of(
            st.tuples(st.just("push"),
                      st.sampled_from("abc"),
                      st.integers(1, 5)),
            st.tuples(st.just("stall"), st.just(""),
                      st.integers(0, 3)),
            st.tuples(st.just("pop"), st.just(""), st.just(0)),
        ),
        max_size=40,
    )

    @given(st.sampled_from(POLICIES), operations)
    @settings(max_examples=60, deadline=None)
    def test_everything_pushed_is_popped_exactly_once(self, policy, ops):
        from repro.simulator.scheduling import Stall as StallEntry

        queue = SchedulerQueue(policy)
        pushed, popped, stalls_in, stalls_out = [], [], 0, 0
        for kind, operator, value in ops:
            if kind == "push":
                batch = FakeBatch(operator, value)
                queue.push(batch)
                pushed.append(batch)
            elif kind == "stall":
                queue.push_stall(float(value))
                stalls_in += 1
            elif not queue.is_empty:
                entry = queue.pop()
                if isinstance(entry, StallEntry):
                    stalls_out += 1
                else:
                    popped.append(entry)
        while not queue.is_empty:
            entry = queue.pop()
            if isinstance(entry, StallEntry):
                stalls_out += 1
            else:
                popped.append(entry)
        assert sorted(b.count for b in popped) == sorted(
            b.count for b in pushed
        )
        assert stalls_out == stalls_in

    @given(st.sampled_from(POLICIES),
           st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 5)),
                    max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_per_operator_order_is_fifo_under_every_policy(self, policy,
                                                           pushes):
        queue = SchedulerQueue(policy)
        expected = {"a": [], "b": []}
        for index, (operator, count) in enumerate(pushes):
            queue.push(FakeBatch(operator, count))
            expected[operator].append(count)
        seen = {"a": [], "b": []}
        while not queue.is_empty:
            batch = queue.pop()
            seen[batch.operator].append(batch.count)
        assert seen == expected


    @given(st.lists(st.one_of(
        st.tuples(st.just("push"), st.sampled_from("abcd"),
                  st.integers(1, 6)),
        st.tuples(st.just("pop"), st.just(""), st.just(0)),
        st.tuples(st.just("take"), st.sampled_from("abcd"), st.just(0)),
    ), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_longest_queue_pops_what_re_summing_picks(self, ops):
        """The kept per-operator totals choose what summing every queue
        on each pop chose, ties to the operator queued first."""
        queue = SchedulerQueue("longest_queue")
        reference = {}  # operator -> its batches, in first-queued order
        for kind, operator, count in ops:
            if kind == "push":
                batch = FakeBatch(operator, count)
                queue.push(batch)
                reference.setdefault(operator, []).append(batch)
            elif kind == "take":
                assert list(queue.take_operator(operator)) == (
                    reference.pop(operator, [])
                )
            elif reference:
                name = max(reference, key=lambda n: sum(
                    b.count for b in reference[n]
                ))
                assert queue.pop() is reference[name].pop(0)
                if not reference[name]:
                    del reference[name]
            for name in "abcd":
                assert queue.queued_tuples(name) == sum(
                    b.count for b in reference.get(name, ())
                )
            assert queue.queued_tuples() == sum(
                b.count for batches in reference.values() for b in batches
            )
        assert queue.is_empty == (not reference)


class TestEngineScheduling:
    def make_plan(self):
        """Two operators sharing one node: a heavy one and a light one."""
        g = QueryGraph()
        i = g.add_input("I")
        g.add_operator(Delay("heavy", cost=0.009, selectivity=1.0), [i])
        g.add_operator(Delay("light", cost=0.001, selectivity=1.0), [i])
        model = build_load_model(g)
        return placement_from_mapping(model, [1.0], {"heavy": 0, "light": 0})

    @pytest.mark.parametrize("policy", POLICIES)
    def test_total_work_is_policy_independent(self, policy):
        plan = self.make_plan()
        result = Simulator(
            plan, step_seconds=0.1, scheduling=policy
        ).run(rates=[80.0], duration=10.0)
        assert result.tuples_out == 1600
        assert result.max_utilization == pytest.approx(0.8, abs=0.01)

    def test_round_robin_protects_light_operator(self):
        """Under pressure, RR keeps the light operator's latency below
        FIFO's, which makes it wait behind heavy batches."""
        plan = self.make_plan()
        fifo = Simulator(plan, step_seconds=0.1, scheduling="fifo").run(
            rates=[95.0], duration=20.0
        )
        rr = Simulator(
            plan, step_seconds=0.1, scheduling="round_robin"
        ).run(rates=[95.0], duration=20.0)
        assert (
            rr.sink_latency["light.out"].mean()
            <= fifo.sink_latency["light.out"].mean() + 1e-9
        )

    def test_unknown_policy_rejected_eagerly(self):
        with pytest.raises(ValueError, match="policy"):
            Simulator(self.make_plan(), scheduling="priority")
