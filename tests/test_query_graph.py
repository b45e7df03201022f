"""Unit tests for query-graph construction and evaluation."""

import pytest

from repro.graphs import Delay, Filter, Map, QueryGraph, Union, WindowJoin
from repro.graphs.query_graph import subgraph_operator_count


@pytest.fixture
def diamond():
    """I -> a -> (b, c) -> union -> sink (a classic fan-out/fan-in)."""
    g = QueryGraph("diamond")
    i = g.add_input("I")
    a = g.add_operator(Map("a", cost=1.0), [i])
    b = g.add_operator(Filter("b", cost=1.0, selectivity=0.5), [a])
    c = g.add_operator(Filter("c", cost=1.0, selectivity=0.25), [a])
    g.add_operator(Union("u", costs=[1.0, 1.0]), [b, c])
    return g


class TestConstruction:
    def test_counts(self, diamond):
        assert diamond.num_inputs == 1
        assert diamond.num_operators == 4
        assert len(diamond) == 4

    def test_input_order_is_k_index(self):
        g = QueryGraph()
        g.add_input("X")
        s = g.add_input("Y")
        assert s.input_index == 1
        assert g.input_names == ("X", "Y")

    def test_duplicate_stream_name_rejected(self):
        g = QueryGraph()
        g.add_input("I")
        with pytest.raises(ValueError, match="duplicate stream"):
            g.add_input("I")

    def test_duplicate_operator_name_rejected(self, diamond):
        with pytest.raises(ValueError, match="duplicate operator"):
            diamond.add_operator(Map("a", cost=1.0), ["I"])

    def test_arity_mismatch_rejected(self):
        g = QueryGraph()
        i = g.add_input("I")
        with pytest.raises(ValueError, match="arity"):
            g.add_operator(Union("u", costs=[1.0, 1.0]), [i])

    def test_unknown_input_stream_rejected(self):
        g = QueryGraph()
        g.add_input("I")
        with pytest.raises(KeyError, match="unknown stream"):
            g.add_operator(Map("m", cost=1.0), ["nope"])

    def test_inputs_by_name_or_stream_object(self):
        g = QueryGraph()
        i = g.add_input("I")
        g.add_operator(Map("m1", cost=1.0), [i])
        g.add_operator(Map("m2", cost=1.0), ["I"])
        assert g.num_operators == 2

    def test_custom_output_name(self):
        g = QueryGraph()
        i = g.add_input("I")
        out = g.add_operator(Map("m", cost=1.0), [i], output_name="renamed")
        assert out.name == "renamed"
        assert g.output_of("m").name == "renamed"

    def test_operator_insertion_order_is_topological(self, diamond):
        names = diamond.operator_names
        assert names.index("a") < names.index("b")
        assert names.index("b") < names.index("u")

    def test_validate_passes(self, diamond):
        diamond.validate()

    def test_repr(self, diamond):
        assert "diamond" in repr(diamond)
        assert "operators=4" in repr(diamond)


class TestTopology:
    def test_consumers_of_fanout_stream(self, diamond):
        assert set(diamond.consumers_of("a.out")) == {"b", "c"}

    def test_sink_streams(self, diamond):
        sinks = {s.name for s in diamond.sink_streams()}
        assert sinks == {"u.out"}

    def test_upstream_and_downstream(self, diamond):
        assert diamond.upstream_operators("u") == ("b", "c")
        assert diamond.downstream_operators("a") == ("b", "c")
        assert diamond.upstream_operators("a") == ()

    def test_arcs_exclude_input_edges(self, diamond):
        arcs = diamond.arcs()
        assert len(arcs) == 4  # a->b, a->c, b->u, c->u
        assert all(arc.producer in diamond for arc in arcs)

    def test_contains(self, diamond):
        assert "a" in diamond
        assert "zzz" not in diamond

    def test_unknown_operator_raises(self, diamond):
        with pytest.raises(KeyError):
            diamond.operator("nope")
        with pytest.raises(KeyError):
            diamond.inputs_of("nope")

    def test_subgraph_operator_count(self, diamond):
        assert subgraph_operator_count(diamond, ["I"]) == 4
        assert subgraph_operator_count(diamond, ["a.out"]) == 3

    def test_nonlinear_detection(self, diamond):
        assert not diamond.has_nonlinear_operators()
        g = QueryGraph()
        a, b = g.add_input("A"), g.add_input("B")
        g.add_operator(WindowJoin("j", window=1.0), [a, b])
        assert g.has_nonlinear_operators()
        assert g.join_operators() == ("j",)


class TestEvaluation:
    def test_stream_rates_propagate_selectivity(self, diamond):
        rates = diamond.stream_rates([8.0])
        assert rates["a.out"] == pytest.approx(8.0)
        assert rates["b.out"] == pytest.approx(4.0)
        assert rates["c.out"] == pytest.approx(2.0)
        assert rates["u.out"] == pytest.approx(6.0)

    def test_operator_loads(self, diamond):
        loads = diamond.operator_loads([8.0])
        assert loads["a"] == pytest.approx(8.0)
        assert loads["u"] == pytest.approx(6.0)

    def test_total_load(self, diamond):
        # a: 8, b: 8, c: 8, u: 6
        assert diamond.total_load([8.0]) == pytest.approx(30.0)

    def test_transfer_costs_resolve_per_stream(self, diamond):
        uniform = diamond.transfer_costs(2)
        assert uniform == dict.fromkeys(
            ("I", "a.out", "b.out", "c.out", "u.out"), 2.0
        )
        named = diamond.transfer_costs({"b.out": 0.5})
        assert named["b.out"] == 0.5
        assert sum(named.values()) == 0.5  # unnamed streams cost nothing

    def test_rate_count_checked(self, diamond):
        with pytest.raises(ValueError, match="input rates"):
            diamond.stream_rates([1.0, 2.0])

    def test_join_rates_are_quadratic(self):
        g = QueryGraph()
        a, b = g.add_input("A"), g.add_input("B")
        g.add_operator(
            WindowJoin("j", cost_per_pair=1.0, selectivity=0.5, window=2.0),
            [a, b],
        )
        rates = g.stream_rates([3.0, 5.0])
        assert rates["j.out"] == pytest.approx(0.5 * 2.0 * 3.0 * 5.0)

    def test_paper_example_loads(self):
        from repro.graphs import paper_example_graph

        loads = paper_example_graph().operator_loads([1.0, 1.0])
        assert loads == pytest.approx(
            {"o1": 4.0, "o2": 6.0, "o3": 9.0, "o4": 2.0}
        )
