"""One placer table: every front door takes the same strategy names."""

import argparse
import json

import pytest

from repro import build_load_model
from repro.check import check_experiment_config
from repro.cli import build_parser, main
from repro.deploy import Deployment
from repro.graphs import RandomGraphConfig, random_tree_graph
from repro.graphs.serialize import dump_graph
from repro.placers import PLACERS, build_placer


def _place_algorithms():
    commands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return next(
        action.choices for action in commands["place"]._actions
        if "--algorithm" in action.option_strings
    )


def test_place_lists_the_table_in_order():
    assert tuple(_place_algorithms()) == tuple(PLACERS) == (
        "rod", "llf", "connected", "correlation", "random", "optimal",
        "milp", "annealing", "hierarchical",
    )


@pytest.fixture(scope="module")
def graph():
    """Six operators: small enough for the exhaustive placer."""
    return random_tree_graph(
        RandomGraphConfig(num_inputs=2, operators_per_tree=3), seed=1
    )


@pytest.mark.parametrize("name", list(PLACERS))
def test_every_front_door_builds_every_name(name, graph, tmp_path, capsys):
    """``place --algorithm`` and ``Deployment.plan`` build the same plan
    from each name, and the config verifier accepts it."""
    path, plan = str(tmp_path / "graph.json"), tmp_path / "plan.json"
    dump_graph(graph, path)
    assert main([
        "place", "--graph", path, "--nodes", "2", "--algorithm", name,
        "--seed", "1", "-o", str(plan),
    ]) == 0
    capsys.readouterr()
    deployment = Deployment.plan(graph, [1.0, 1.0], strategy=name, seed=1)
    assert json.loads(plan.read_text())["assignment"] == (
        deployment.placement.to_mapping()
    )
    report = check_experiment_config(
        {"strategy": name, "seed": 1, "capacities": [1.0, 1.0]}
    )
    assert not report.by_code("REPRO404")


def test_unknown_name_lists_the_table(graph):
    with pytest.raises(ValueError, match="'magic'.*'hierarchical'"):
        build_placer("magic", build_load_model(graph))
