"""Byte-level pins of the ROD family's plans.

Each group below reduces its cases to text lines (assignments, the
``RodStep`` records of one traced run, a volume ratio) and compares the
SHA-256 of those lines with the digest recorded before the ROD loop and
the hierarchical placer were last restructured.  A refactor that keeps
every answer keeps every digest; any changed assignment fails its group.

The groups cover ``rod_place`` under all four Class I policies, with and
without a workload floor, on homogeneous and heterogeneous capacities;
an explicit reversed order and one ``steps=`` trace; ``rod_extend``
growing a deployment by a new input stream; ``HierarchicalPlacer`` on 48
nodes and on the ``plan`` benchmark workload's 96-node shape with its
volume ratio; and ``search_clusterings``.
"""

import hashlib
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro import build_load_model
from repro.core.clustering import search_clusterings
from repro.core.rod import CLASS_ONE_POLICIES, rod_extend, rod_order, rod_place
from repro.experiments.common import make_model
from repro.graphs import (
    Delay,
    RandomGraphConfig,
    monitoring_graph,
    random_tree_graph,
)
from repro.placement import HierarchicalPlacer

HOMOGENEOUS = (1.0, 1.0, 1.0, 1.0)
HETEROGENEOUS = (2.0, 1.0, 1.5, 0.5)


def _floor(model, capacities) -> np.ndarray:
    """A rate floor that asks for 30% of the total capacity."""
    totals = model.column_totals()
    return 0.3 * sum(capacities) / (model.num_variables * totals)


def _tree_graph():
    config = RandomGraphConfig(num_inputs=2, operators_per_tree=6)
    return random_tree_graph(config, seed=11)


def _grown_tree_graph():
    """The tree graph plus eight consumers of a new input stream and one
    more consumer of an old one, all as heavy as the tree's operators."""
    graph = _tree_graph()
    stream = graph.add_input("grown_input")
    for k in range(8):
        graph.add_operator(
            Delay(f"grown{k}", cost=5e-4 * (2 + k % 3), selectivity=1.0),
            [stream],
        )
    graph.add_operator(Delay("grown_tap", cost=1.5e-3, selectivity=1.0),
                       [graph.input_names[0]])
    return graph


def _rod_place_lines() -> List[str]:
    models = {
        "tree": build_load_model(_tree_graph()),
        "monitoring": build_load_model(monitoring_graph(3, seed=7)),
        "random": make_model(4, 16, seed=3),
    }
    lines = []
    for label, model in models.items():
        for caps_label, caps in (("homo", HOMOGENEOUS),
                                 ("hetero", HETEROGENEOUS)):
            for policy in CLASS_ONE_POLICIES:
                for floor in (None, _floor(model, caps)):
                    plan = rod_place(model, caps, lower_bound=floor,
                                     class_one_policy=policy, seed=3)
                    lines.append(
                        f"{label} {caps_label} {policy} "
                        f"{floor is not None}: {plan.assignment}"
                    )
    return lines


def _rod_order_lines() -> List[str]:
    model = make_model(4, 16, seed=3)
    steps: list = []
    traced = rod_place(model, HETEROGENEOUS, steps=steps)
    reversed_order = rod_order(model)[::-1]
    reversed_plan = rod_place(model, HETEROGENEOUS, order=reversed_order)
    return (
        [f"traced: {traced.assignment}"]
        + [repr(step) for step in steps]
        + [f"reversed: {reversed_plan.assignment}"]
    )


def _rod_extend_lines() -> List[str]:
    old_model = build_load_model(_tree_graph())
    new_model = build_load_model(_grown_tree_graph())
    lines = []
    for caps_label, caps in (("homo", HOMOGENEOUS),
                             ("hetero", HETEROGENEOUS)):
        for policy in CLASS_ONE_POLICIES:
            for floored in (False, True):
                old_floor = _floor(old_model, caps) if floored else None
                new_floor = _floor(new_model, caps) if floored else None
                placement = rod_place(old_model, caps, lower_bound=old_floor)
                grown = rod_extend(placement, new_model,
                                   lower_bound=new_floor,
                                   class_one_policy=policy, seed=3)
                lines.append(
                    f"{caps_label} {policy} {floored}: {grown.assignment}"
                )
    return lines


def _hierarchical(seed: int) -> HierarchicalPlacer:
    return HierarchicalPlacer(group_size=8, refine_iterations=100,
                              samples=512, score_batch=16, seed=seed)


def _hierarchical_lines() -> List[str]:
    model = make_model(6, 32, seed=2)
    homogeneous = [1.0] * 48
    heterogeneous = [2.0 if i % 3 == 0 else 1.0 for i in range(48)]
    return [
        f"homo: {_hierarchical(5).place(model, homogeneous).assignment}",
        f"hetero: {_hierarchical(2).place(model, heterogeneous).assignment}",
    ]


def _plan_workload_lines() -> List[str]:
    # The benchmark's ``plan`` op at seed 1: graph seed 5, placer seed 6.
    plan = _hierarchical(6).place(make_model(6, 64, seed=5), [1.0] * 96)
    return [f"{plan.assignment}", repr(plan.volume_ratio(samples=4096))]


def _search_clusterings_lines() -> List[str]:
    model = build_load_model(monitoring_graph(3, seed=7))
    lines = []
    for floor in (None, _floor(model, (1.0, 1.0, 1.0))):
        result = search_clusterings(model, [1.0, 1.0, 1.0],
                                    transfer_costs=3e-4, lower_bound=floor)
        lines.append(
            f"{result.approach} {result.threshold} "
            f"{result.clustering.groups}: {result.placement.assignment}"
        )
    return lines


CASES: Dict[str, Callable[[], List[str]]] = {
    "rod_place": _rod_place_lines,
    "rod_order": _rod_order_lines,
    "rod_extend": _rod_extend_lines,
    "hierarchical": _hierarchical_lines,
    "plan_workload": _plan_workload_lines,
    "search_clusterings": _search_clusterings_lines,
}

PINS = {
    "hierarchical":
        "5cca5278507bd50b73277480ac395591bad1112e1a053ec4f5e22011778e6fb6",
    "plan_workload":
        "6ed54d80e844b577b372765100a10f1e7d0344898069f52219d3ed857b57882b",
    "rod_extend":
        "a1dfce693a5444687ce7415f7ef52224a37a365f8be4685b20a1052587d43b30",
    "rod_order":
        "621a9cdc974aa5ddfef17820b99ad7ae92197436c99a645e3884c3f0805f1d8e",
    "rod_place":
        "fa8a4513b7ee6deb06970a9e7110524164d1686a2bd57cd79d4f958da6364a5b",
    "search_clusterings":
        "71a0fec166104f0713b352a862a07c332de2f16d864b09c6deef6d875a08d546",
}


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("group", sorted(CASES))
def test_plans_match_their_pins(group):
    assert _digest(CASES[group]()) == PINS[group]
