import dataclasses
import os
import random

import pytest
from hypothesis import HealthCheck, settings

from muxlci import InfluenceGraph, LayerGraph, MultiplexNetwork, SynthSpec, couple, generate, network

# "suite" is the default; HYPOTHESIS_PROFILE=deep runs ten times the examples
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("deep", settings.get_profile("suite"), max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))


def count_rule_book(monkeypatch):
    """The layer indices that ``network._layer_faults`` is run on, from now on."""
    checked, rule_book = [], network._layer_faults

    def counted(layer):
        checked.append(layer.layer_index)
        return rule_book(layer)

    monkeypatch.setattr(network, "_layer_faults", counted)
    return checked


def half_weight_sync(network, scheme, model_kind="linear_threshold"):
    """``couple`` with every sync edge (one that joins two nodes of the
    same user) at half its weight, which is half its target's threshold
    under linear threshold: a broken lossless coupling."""
    coupled = couple(network, scheme, model_kind=model_kind)
    graph, kinds = coupled.graph, coupled.kinds
    ids = graph.node_ids
    edges = [(ids[iu], ids[iv], w / 2 if kinds[ids[iu]].user == kinds[ids[iv]].user else w)
             for iu, targets in enumerate(graph.out) for iv, w in targets]
    half = InfluenceGraph(ids, edges, dict(zip(ids, graph.theta)), dict(zip(ids, graph.node_weight)))
    return dataclasses.replace(coupled, graph=half)


def make_layer(index, edges, thetas):
    """LayerGraph from {(u,v): w} and {u: theta}; nodes inferred."""
    nodes = set(thetas)
    for (u, v) in edges:
        nodes.add(u)
        nodes.add(v)
    return LayerGraph(index, nodes, dict(edges), dict(thetas))


def random_network(seed, max_users=50, max_layers=3):
    """Seeded random multiplex instance for equivalence corpora."""
    rng = random.Random(seed)
    n = rng.randint(4, max_users)
    k = rng.randint(1, max_layers)
    per_layer = [
        (max(2, int(n * rng.uniform(0.5, 1.0))), rng.uniform(0.02, 0.2))
        for _ in range(k)
    ]
    return generate(SynthSpec(n, per_layer, None, seed))


def random_seed_users(network, seed, max_size=5):
    rng = random.Random(seed * 31 + 7)
    users = sorted(network.universe)
    size = rng.randint(1, min(max_size, len(users)))
    return set(rng.sample(users, size))


@pytest.fixture
def two_layer_toy():
    """Two 4-user layers sharing users b and c; weights sum to 1 per target."""
    layer1 = make_layer(
        1,
        {("a", "b"): 0.6, ("c", "b"): 0.4, ("b", "c"): 1.0, ("a", "d"): 1.0},
        {"a": 0.5, "b": 0.5, "c": 0.7, "d": 0.9},
    )
    layer2 = make_layer(
        2,
        {("b", "c"): 0.5, ("e", "c"): 0.5, ("c", "e"): 1.0},
        {"b": 0.4, "c": 0.3, "e": 0.6},
    )
    return MultiplexNetwork([layer1, layer2])


@pytest.fixture
def four_user_three_layer():
    """Four users over three layers, one user in two of them."""
    layer1 = make_layer(
        1,
        {("red", "blue"): 1.0, ("blue", "red"): 1.0},
        {"red": 0.4, "blue": 0.6},
    )
    layer2 = make_layer(
        2,
        {("green", "yellow"): 1.0, ("yellow", "green"): 0.5, ("blue", "green"): 0.5},
        {"green": 0.3, "yellow": 0.8, "blue": 0.2},
    )
    layer3 = make_layer(
        3,
        {("green", "red"): 1.0},
        {"green": 0.2, "red": 0.5},
    )
    return MultiplexNetwork([layer1, layer2, layer3])
