import io
import math
import re

import pytest
from hypothesis import given, strategies as st

import muxlci.solver
from muxlci.diffusion import _ic_single, _layer_lt_propagate, _st_bars
from muxlci.experiment import single_layer_network
from muxlci.network import WEIGHT_EPS
from muxlci import (
    ActiveSet,
    DiffusionModel,
    GreedyConfig,
    InfluenceGraph,
    MultiplexNetwork,
    couple,
    ic_propagate,
    improved_greedy,
    lt_propagate,
    multiplex_lt_propagate,
    st_propagate,
    write_trace,
)

from conftest import make_layer, random_network, random_seed_users
from oracles import (
    bfs_reachable,
    naive_graph_lt,
    naive_multiplex_lt,
    reference_lt_propagate,
    reference_ic_propagate,
    reference_ic_single,
    reference_lt_rounds,
    reference_multiplex_lt_propagate,
    reference_st_propagate,
)


def chain_graph(names, weight=1.0, theta=0.5):
    edges = [(a, b, weight) for a, b in zip(names, names[1:])]
    return InfluenceGraph(names, edges, {n: theta for n in names})


def small_random_graph(seed, n=12, p=0.25):
    import random

    rng = random.Random(seed)
    names = [f"n{i}" for i in range(n)]
    edges = []
    for a in names:
        for b in names:
            if a != b and rng.random() < p:
                edges.append((a, b, rng.uniform(0.05, 1.0)))
    thetas = {n: rng.uniform(0.05, 1.0) for n in names}
    return InfluenceGraph(names, edges, thetas)


class TestLinearThreshold:
    def test_empty_seed_set(self):
        graph = chain_graph(["a", "b", "c"])
        outcome = lt_propagate(graph, set(), 3)
        assert outcome.active.members == set()
        assert outcome.coverage_count == 0

    def test_forced_chain_activation(self):
        graph = chain_graph(["a", "b", "c"])
        outcome = lt_propagate(graph, {"a"}, 2)
        assert outcome.active.members == {"a", "b", "c"}
        assert outcome.active.per_hop == [{"a"}, {"b"}, {"c"}]

    def test_hop_budget_cuts_cascade(self):
        graph = chain_graph(["a", "b", "c", "d"])
        outcome = lt_propagate(graph, {"a"}, 1)
        assert outcome.active.members == {"a", "b"}
        assert outcome.hops_used == 1

    def test_unknown_seed_rejected(self):
        graph = chain_graph(["a", "b"])
        with pytest.raises(ValueError, match="unknown seed"):
            lt_propagate(graph, {"zz"}, 1)

    def test_threshold_met_exactly_activates(self):
        graph = InfluenceGraph(["a", "v"], [("a", "v", 0.3)], {"a": 0.5, "v": 0.3})
        outcome = lt_propagate(graph, {"a"}, 1)
        assert "v" in outcome.active.members

    def test_partial_influence_accumulates_across_hops(self):
        # b arrives at hop 1, c at hop 2; v needs both.
        graph = InfluenceGraph(
            ["a", "b", "c", "v"],
            [("a", "b", 1.0), ("b", "c", 1.0), ("b", "v", 0.5), ("c", "v", 0.5)],
            {"a": 1.0, "b": 0.5, "c": 0.9, "v": 0.95},
        )
        outcome = lt_propagate(graph, {"a"}, 5)
        assert "v" in outcome.active.members
        assert outcome.active.per_hop[3] == {"v"}

    @given(st.integers(min_value=0, max_value=300))
    def test_matches_straight_line_oracle(self, seed):
        graph = small_random_graph(seed)
        outcome = lt_propagate(graph, {"n0", "n1"}, 4)
        assert outcome.active.members == naive_graph_lt(graph, {"n0", "n1"}, 4)

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=4))
    def test_monotone_in_seeds_and_hops(self, seed, hops):
        graph = small_random_graph(seed)
        small = lt_propagate(graph, {"n0"}, hops)
        bigger_seeds = lt_propagate(graph, {"n0", "n3"}, hops)
        more_hops = lt_propagate(graph, {"n0"}, hops + 1)
        assert small.active.members <= bigger_seeds.active.members
        assert small.active.members <= more_hops.active.members

    @given(st.integers(min_value=0, max_value=200))
    def test_per_hop_partitions_members(self, seed):
        graph = small_random_graph(seed)
        outcome = lt_propagate(graph, {"n0", "n5"}, 6)
        seen = set()
        for hop in outcome.active.per_hop:
            assert not (hop & seen)
            seen |= hop
        assert seen == outcome.active.members

    @given(st.integers(min_value=0, max_value=200))
    def test_quiescence_is_permanent(self, seed):
        graph = small_random_graph(seed)
        short = lt_propagate(graph, {"n0"}, 20)
        longer = lt_propagate(graph, {"n0"}, 40)
        assert short.active.members == longer.active.members
        assert short.active.per_hop == longer.active.per_hop

    def test_determinism_including_trace(self):
        graph = small_random_graph(99)
        a = lt_propagate(graph, {"n0", "n2"}, 5)
        b = lt_propagate(graph, {"n0", "n2"}, 5)
        assert a.active.per_hop == b.active.per_hop


class TestMultiplexLT:
    def test_single_layer_degenerates_to_graph_lt(self):
        network = random_network(5, max_users=25, max_layers=1)
        layer = network.layers[0]
        graph = InfluenceGraph(
            sorted(layer.nodes),
            [(u, v, w) for (u, v), w in sorted(layer.edges.items())],
            layer.thresholds,
        )
        seeds = random_seed_users(network, 5)
        direct = multiplex_lt_propagate(network, seeds, 3)
        single = lt_propagate(graph, seeds, 3)
        assert direct.active.members == single.active.members
        assert direct.active.per_hop == single.active.per_hop

    def test_one_easy_layer_activates_user(self):
        # eight in-neighbors at weight 0.1 each: one active neighbor meets
        # theta=0.1 in the easy layer even though the hard layer needs 7
        friends = [f"f{i}" for i in range(8)]
        easy = make_layer(
            1,
            {(f, "u"): 0.1 for f in friends},
            {**{f: 0.5 for f in friends}, "u": 0.1},
        )
        hard = make_layer(
            2,
            {(f, "u"): 0.1 for f in friends},
            {**{f: 0.5 for f in friends}, "u": 0.7},
        )
        network = MultiplexNetwork([easy, hard])
        outcome = multiplex_lt_propagate(network, {"f0"}, 1)
        assert "u" in outcome.active.members

    def test_activation_is_global_across_layers(self, two_layer_toy):
        # c activates in layer 2 via b+e, then influences e in layer 2
        # and would influence b in layer 1 if b were not already active
        outcome = multiplex_lt_propagate(two_layer_toy, {"b", "e"}, 2)
        assert "c" in outcome.active.members
        assert "e" in outcome.active.members

    def test_unknown_user_rejected(self, two_layer_toy):
        with pytest.raises(ValueError, match="unknown seed"):
            multiplex_lt_propagate(two_layer_toy, {"nope"}, 1)

    @given(st.integers(min_value=0, max_value=150))
    def test_matches_naive_recomputation(self, seed):
        network = random_network(seed, max_users=30)
        seeds = random_seed_users(network, seed)
        ours = multiplex_lt_propagate(network, seeds, 3)
        active, trace = naive_multiplex_lt(network, seeds, 3)
        assert ours.active.members == active
        assert [set(h) for h in ours.active.per_hop] == trace


class TestIndependentCascade:
    def test_weight_one_equals_bfs_reachability(self):
        graph = small_random_graph(3)
        ones = InfluenceGraph(
            graph.node_ids,
            [(graph.node_ids[u], graph.node_ids[v], 1.0)
             for u, targets in enumerate(graph.out) for v, _ in targets],
            {n: 0.5 for n in graph.node_ids},
        )
        model = DiffusionModel("independent_cascade", mc_samples=3, rng_seed=0)
        outcome = ic_propagate(ones, {"n0"}, 3, model)
        assert outcome.active.members == bfs_reachable(ones, {"n0"}, 3)
        assert outcome.coverage_count == len(outcome.active.members)

    def test_weight_zero_keeps_only_seeds(self):
        graph = InfluenceGraph(["a", "b"], [("a", "b", 0.0)], {"a": 0.5, "b": 0.5})
        model = DiffusionModel("independent_cascade", mc_samples=50, rng_seed=1)
        outcome = ic_propagate(graph, {"a"}, 3, model)
        assert outcome.active.members == {"a"}
        assert outcome.coverage_count == 1.0

    def test_single_edge_binomial_mean(self):
        graph = InfluenceGraph(["a", "b"], [("a", "b", 0.5)], {"a": 0.5, "b": 0.5})
        model = DiffusionModel("independent_cascade", mc_samples=10_000, rng_seed=7)
        outcome = ic_propagate(graph, {"a"}, 1, model)
        assert outcome.coverage_count == pytest.approx(1.5, abs=0.05)

    def test_same_seed_identical_outputs(self):
        graph = small_random_graph(11)
        model = DiffusionModel("independent_cascade", mc_samples=200, rng_seed=13)
        a = ic_propagate(graph, {"n0"}, 4, model)
        b = ic_propagate(graph, {"n0"}, 4, model)
        assert a.coverage_count == b.coverage_count
        assert a.active.per_hop == b.active.per_hop

    def test_wrong_model_kind_rejected(self):
        graph = chain_graph(["a", "b"])
        with pytest.raises(ValueError, match="independent_cascade"):
            ic_propagate(graph, {"a"}, 1, DiffusionModel("linear_threshold"))


class TestStochasticThreshold:
    def test_single_isolated_node_always_covered(self):
        graph = InfluenceGraph(["a"], [], {"a": 0.9})
        model = DiffusionModel("stochastic_threshold", mc_samples=20, rng_seed=0)
        outcome = st_propagate(graph, {"a"}, 2, model)
        assert outcome.coverage_count == 1.0

    def test_tiny_bounds_approach_reachability(self):
        graph = small_random_graph(17)
        model = DiffusionModel("stochastic_threshold", mc_samples=40, rng_seed=3,
                               st_bounds=1e-12)
        outcome = st_propagate(graph, {"n0"}, 4, model)
        assert outcome.active.members == bfs_reachable(graph, {"n0"}, 4)

    def test_star_expected_activations(self):
        leaves = [f"l{i}" for i in range(5)]
        graph = InfluenceGraph(
            ["c"] + leaves,
            [("c", leaf, 0.4) for leaf in leaves],
            {**{leaf: 0.8 for leaf in leaves}, "c": 0.8},
        )
        model = DiffusionModel("stochastic_threshold", mc_samples=10_000, rng_seed=5)
        outcome = st_propagate(graph, {"c"}, 1, model)
        # each leaf draws theta ~ U(0, 0.8]; activation prob 0.4/0.8
        assert outcome.coverage_count - 1.0 == pytest.approx(2.5, abs=0.1)

    def test_same_seed_identical_outputs(self):
        graph = small_random_graph(23)
        model = DiffusionModel("stochastic_threshold", mc_samples=100, rng_seed=29)
        a = st_propagate(graph, {"n0", "n1"}, 3, model)
        b = st_propagate(graph, {"n0", "n1"}, 3, model)
        assert a.coverage_count == b.coverage_count

    def test_bound_validation(self):
        # st_bounds is one number or None, checked when the model is built
        for bounds in (1.5, {}, {"a": 0.5}):
            with pytest.raises(ValueError, match=rf"^st_bounds must be a number in \(0, 1\], not {re.escape(repr(bounds))}$"):
                DiffusionModel("stochastic_threshold", mc_samples=2, st_bounds=bounds)

    def test_threshold_outside_unit_interval_raises(self):
        # with no st_bounds each node's threshold is its bound, and must be in (0, 1]
        graph = InfluenceGraph(["a", "b"], [("a", "b", 0.5)], {"a": 0.5, "b": 1.5})
        model = DiffusionModel("stochastic_threshold", mc_samples=2)
        with pytest.raises(ValueError, match=r"^stochastic threshold bound for 'b' outside \(0, 1\]: 1\.5$"):
            st_propagate(graph, {"a"}, 1, model)


def test_concurrent_runs_share_one_graph():
    # propagation keeps scratch state per call, so one graph instance
    # serves parallel simulations unchanged
    from concurrent.futures import ThreadPoolExecutor

    graph = small_random_graph(57, n=30, p=0.15)
    jobs = [({f"n{i}", f"n{i+1}"}, 1 + i % 4) for i in range(20)]
    serial = [lt_propagate(graph, seeds, hops).active.members for seeds, hops in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda job: lt_propagate(graph, job[0], job[1]).active.members, jobs))
    assert parallel == serial


def test_trace_export_format():
    graph = chain_graph(["a", "b", "c"])
    outcome = lt_propagate(graph, {"a"}, 2)
    buffer = io.StringIO()
    write_trace(outcome, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "hop,node_id,node_kind"
    assert lines[1] == "0,a,user"
    assert lines[2] == "1,b,user"
    assert lines[3] == "2,c,user"


def corner_graph(seed):
    """Random graph for the kernel differential test: zero-weight edges,
    isolated nodes, integer node weights, in-weight sums at most 1, and
    most thresholds set exactly to a prefix sum of a node's in-weights in
    source-index order, so the hop sum can land exactly on the bar."""
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 14)
    names = [f"n{i}" for i in range(n)]
    p = rng.uniform(0.1, 0.6)
    raw = {}
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < p:
                raw[(a, b)] = rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()])
    incoming = {b: [(a, w) for (a, bb), w in sorted(raw.items()) if bb == b] for b in range(n)}
    edges, thetas = [], {}
    for b in range(n):
        scale = max(1.0, sum(w for _, w in incoming[b]))
        weights = [w / scale for _, w in incoming[b]]
        edges += [(names[a], names[b], w) for (a, _), w in zip(incoming[b], weights)]
        prefix = sum(weights[:rng.randint(1, len(weights))]) if weights else 0.0
        thetas[names[b]] = prefix if 0.0 < prefix <= 1.0 and rng.random() < 0.7 else 1.0 - rng.random()
    names.append("iso")
    thetas["iso"] = 1.0 - rng.random()
    node_weights = {u: float(rng.randint(0, 3)) for u in names}
    seeds = set(rng.sample(names, rng.randint(0, min(3, n))))
    return InfluenceGraph(names, edges, thetas, node_weights), seeds


def fractional_weights(graph, rng):
    """``graph`` with its node weights redrawn from non-integral values."""
    edges, thetas, _ = TestGraphPreconditions.parts(graph)
    weights = {u: rng.choice([0.1, 0.2, 0.3, 1.0, 2.5]) for u in graph.node_ids}
    return InfluenceGraph(graph.node_ids, edges, thetas, weights)


def with_node_weights(graph, kind, rng):
    """``graph`` with the node weights of ``kind``: "integer" keeps
    corner_graph's, "unit" sets every one to 1.0 (the count-only tally)
    and "fractional" redraws them by :func:`fractional_weights`."""
    if kind == "fractional":
        return fractional_weights(graph, rng)
    if kind == "unit":
        edges, thetas, _ = TestGraphPreconditions.parts(graph)
        graph = InfluenceGraph(graph.node_ids, edges, thetas)
        assert graph._unit_weights
    return graph


NODE_WEIGHTS = ["integer", "unit", "fractional"]


def corner_multiplex(seed):
    """Random multiplex for the kernel differential test: one to three
    layers over random subsets of the users (so some users join one
    layer only), zero-weight edges, edges stored in random order,
    in-weight sums at most 1, and most thresholds set exactly to a
    prefix sum of a user's in-weights in source-id order, so a hop sum
    can land exactly on the bar.  Returns the network and a seed set,
    possibly empty."""
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 12)
    users = [f"u{i:02d}" for i in range(n)]
    layers = []
    for index in range(1, rng.randint(1, 3) + 1):
        nodes = rng.sample(users, rng.randint(1, n))
        p = rng.uniform(0.1, 0.7)
        raw = [(a, b, rng.choice([0.0, 0.25, 0.5, 1.0, rng.random()]))
               for a in nodes for b in nodes if a != b and rng.random() < p]
        edges, thetas = [], {}
        for b in nodes:
            incoming = sorted((a, w) for a, bb, w in raw if bb == b)
            scale = max(1.0, sum(w for _, w in incoming))
            weights = [w / scale for _, w in incoming]
            edges += [((a, b), w) for (a, _), w in zip(incoming, weights)]
            prefix = sum(weights[:rng.randint(1, len(weights))]) if weights else 0.0
            thetas[b] = prefix if 0.0 < prefix <= 1.0 and rng.random() < 0.7 else 1.0 - rng.random()
        rng.shuffle(edges)
        layers.append(make_layer(index, dict(edges), thetas))
    network = MultiplexNetwork(layers)
    seeds = set(rng.sample(sorted(network.universe), rng.randint(0, min(3, len(network.universe)))))
    return network, seeds


def assert_same_outcome(ours, reference):
    assert ours.active.per_hop == reference.active.per_hop
    assert ours.active.members == reference.active.members
    assert ours.hops_used == reference.hops_used
    assert ours.coverage_count == reference.coverage_count
    assert ours.coverage_weight == reference.coverage_weight
    # an empty run's weight is the int 0 of an empty sum on both sides
    assert type(ours.coverage_weight) is type(reference.coverage_weight)


class TestKernelMatchesReference:
    """The activate-on-crossing sweep and the lazy outcome equal the
    eager touched-set sweep exactly, and both Monte Carlo engines equal
    their written-out loops."""

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=5),
           st.sampled_from(NODE_WEIGHTS))
    def test_lt_propagate_exact(self, seed, hops, weights):
        import random

        graph, seeds = corner_graph(seed)
        graph = with_node_weights(graph, weights, random.Random(seed))
        assert_same_outcome(lt_propagate(graph, seeds, hops), reference_lt_propagate(graph, seeds, hops))

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=5),
           st.sampled_from([None, 0.5, 1.0]), st.sampled_from(NODE_WEIGHTS))
    def test_st_propagate_exact(self, seed, hops, bounds, weights):
        import random

        graph, seeds = corner_graph(seed)
        graph = with_node_weights(graph, weights, random.Random(seed))
        model = DiffusionModel("stochastic_threshold", mc_samples=5, rng_seed=seed, st_bounds=bounds)
        assert_same_outcome(st_propagate(graph, seeds, hops, model),
                            reference_st_propagate(graph, seeds, hops, model))

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=5),
           st.integers(min_value=1, max_value=6), st.sampled_from(NODE_WEIGHTS))
    def test_ic_propagate_exact(self, seed, hops, samples, weights):
        import random

        graph, seeds = corner_graph(seed)
        graph = with_node_weights(graph, weights, random.Random(seed))
        model = DiffusionModel("independent_cascade", mc_samples=samples, rng_seed=seed)
        assert_same_outcome(ic_propagate(graph, seeds, hops, model),
                            reference_ic_propagate(graph, seeds, hops, model))

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=5),
           st.booleans())
    def test_lazy_active_set_equals_eager(self, seed, hops, members_first):
        # the id sets built on first read, in either order, equal those
        # mapped from the index lists at once
        graph, seeds = corner_graph(seed)
        per_hop_idx, _ = reference_lt_rounds(graph, sorted(graph.index[u] for u in seeds), hops, graph.theta)
        per_hop = [{graph.node_ids[i] for i in hop} for hop in per_hop_idx]
        members = set().union(*per_hop)
        lazy = ActiveSet.from_indices(per_hop_idx, graph.node_ids)
        if members_first:
            assert lazy.members == members
        assert lazy.per_hop == per_hop and lazy.members == members
        assert lazy == ActiveSet.from_indices([list(hop) for hop in per_hop_idx], graph.node_ids)

    def test_empty_active_sets_agree(self):
        empty = ActiveSet.from_indices([], ("a",))
        assert empty.members == set() and empty.per_hop == []
        assert empty == ActiveSet.from_indices([], ("b",))
        assert ActiveSet.from_indices([[]], ("a",)) != empty


    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=4))
    def test_multiplex_lt_propagate_exact(self, seed, hops):
        network, seeds = corner_multiplex(seed)
        ours = multiplex_lt_propagate(network, seeds, hops)
        assert_same_outcome(ours, reference_multiplex_lt_propagate(network, seeds, hops))
        # a second call reuses the network's index and agrees
        assert_same_outcome(multiplex_lt_propagate(network, seeds, hops), ours)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=4))
    def test_restricted_run_exact(self, seed, hops):
        # one layer over the whole network's index runs like a standalone
        # single-layer network of that layer
        network, seeds = corner_multiplex(seed)
        for layer in network.layers:
            local = seeds & layer.nodes
            ours = _layer_lt_propagate(network, layer.layer_index, local, hops)
            alone = reference_multiplex_lt_propagate(single_layer_network(layer), local, hops)
            assert_same_outcome(ours, alone)


def delta_case(seed, hops, added, fractional):
    """A corner graph (node weights made non-integral when
    ``fractional``), its seeds' run as the base, and the joint seed set:
    the base seeds plus one or two ``added`` nodes: random ones, a node
    the base activated (at its last hop when it can), or the base's
    whole last level, whose run then ends earlier than the base's
    unless a seed reaches that far again."""
    import random

    graph, seeds = corner_graph(seed)
    rng = random.Random(seed)
    if fractional:
        graph = fractional_weights(graph, rng)
    base = lt_propagate(graph, seeds, hops)
    reached = base.active.per_hop[1:]
    if added == "random" or not reached:
        extra = set(rng.sample(graph.node_ids, rng.randint(1, min(2, len(graph)))))
    elif added == "active":
        extra = {rng.choice(sorted(reached[-1] if rng.random() < 0.5 else set().union(*reached)))}
    else:
        extra = set(reached[-1])
    return graph, base, seeds | extra


def out_of_order_case(seed):
    """A target v whose in-neighbours x0..x(m-1) are the joint seeds
    ("early", with x(m-1) among them) or activate at hop 1 from seed s
    ("late", all before x(m-1) by index), with random fractional weights.
    v's threshold is set so that its bar equals, exactly, the sum of its
    in-weights in the order the full run adds them: early then late, each
    by index.  Returns the graph, the base seeds (s and a proper subset of
    the early nodes) and the joint seeds (s and every early node)."""
    import random

    rng = random.Random(seed)
    m = rng.randint(3, 7)
    xs = [f"x{i}" for i in range(m)]
    late = sorted(rng.sample(range(m - 1), rng.randint(1, m - 2)))
    early = [i for i in range(m) if i not in late]
    weights = [rng.uniform(0.01, 1.0) for _ in xs]
    total = 0.0
    for i in early + late:
        total += weights[i]
    theta = total + WEIGHT_EPS
    while theta - WEIGHT_EPS < total:
        theta = math.nextafter(theta, math.inf)
    while theta - WEIGHT_EPS > total:
        theta = math.nextafter(theta, -math.inf)
    edges = [(x, "v", w) for x, w in zip(xs, weights)] + [("s", xs[i], 1.0) for i in late] + [("v", "y", 1.0)]
    graph = InfluenceGraph([*xs, "v", "y", "s"], edges, {**dict.fromkeys(xs, 0.5), "v": theta, "y": 0.5, "s": 0.5})
    assert graph.bar[graph.index["v"]] == total
    kept = rng.sample(early, rng.randint(0, len(early) - 1))
    return graph, {"s", *(xs[i] for i in kept)}, {"s", *(xs[i] for i in early)}


class TestDeltaMatchesFullRun:
    """A run started from a base outcome equals the run without one in
    every field, with no tolerance."""

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=6),
           st.sampled_from(["random", "active", "last-level"]), st.booleans())
    def test_delta_equals_full_run(self, seed, hops, added, fractional):
        graph, base, seeds = delta_case(seed, hops, added, fractional)
        delta = lt_propagate(graph, seeds, hops, base=base)
        full = lt_propagate(graph, seeds, hops)
        assert_same_outcome(delta, full)
        if not fractional:
            # the reference sums weights in id-set order, exact for whole weights only
            assert_same_outcome(delta, reference_lt_propagate(graph, seeds, hops))
        # a delta outcome serves as a base in turn
        more = seeds | {graph.node_ids[seed % len(graph)]}
        assert_same_outcome(lt_propagate(graph, more, hops, base=delta), lt_propagate(graph, more, hops))

    def test_same_seeds_give_the_base(self):
        graph = small_random_graph(7)
        base = lt_propagate(graph, {"n0", "n4"}, 4)
        assert_same_outcome(lt_propagate(graph, {"n0", "n4"}, 4, base=base), base)

    def test_run_ends_earlier_than_its_base(self):
        # seeding the base's last active node ends the joint run a hop earlier
        graph = chain_graph(["a", "b", "c"])
        base = lt_propagate(graph, {"a"}, 2)
        joint = lt_propagate(graph, {"a", "c"}, 2, base=base)
        assert base.hops_used == 2 and joint.hops_used == 1
        assert joint.active.per_hop == [{"a", "c"}, {"b"}]
        assert_same_outcome(joint, lt_propagate(graph, {"a", "c"}, 2))

    def test_budget_far_past_the_node_count(self):
        # a run adds no node after hop n - |seeds|, so the delta works to
        # hop n at most; its outcome still serves as a base at the
        # caller's budget, and only there
        hops = 10 ** 7
        graph = chain_graph([f"c{i}" for i in range(30)])
        base = lt_propagate(graph, {"c0"}, hops)
        joint = lt_propagate(graph, {"c0", "c10"}, hops, base=base)
        assert joint.hops_used == 19
        assert_same_outcome(joint, lt_propagate(graph, {"c0", "c10"}, hops))
        more = {"c0", "c10", "c25"}
        assert_same_outcome(lt_propagate(graph, more, hops, base=joint), lt_propagate(graph, more, hops))
        with pytest.raises(ValueError, match=f"base ran {hops} hops, not 30"):
            lt_propagate(graph, more, 30, base=joint)

    def test_resummed_float_falling_short_of_the_base(self):
        # v's in-weights sum to 0.35000000000000003 in the base's order
        # (x1, x2 at hop 0, then x0 at hop 1) but to 0.35 once x0 is a
        # seed, and its bar lies between: v and y activate in the base
        # and in neither run from the joint seeds
        graph = InfluenceGraph(
            ["x0", "x1", "x2", "v", "y"],
            [("x1", "x0", 1.0), ("x0", "v", 0.2), ("x1", "v", 0.05), ("x2", "v", 0.1), ("v", "y", 1.0)],
            {"x0": 0.5, "x1": 0.5, "x2": 0.5, "v": 0.350000000001, "y": 0.5},
        )
        base = lt_propagate(graph, {"x1", "x2"}, 3)
        assert base.active.per_hop == [{"x1", "x2"}, {"x0"}, {"v"}, {"y"}]
        joint = lt_propagate(graph, {"x0", "x1", "x2"}, 3, base=base)
        assert joint.active.per_hop == [{"x0", "x1", "x2"}]
        assert_same_outcome(joint, lt_propagate(graph, {"x0", "x1", "x2"}, 3))

    def test_recheck_sums_by_hop_when_sources_activate_out_of_index_order(self):
        # v's in-neighbours a, b, c (by index) activate at hops 1, 0, 0 in
        # the joint run, so the run sums 0.2 + 0.1 + 0.3 = 0.6000000000000001
        # where index order gives 0.3 + 0.2 + 0.1 = 0.6, and v's bar is
        # 0.6000000000000001: the re-check must sort by hop to activate v
        graph = InfluenceGraph(
            ["a", "b", "c", "v", "s"],
            [("s", "a", 1.0), ("a", "v", 0.3), ("b", "v", 0.2), ("c", "v", 0.1)],
            {"a": 0.5, "b": 0.5, "c": 0.5, "v": 0.6000000000010001, "s": 0.5},
        )
        assert graph.bar[graph.index["v"]] == 0.2 + 0.1 + 0.3 > 0.3 + 0.2 + 0.1
        base = lt_propagate(graph, {"s", "b"}, 3)
        assert base.active.members == {"s", "b", "a"}
        joint = lt_propagate(graph, {"s", "b", "c"}, 3, base=base)
        assert joint.active.per_hop == [{"s", "b", "c"}, {"a"}, {"v"}]
        assert_same_outcome(joint, lt_propagate(graph, {"s", "b", "c"}, 3))

    @given(st.integers(min_value=0, max_value=10_000))
    def test_recheck_at_a_bar_equal_to_the_hop_ordered_sum(self, seed):
        # the hand-built case above, over random in-weight sets: v's
        # in-neighbours x0..x(m-1) are joint seeds ("early", x(m-1) among
        # them) or activate at hop 1 through s ("late", all before
        # x(m-1) by index), and v's bar is exactly their sum in (hop,
        # index) order, so a re-check that sums in index order alone
        # misses v whenever that order rounds lower
        graph, base_seeds, seeds = out_of_order_case(seed)
        base = lt_propagate(graph, base_seeds, 3)
        joint = lt_propagate(graph, seeds, 3, base=base)
        assert "v" in joint.active.per_hop[2]
        assert_same_outcome(joint, lt_propagate(graph, seeds, 3))

    def test_unfit_base_rejected(self):
        graph = small_random_graph(3)
        base = lt_propagate(graph, {"n0", "n1"}, 3)
        with pytest.raises(ValueError, match="same graph"):
            lt_propagate(small_random_graph(3), {"n0", "n1", "n2"}, 3, base=base)
        with pytest.raises(ValueError, match="base ran 3 hops, not 4"):
            lt_propagate(graph, {"n0", "n1", "n2"}, 4, base=base)
        with pytest.raises(ValueError, match="subset"):
            lt_propagate(graph, {"n0", "n2"}, 3, base=base)
        model = DiffusionModel("stochastic_threshold", mc_samples=2)
        with pytest.raises(ValueError, match="lt_propagate outcome"):
            lt_propagate(graph, {"n0", "n1", "n2"}, 3, base=st_propagate(graph, {"n0"}, 3, model))


class TestMonteCarloMatchesReference:
    """st_propagate, with or without drawn bars, and the marked-hop IC
    loop give exactly the outcomes of the reference engines."""

    @given(st.integers(min_value=0, max_value=10_000))
    def test_st_call_sequence_exact(self, seed):
        # st_propagate keeps no state between calls: twenty calls over two
        # interleaved graphs that vary the seed set, rng seed, sample count,
        # hops and bounds, or repeat the graph's last model, each equal the
        # reference
        import random

        rng = random.Random(seed)
        graphs = [corner_graph(seed)[0], corner_graph(seed + 1)[0]]
        last = [None, None]
        for _ in range(20):
            which = rng.randint(0, 1)
            graph = graphs[which]
            kind = rng.choice(["repeat", "none", "float"])
            if kind == "repeat" and last[which] is not None:
                model = last[which]
            else:
                bounds = rng.choice([0.01, 0.25, 0.5, 1.0, 1.0 - rng.random()]) if kind == "float" else None
                model = DiffusionModel("stochastic_threshold", mc_samples=rng.randint(2, 3),
                                       rng_seed=rng.randint(0, 1), st_bounds=bounds)
            last[which] = model
            seeds = set(rng.sample(graph.node_ids, rng.randint(1, min(3, len(graph)))))
            hops = rng.randint(1, 4)
            assert_same_outcome(st_propagate(graph, seeds, hops, model),
                                reference_st_propagate(graph, seeds, hops, model))

    @pytest.mark.parametrize("st_bounds", [None, 0.5])
    def test_drawn_bars_give_the_same_outcome(self, st_bounds):
        graph = small_random_graph(5)
        model = DiffusionModel("stochastic_threshold", mc_samples=4, rng_seed=2, st_bounds=st_bounds)
        bars = list(_st_bars(graph, model))
        assert len(bars) == 4
        for seeds in ({"n0"}, {"n1"}, {"n2", "n3"}):
            ours = st_propagate(graph, seeds, 2, model, bars=bars)
            assert_same_outcome(ours, st_propagate(graph, seeds, 2, model))
            assert_same_outcome(ours, reference_st_propagate(graph, seeds, 2, model, bars=bars))

    def test_ic_node_hit_twice_in_one_hop_consumes_both_draws(self):
        # c is hit from a (weight 1) and then tried from b in the same hop;
        # b's draw for c must still be taken before b's draw for d
        graph = InfluenceGraph(["a", "b", "c", "d", "e"],
                               [("a", "c", 1.0), ("b", "c", 0.5), ("b", "d", 0.5), ("c", "e", 0.5)],
                               {u: 0.5 for u in "abcde"})
        for rng_seed in range(20):
            model = DiffusionModel("independent_cascade", mc_samples=30, rng_seed=rng_seed)
            assert_same_outcome(ic_propagate(graph, {"a", "b"}, 2, model),
                                reference_ic_propagate(graph, {"a", "b"}, 2, model))

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=5))
    def test_ic_single_leaves_the_stream_where_the_reference_does(self, seed, hops):
        # three samples in turn from one generator each: the same traces,
        # and the generators end in the same state
        import random

        graph, seeds = corner_graph(seed)
        seed_idx = sorted(graph.index[u] for u in seeds)
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert _ic_single(graph, seed_idx, hops, ours.random) == reference_ic_single(graph, seed_idx, hops, theirs)
        assert ours.getstate() == theirs.getstate()
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("draws, per_hop", [
        # a hits c, b's edge into c only draws, b hits d; at hop 2, d's
        # edge into c (committed at hop 1) takes no draw and c hits e
        ([0.1, 0.1, 0.1, 0.1], [[0, 1], [2, 3], [4]]),
        # a misses c and b's edge into c hits it after all; b misses d
        # and c misses e
        ([0.9, 0.1, 0.9, 0.9], [[0, 1], [2]]),
    ])
    def test_ic_edges_into_one_node_in_one_hop(self, draws, per_hop):
        graph = InfluenceGraph(["a", "b", "c", "d", "e"],
                               [("a", "c", 0.5), ("b", "c", 0.5), ("b", "d", 0.5), ("c", "e", 0.5), ("d", "c", 0.5)],
                               {u: 0.5 for u in "abcde"})

        class Scripted:
            def __init__(self):
                self.left = list(draws)

            def random(self):
                return self.left.pop(0)

        ours, theirs = Scripted(), Scripted()
        assert _ic_single(graph, [0, 1], 3, ours.random) == (per_hop, len(per_hop) - 1)
        assert reference_ic_single(graph, [0, 1], 3, theirs) == (per_hop, len(per_hop) - 1)
        assert ours.left == theirs.left == []

    @pytest.mark.parametrize("kind, scheme, name, reference", [
        ("stochastic_threshold", "reduced-clique", "st_propagate", reference_st_propagate),
        ("independent_cascade", "clique", "ic_propagate", reference_ic_propagate),
    ])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_greedy_matches_reference_engine(self, monkeypatch, kind, scheme, name, reference, seed):
        network = random_network(seed, max_users=25, max_layers=2)
        coupled = couple(network, scheme, model_kind=kind)
        cfg = GreedyConfig(0.5, 3, model=DiffusionModel(kind, mc_samples=8, rng_seed=seed))
        ours = improved_greedy(coupled, cfg)
        monkeypatch.setattr(muxlci.solver, name, reference)
        theirs = improved_greedy(coupled, cfg)
        assert ours.users == theirs.users
        assert ours.gains == theirs.gains
        assert ours.achieved_fraction == theirs.achieved_fraction


class TestGraphPreconditions:
    """InfluenceGraph rejects input the LT sweep cannot handle."""

    @staticmethod
    def parts(graph):
        edges = [(graph.node_ids[u], graph.node_ids[v], w)
                 for u, targets in enumerate(graph.out) for v, w in targets]
        return edges, dict(zip(graph.node_ids, graph.theta)), dict(zip(graph.node_ids, graph.node_weight))

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([math.nan, math.inf, -math.inf]),
           st.booleans())
    def test_non_finite_node_value_rejected(self, seed, bad, on_threshold):
        graph, _ = corner_graph(seed)
        edges, thetas, weights = self.parts(graph)
        (thetas if on_threshold else weights)[graph.node_ids[-1]] = bad
        with pytest.raises(ValueError, match="must be finite"):
            InfluenceGraph(graph.node_ids, edges, thetas, weights)

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([math.nan, math.inf, -math.inf, -0.25, -5e-324]))
    def test_bad_edge_weight_rejected(self, seed, bad):
        graph, _ = corner_graph(seed)
        edges, thetas, weights = self.parts(graph)
        thetas["src"] = 0.5
        edges.append(("src", graph.node_ids[-1], bad))
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            InfluenceGraph(list(thetas), edges, thetas, weights)

    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_unknown_endpoint_rejected(self, seed, at_src):
        graph, _ = corner_graph(seed)
        thetas = dict(zip(graph.node_ids, graph.theta))
        edge = ("zz", graph.node_ids[0], 0.5) if at_src else (graph.node_ids[0], "zz", 0.5)
        with pytest.raises(ValueError, match="endpoint 'zz' is not a node"):
            InfluenceGraph(list(thetas), [edge], thetas)


    @pytest.mark.parametrize("edges, message", [
        ([("a", "b", 0.5), ("c", "b", 0.5), ("a", "b", 0.25)], "duplicate edge 'a'->'b'"),
        ([("b", "c", 0.5), ("a", "a", 0.5)], "self-loop on 'a'"),
        ([("a", "b", 0.5), ("c", "zz", 0.5)], "edge 'c'->'zz': endpoint 'zz' is not a node"),
        ([("a", "b", 0.5), ("c", "a", -0.5)], "edge 'c'->'a': weight -0.5 must be finite and >= 0"),
        ([("c", "b", math.nan)], "edge 'c'->'b': weight nan must be finite and >= 0"),
    ])
    def test_edge_fault_message(self, edges, message):
        thetas = {"a": 0.5, "b": 0.5, "c": 0.5}
        with pytest.raises(ValueError) as raised:
            InfluenceGraph(list(thetas), edges, thetas)
        assert str(raised.value) == message
        if "zz" not in message:
            index = {u: i for i, u in enumerate(thetas)}
            out = [[] for _ in thetas]
            for src, dst, weight in edges:
                out[index[src]].append((index[dst], weight))
            with pytest.raises(ValueError) as raised:
                InfluenceGraph._check(tuple(thetas), list(thetas.values()), [1.0] * 3, out)
            assert str(raised.value) == message


class TestMultiplexIndexPreconditions:
    """The multiplex index rejects layers the LT sweep cannot handle and
    names the layer and the edge or user."""

    @pytest.mark.parametrize("weight", [None, -0.25, -5e-324, math.nan, math.inf])
    def test_bad_edge_weight_rejected(self, two_layer_toy, weight):
        two_layer_toy.layers[1].edges[("e", "c")] = weight
        message = {None: "has unset weight", -0.25: "is negative", -5e-324: "is negative"}.get(weight, "is not finite")
        with pytest.raises(ValueError, match=f"layer 2: edge 'e'->'c' .*{message}"):
            multiplex_lt_propagate(two_layer_toy, {"b"}, 2)

    @pytest.mark.parametrize("theta", [None, math.nan, -math.inf])
    def test_bad_threshold_rejected(self, two_layer_toy, theta):
        if theta is None:
            del two_layer_toy.layers[0].thresholds["b"]
        else:
            two_layer_toy.layers[0].thresholds["b"] = theta
        message = "missing threshold" if theta is None else "is not finite"
        with pytest.raises(ValueError, match=f"layer 1: node 'b' .*{message}"):
            multiplex_lt_propagate(two_layer_toy, {"a"}, 2)

    def test_endpoint_outside_layer_rejected(self, two_layer_toy):
        two_layer_toy.layers[1].edges[("a", "e")] = 0.5
        with pytest.raises(ValueError, match="layer 2: edge 'a'->'e' endpoint outside node set"):
            multiplex_lt_propagate(two_layer_toy, {"a"}, 2)

    def test_index_built_once(self, two_layer_toy):
        def derived():
            net = two_layer_toy
            return net.users, net.position, net.overlap, net.lt_layers

        multiplex_lt_propagate(two_layer_toy, {"b"}, 2)
        built = derived()
        multiplex_lt_propagate(two_layer_toy, {"e"}, 2)
        assert all(a is b for a, b in zip(built, derived()))
        assert built[0] == ("a", "b", "c", "d", "e") and built[2] == {"b", "c"}
