import functools
import io
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from muxlci import (
    COUPLING_SCHEMES,
    GreedyConfig,
    LayerGraph,
    MultiplexNetwork,
    SynthSpec,
    couple,
    generate,
    improved_greedy,
    lt_propagate,
    multiplex_lt_propagate,
    read_coupled,
    write_coupled,
)

from muxlci.coupling import ALPHA_FLOOR, _layer_alphas

from conftest import make_layer, random_network, random_seed_users
from oracles import (
    naive_easiness,
    naive_involvement,
    naive_lossy_fold,
    reference_couple_clique_lossless,
    reference_couple_reduced,
    reference_couple_star_lossless,
    reference_read_coupled,
)


def layer_edge_total(network):
    return sum(len(layer.edges) for layer in network.layers)


def edge_count(graph):
    return sum(len(targets) for targets in graph.out)


def written(coupled):
    """(edge lines, manifest rows) that ``write_coupled`` writes for a coupling."""
    edges_buf, manifest_buf = io.StringIO(), io.StringIO()
    write_coupled(coupled, edges_buf, manifest_buf)
    return edges_buf.getvalue().splitlines(), manifest_buf.getvalue().splitlines()


def same_rejection(edge_lines, rows):
    """The ValueError message of ``read_coupled``, checked equal to the
    two-pass reference reader's."""
    with pytest.raises(ValueError) as ours:
        read_coupled(edge_lines, rows)
    with pytest.raises(ValueError) as theirs:
        reference_read_coupled(edge_lines, rows)
    assert str(ours.value) == str(theirs.value)
    return str(ours.value)


def lossless_expected_nodes(network, active_users, with_hub):
    expected = set()
    for user in active_users:
        expected.add(user + "@g")
        for i in range(1, network.k + 1):
            expected.add(f"{user}@{i}")
        if with_hub:
            expected.add(user + "@s")
    return expected


class TestCliqueCoupling:
    def test_size_formulas_small_instance(self, four_user_three_layer):
        coupled = couple(four_user_three_layer, "clique")
        n, k = 4, 3
        assert len(coupled.graph) == (k + 1) * n == 16
        sync_edges = edge_count(coupled.graph) - layer_edge_total(four_user_three_layer)
        assert sync_edges == n * k * (k + 1) == 48

    def test_hundred_users_two_layers_gives_300_nodes(self):
        from muxlci import small_ilp_instance

        network = small_ilp_instance(3)
        assert len(network.universe) == 100
        coupled = couple(network, "clique")
        assert len(coupled.graph) == 300

    def test_single_layer_round_trip(self):
        network = random_network(41, max_users=20, max_layers=1)
        seeds = random_seed_users(network, 41)
        coupled = couple(network, "clique")
        direct = multiplex_lt_propagate(network, seeds, 3)
        mapped = lt_propagate(coupled.graph, coupled.seed_nodes(seeds), 6)
        assert coupled.active_users(mapped.active.members) == direct.active.members

    def test_active_set_is_full_blowup(self, four_user_three_layer):
        coupled = couple(four_user_three_layer, "clique")
        seeds = {"red"}
        direct = multiplex_lt_propagate(four_user_three_layer, seeds, 2)
        out = lt_propagate(coupled.graph, coupled.seed_nodes(seeds), 4)
        assert out.active.members == lossless_expected_nodes(
            four_user_three_layer, direct.active.members, with_hub=False
        )

    def test_gateways_only_activate_at_even_hops(self):
        network = random_network(17, max_users=30)
        coupled = couple(network, "clique")
        seeds = random_seed_users(network, 17)
        out = lt_propagate(coupled.graph, coupled.seed_nodes(seeds), 8)
        for hop, members in enumerate(out.active.per_hop):
            gateways = {m for m in members if coupled.kinds[m].kind == "gateway"}
            if hop % 2 == 1:
                assert not gateways

    def test_incomplete_network_rejected(self):
        layer = make_layer(1, {("a", "b"): None}, {"a": 0.5, "b": 0.5})
        with pytest.raises(ValueError, match="unset weight"):
            couple(MultiplexNetwork([layer]), "clique")

    @pytest.mark.parametrize("scheme", COUPLING_SCHEMES)
    def test_non_finite_threshold_named(self, scheme):
        layer = make_layer(1, {("a", "b"): 1.0}, {"a": 0.5, "b": math.nan})
        with pytest.raises(ValueError, match="layer 1: node 'b' threshold nan is not finite"):
            couple(MultiplexNetwork([layer]), scheme)

    @given(st.integers(min_value=0, max_value=120), st.integers(min_value=1, max_value=3))
    def test_equivalence_on_random_instances(self, seed, hops):
        network = random_network(seed, max_users=24)
        seeds = random_seed_users(network, seed)
        coupled = couple(network, "clique")
        direct = multiplex_lt_propagate(network, seeds, hops)
        out = lt_propagate(coupled.graph, coupled.seed_nodes(seeds), 2 * hops)
        assert coupled.active_users(out.active.members) == direct.active.members
        assert len(out.active.members) == (network.k + 1) * len(direct.active.members)


class TestStarCoupling:
    def test_size_formulas(self):
        network = random_network(7, max_users=25)
        coupled = couple(network, "star")
        n, k = len(network.universe), network.k
        assert len(coupled.graph) == (k + 2) * n
        assert edge_count(coupled.graph) == layer_edge_total(network) + 2 * n * (k + 1)

    def test_no_seeds_no_activity(self, four_user_three_layer):
        coupled = couple(four_user_three_layer, "star")
        out = lt_propagate(coupled.graph, [], 6)
        assert out.active.members == set()

    @given(st.integers(min_value=0, max_value=120), st.integers(min_value=1, max_value=3))
    def test_equivalence_at_triple_hops(self, seed, hops):
        network = random_network(seed, max_users=20)
        seeds = random_seed_users(network, seed)
        coupled = couple(network, "star")
        direct = multiplex_lt_propagate(network, seeds, hops)
        out = lt_propagate(coupled.graph, coupled.seed_nodes(seeds), 3 * hops)
        assert coupled.active_users(out.active.members) == direct.active.members
        assert out.active.members == lossless_expected_nodes(
            network, direct.active.members, with_hub=True
        )


class TestReducedCoupling:
    def test_user_in_all_layers_gets_zero_weight(self, two_layer_toy):
        coupled = couple(two_layer_toy, "reduced-clique")
        graph = coupled.graph
        # b and c join both layers
        assert graph.node_weight[graph.index["b@u"]] == 0.0
        assert graph.node_weight[graph.index["a@u"]] == 1.0

    def test_vertex_counts(self):
        network = random_network(19, max_users=30)
        total_layer_nodes = sum(len(layer.nodes) for layer in network.layers)
        n = len(network.universe)
        clique = couple(network, "reduced-clique")
        star = couple(network, "reduced-star")
        assert len(clique.graph) == total_layer_nodes + n
        assert len(star.graph) == total_layer_nodes + 2 * n

    def test_reduction_shrinks_unbalanced_instances(self):
        # 4 layers over 10 users with 8/6/3/2 members: reduced clique has
        # 1.9n + n vertices against 5n for the full scheme
        users = [f"u{i}" for i in range(10)]
        membership = [users[0:8], users[4:10], [users[0], users[8], users[9]], users[1:3]]
        layers = [
            make_layer(li, {}, {u: 0.5 for u in members})
            for li, members in enumerate(membership, start=1)
        ]
        network = MultiplexNetwork(layers)
        assert len(network.universe) == 10
        reduced = couple(network, "reduced-clique")
        full = couple(network, "clique")
        assert len(reduced.graph) == 19 + 10
        assert len(full.graph) == 50

    @given(st.integers(min_value=0, max_value=120), st.integers(min_value=1, max_value=3))
    def test_weighted_fraction_equals_user_fraction(self, seed, hops):
        network = random_network(seed, max_users=24)
        seeds = random_seed_users(network, seed)
        direct = multiplex_lt_propagate(network, seeds, hops)
        user_fraction = len(direct.active.members) / len(network.universe)
        for sync, scale in (("clique", 2), ("star", 3)):
            coupled = couple(network, "reduced-" + sync)
            out = lt_propagate(coupled.graph, coupled.seed_nodes(seeds), scale * hops)
            weighted = out.coverage_weight / coupled.graph.total_weight
            assert weighted == pytest.approx(user_fraction, abs=1e-9)


def builder_network(seed, k):
    """Random k-layer multiplex with users missing from some layers, an
    isolated user in every layer, one isolated user in all of them, and
    edges stored in shuffled order."""
    rng = random.Random(seed)
    n = rng.randint(3, 16)
    per_layer = [(rng.randint(2, n), rng.uniform(0.05, 0.4)) for _ in range(k)]
    network = generate(SynthSpec(n, per_layer, None, seed))
    layers = []
    for layer in network.layers:
        i = layer.layer_index
        thresholds = {**layer.thresholds, f"iso{i}": 1.0 - rng.random(), "loner": 1.0 - rng.random()}
        edges = dict(rng.sample(sorted(layer.edges.items()), len(layer.edges)))
        layers.append(LayerGraph(i, set(thresholds), edges, thresholds))
    return MultiplexNetwork(layers)


LOSSLESS_REFERENCES = {
    "clique": reference_couple_clique_lossless,
    "star": reference_couple_star_lossless,
    "reduced-clique": functools.partial(reference_couple_reduced, sync="clique"),
    "reduced-star": functools.partial(reference_couple_reduced, sync="star"),
}


class TestLosslessBuilderMatchesReference:
    """couple() builds every lossless scheme exactly as the three
    separate builders it replaced did."""

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4),
           st.sampled_from(sorted(LOSSLESS_REFERENCES)),
           st.sampled_from(["linear_threshold", "independent_cascade"]))
    def test_couple_equals_reference_builder(self, seed, k, scheme, model_kind):
        network = builder_network(seed, k)
        ours = couple(network, scheme, model_kind=model_kind)
        ref = LOSSLESS_REFERENCES[scheme](network, model_kind=model_kind)
        for field in ("node_ids", "out", "theta", "node_weight", "total_weight"):
            assert getattr(ours.graph, field) == getattr(ref.graph, field), field
        for field in ("kinds", "user_of", "node_of_user", "hop_scale", "scheme", "k"):
            assert getattr(ours, field) == getattr(ref, field), field
        assert list(ours.kinds) == list(ref.kinds)


def easiness(network, user, layer_index):
    return _layer_alphas(network.layer_by_index(layer_index), "easiness")[user]


def involvement(network, user, layer_index):
    return _layer_alphas(network.layer_by_index(layer_index), "involvement")[user]


class TestLossyParameters:
    def test_easiness_easy_and_hard_layers(self):
        friends = [f"f{i}" for i in range(8)]
        easy = make_layer(1, {(f, "u"): 0.1 for f in friends},
                          {**{f: 0.5 for f in friends}, "u": 0.1})
        hard = make_layer(2, {(f, "u"): 0.1 for f in friends},
                          {**{f: 0.5 for f in friends}, "u": 0.7})
        network = MultiplexNetwork([easy, hard])
        assert easiness(network, "u", 1) == pytest.approx(8.0)
        assert easiness(network, "u", 2) == pytest.approx(8.0 / 7.0)

    def test_easiness_normalized_layer(self):
        layer = make_layer(1, {("a", "v"): 0.6, ("b", "v"): 0.4},
                           {"a": 0.3, "b": 0.3, "v": 0.5})
        network = MultiplexNetwork([layer])
        assert easiness(network, "v", 1) == pytest.approx(2.0)

    def test_easiness_floor_for_sources(self):
        layer = make_layer(1, {("v", "a"): 1.0}, {"a": 0.5, "v": 0.5})
        network = MultiplexNetwork([layer])
        assert easiness(network, "v", 1) == ALPHA_FLOOR
        # the floor reaches the coupling: v's folded threshold is floor * theta
        coupled = couple(network, "lossy-easiness")
        assert coupled.graph.theta[coupled.graph.index["v"]] == ALPHA_FLOOR * 0.5

    def test_involvement_bidirectional_triangle(self):
        nodes = {"a": 0.5, "b": 0.5, "c": 0.5}
        edges = {}
        for x in nodes:
            for y in nodes:
                if x != y:
                    edges[(x, y)] = 0.5
        network = MultiplexNetwork([make_layer(1, edges, nodes)])
        for user in nodes:
            assert involvement(network, user, 1) == pytest.approx(6.0)

    def test_involvement_star_neighborhood(self):
        leaves = ["x", "y", "z"]
        edges = {}
        for leaf in leaves:
            edges[("v", leaf)] = 0.2
            edges[(leaf, "v")] = 0.2
        thetas = {**{leaf: 0.4 for leaf in leaves}, "v": 0.4}
        network = MultiplexNetwork([make_layer(1, edges, thetas)])
        assert involvement(network, "v", 1) == pytest.approx(3.0)
        # a leaf sees only its two edges with the hub
        assert involvement(network, "x", 1) == pytest.approx(1.0)

    def test_involvement_isolated_floor(self):
        layer = make_layer(1, {}, {"v": 0.5})
        network = MultiplexNetwork([layer])
        assert involvement(network, "v", 1) == ALPHA_FLOOR
        coupled = couple(network, "lossy-involvement")
        assert coupled.graph.theta[coupled.graph.index["v"]] == ALPHA_FLOOR * 0.5

    def test_incomplete_layer_rejected(self):
        network = MultiplexNetwork([make_layer(1, {("a", "b"): None}, {"a": 0.5, "b": 0.5})])
        for scheme in ("lossy-easiness", "lossy-involvement"):
            with pytest.raises(ValueError, match="unset weight"):
                couple(network, scheme)

    def test_non_finite_threshold_named(self):
        network = MultiplexNetwork([make_layer(1, {("a", "b"): 1.0}, {"a": 0.5, "b": math.nan})])
        for scheme in ("lossy-easiness", "lossy-involvement"):
            with pytest.raises(ValueError, match="layer 1: node 'b' threshold nan is not finite"):
                couple(network, scheme)


def lossy_corner_network(seed):
    """Random multiplex with zero-weight edges, plus in every layer an
    isolated user and a source user (no in-edges, one zero-weight and one
    positive out-edge)."""
    network = random_network(seed, max_users=30)
    rng = random.Random(seed)
    layers = []
    for layer in network.layers:
        i = layer.layer_index
        edges = {key: 0.0 if rng.random() < 0.2 else w for key, w in sorted(layer.edges.items())}
        thresholds = dict(layer.thresholds)
        thresholds[f"iso{i}"] = 1.0 - rng.random()
        thresholds["source"] = 1.0 - rng.random()
        for weight, dst in zip((0.0, rng.random()), rng.sample(sorted(layer.nodes), 2)):
            edges[("source", dst)] = weight
        layers.append(LayerGraph(i, set(thresholds), edges, thresholds))
    return MultiplexNetwork(layers)


class TestLossyMultipliersMatchReference:
    """The one-pass multipliers equal per-user full scans bit for bit,
    and the coupling folds them as the reference does."""

    @given(st.integers(min_value=0, max_value=10_000))
    def test_alphas_and_folded_coupling_exact(self, seed):
        network = lossy_corner_network(seed)
        for kind, slow in (("easiness", naive_easiness), ("involvement", naive_involvement)):
            for layer in network.layers:
                assert _layer_alphas(layer, kind) == {
                    user: slow(network, user, layer.layer_index, ALPHA_FLOOR) for user in layer.nodes}
            thresholds, edges = naive_lossy_fold(
                network, lambda u, i: slow(network, u, i, ALPHA_FLOOR))
            graph = couple(network, "lossy-" + kind).graph
            assert {u: graph.theta[graph.index[u]] for u in graph.node_ids} == thresholds
            assert {
                (graph.node_ids[u], graph.node_ids[v], w)
                for u, targets in enumerate(graph.out) for v, w in targets
            } == edges


class TestLossyCoupling:
    def test_average_single_layer_is_identity(self):
        network = random_network(29, max_users=15, max_layers=1)
        layer = network.layers[0]
        coupled = couple(network, "lossy-average")
        assert set(coupled.graph.node_ids) == layer.nodes
        for (u, v), w in layer.edges.items():
            iu = coupled.graph.index[u]
            assert (coupled.graph.index[v], w) in coupled.graph.out[iu]
        for user in layer.nodes:
            assert coupled.graph.theta[coupled.graph.index[user]] == pytest.approx(layer.thresholds[user])

    def test_average_thresholds_sum_over_layers(self):
        layer1 = make_layer(1, {}, {"u": 0.3, "v": 0.5})
        layer2 = make_layer(2, {}, {"u": 0.2, "v": 0.4})
        coupled = couple(MultiplexNetwork([layer1, layer2]), "lossy-average")
        assert coupled.graph.theta[coupled.graph.index["u"]] == pytest.approx(0.5)

    def test_node_count_is_user_count(self, four_user_three_layer):
        for kind in ("easiness", "involvement", "average"):
            coupled = couple(four_user_three_layer, "lossy-" + kind)
            assert len(coupled.graph) == 4
            assert coupled.hop_scale == 1

    def test_zero_weight_edges_dropped(self):
        layer = make_layer(1, {("a", "b"): 0.0, ("b", "a"): 1.0}, {"a": 0.5, "b": 0.5})
        coupled = couple(MultiplexNetwork([layer]), "lossy-average")
        assert edge_count(coupled.graph) == 1

    @given(st.integers(min_value=0, max_value=120), st.integers(min_value=1, max_value=3))
    def test_lossy_coverage_never_exceeds_direct(self, seed, hops):
        network = random_network(seed, max_users=24)
        seeds = random_seed_users(network, seed)
        direct_fraction = (
            multiplex_lt_propagate(network, seeds, hops).coverage_count
            / len(network.universe)
        )
        for kind in ("easiness", "involvement", "average"):
            coupled = couple(network, "lossy-" + kind)
            out = lt_propagate(coupled.graph, coupled.seed_nodes(seeds), hops)
            lossy_fraction = out.coverage_count / len(coupled.graph)
            assert direct_fraction >= lossy_fraction - 1e-12


class TestNodeUserMapping:
    def test_empty_maps_to_empty(self, four_user_three_layer):
        coupled = couple(four_user_three_layer, "clique")
        assert coupled.users_of([]) == []

    def test_gateways_map_back(self, four_user_three_layer):
        coupled = couple(four_user_three_layer, "clique")
        assert coupled.users_of(["red@g", "blue@g"]) == ["red", "blue"]
        assert coupled.users_of(["blue@g", "red@g"]) == ["blue", "red"]

    def test_representative_rejected(self, four_user_three_layer):
        coupled = couple(four_user_three_layer, "clique")
        with pytest.raises(ValueError, match="not in the user mapping"):
            coupled.users_of(["red@g", "red@1"])

    def test_greedy_output_round_trip(self, four_user_three_layer):
        coupled = couple(four_user_three_layer, "clique")
        seed_set = improved_greedy(coupled, GreedyConfig(0.5, 2))
        assert set(seed_set.users) <= four_user_three_layer.universe


class TestCoupledExport:
    def test_write_read_round_trip(self, four_user_three_layer):
        coupled = couple(four_user_three_layer, "star")
        edges_buf, manifest_buf = io.StringIO(), io.StringIO()
        write_coupled(coupled, edges_buf, manifest_buf)
        graph, kinds, user_of = read_coupled(
            io.StringIO(edges_buf.getvalue()),
            io.StringIO(manifest_buf.getvalue()),
        )
        assert set(graph.node_ids) == set(coupled.graph.node_ids)
        assert kinds == coupled.kinds
        assert user_of == coupled.user_of
        original = {
            (coupled.graph.node_ids[u], coupled.graph.node_ids[v], w)
            for u, targets in enumerate(coupled.graph.out) for v, w in targets
        }
        rebuilt = {
            (graph.node_ids[u], graph.node_ids[v], w)
            for u, targets in enumerate(graph.out) for v, w in targets
        }
        assert rebuilt == original
        for node in graph.node_ids:
            assert graph.theta[graph.index[node]] == coupled.graph.theta[coupled.graph.index[node]]

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([math.nan, math.inf, -math.inf]),
           st.sampled_from(["threshold", "weight", "edge"]))
    def test_non_finite_value_rejected(self, seed, bad, where):
        network = random_network(seed, max_users=12)
        coupled = couple(network, random.Random(seed).choice(["clique", "lossy-easiness"]))
        edges_buf, manifest_buf = io.StringIO(), io.StringIO()
        write_coupled(coupled, edges_buf, manifest_buf)
        edge_lines = edges_buf.getvalue().splitlines()
        rows = manifest_buf.getvalue().splitlines()
        if where == "edge":
            edge_lines.append(f"{coupled.graph.node_ids[0]} {coupled.graph.node_ids[-1]} {bad!r}")
        else:
            fields = rows[1].split(",")
            fields[4 if where == "threshold" else 5] = repr(bad)
            rows[1] = ",".join(fields)
        assert "must be finite" in same_rejection(edge_lines, rows)

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([-5e-324, -1e-13, -0.5]))
    def test_negative_edge_weight_rejected(self, seed, bad):
        network = random_network(seed, max_users=12)
        coupled = couple(network, random.Random(seed).choice(["clique", "lossy-easiness"]))
        edges_buf, manifest_buf = io.StringIO(), io.StringIO()
        write_coupled(coupled, edges_buf, manifest_buf)
        edge_lines = edges_buf.getvalue().splitlines()
        edge_lines.append(f"{coupled.graph.node_ids[0]} {coupled.graph.node_ids[-1]} {bad!r}")
        message = same_rejection(edge_lines, manifest_buf.getvalue().splitlines())
        assert re.fullmatch(f"line {len(edge_lines)}: weight .* must be finite and >= 0", message)

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(["x", "1,5", "0.5w"]))
    def test_unparsable_edge_weight_names_line(self, seed, bad):
        network = random_network(seed, max_users=12)
        coupled = couple(network, random.Random(seed).choice(["reduced-clique", "lossy-involvement"]))
        edges_buf, manifest_buf = io.StringIO(), io.StringIO()
        write_coupled(coupled, edges_buf, manifest_buf)
        edge_lines = edges_buf.getvalue().splitlines()
        line = random.Random(seed).randint(1, len(edge_lines) + 1)
        edge_lines.insert(line - 1, f"{coupled.graph.node_ids[0]} {coupled.graph.node_ids[-1]} {bad}")
        message = same_rejection(edge_lines, manifest_buf.getvalue().splitlines())
        assert message == f"line {line}: weight {bad!r} is not a number"

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from(["short", "long", "threshold", "weight", "layer"]))
    def test_malformed_manifest_row_names_line_and_node(self, seed, fault):
        network = random_network(seed, max_users=12)
        coupled = couple(network, random.Random(seed).choice(["star", "lossy-average"]))
        edges_buf, manifest_buf = io.StringIO(), io.StringIO()
        write_coupled(coupled, edges_buf, manifest_buf)
        rows = manifest_buf.getvalue().splitlines()
        line = random.Random(seed).randint(2, len(rows))
        fields = rows[line - 1].split(",")
        if fault == "short":
            fields.pop()
        elif fault == "long":
            fields.append("extra")
        else:
            fields[{"layer": 3, "threshold": 4, "weight": 5}[fault]] = "x1"
        rows[line - 1] = ",".join(fields)
        message = same_rejection(edges_buf.getvalue().splitlines(), rows)
        assert message.startswith(f"manifest line {line}, node {fields[0]!r}: ")

    @given(st.integers(min_value=0, max_value=10_000), st.booleans())
    def test_unknown_endpoint_names_line(self, seed, at_src):
        coupled = couple(random_network(seed, max_users=12), random.Random(seed).choice(COUPLING_SCHEMES))
        edge_lines, rows = written(coupled)
        known = coupled.graph.node_ids[0]
        line = random.Random(seed).randint(1, len(edge_lines) + 1)
        edge_lines.insert(line - 1, f"zz {known} 0.5" if at_src else f"{known} zz 0.5")
        assert same_rejection(edge_lines, rows) == f"line {line}: node 'zz' is not in the manifest"

    @given(st.integers(min_value=0, max_value=10_000))
    def test_malformed_edge_line_names_line(self, seed):
        coupled = couple(random_network(seed, max_users=12), random.Random(seed).choice(COUPLING_SCHEMES))
        edge_lines, rows = written(coupled)
        line = random.Random(seed).randint(1, len(edge_lines) + 1)
        edge_lines.insert(line - 1, random.Random(seed).choice(["a", "a b", "a b 0.5 extra"]))
        assert same_rejection(edge_lines, rows) == f"line {line}: expected 'src dst weight'"

    @given(st.integers(min_value=0, max_value=10_000))
    def test_duplicate_manifest_node_names_line(self, seed):
        coupled = couple(random_network(seed, max_users=12), random.Random(seed).choice(COUPLING_SCHEMES))
        edge_lines, rows = written(coupled)
        rng = random.Random(seed)
        repeated = rows[rng.randint(1, len(rows) - 1)]
        line = rng.randint(2, len(rows) + 1)
        rows.insert(line - 1, repeated)
        second = rows.index(repeated, rows.index(repeated) + 1) + 1
        node = repeated.split(",")[0]
        with pytest.raises(ValueError) as raised:
            read_coupled(edge_lines, rows)
        assert str(raised.value) == f"manifest line {second}, node {node!r}: duplicate node id"

    @given(st.integers(min_value=0, max_value=10_000))
    def test_self_loop_edge_names_line(self, seed):
        coupled = couple(random_network(seed, max_users=12), random.Random(seed).choice(COUPLING_SCHEMES))
        edge_lines, rows = written(coupled)
        rng = random.Random(seed)
        node = rng.choice(coupled.graph.node_ids)
        line = rng.randint(1, len(edge_lines) + 1)
        edge_lines.insert(line - 1, f"{node} {node} 0.5")
        with pytest.raises(ValueError) as raised:
            read_coupled(edge_lines, rows)
        assert str(raised.value) == f"line {line}: self-loop on {node!r}"

    @given(st.integers(min_value=0, max_value=10_000))
    def test_duplicate_edge_names_endpoints(self, seed):
        coupled = couple(random_network(seed, max_users=12), random.Random(seed).choice(COUPLING_SCHEMES))
        edge_lines, rows = written(coupled)
        if not edge_lines:
            return
        rng = random.Random(seed)
        src, dst, _ = rng.choice(edge_lines).split()
        edge_lines.insert(rng.randint(0, len(edge_lines)), f"{src} {dst} 0.25")
        assert same_rejection(edge_lines, rows) == f"duplicate edge {src!r}->{dst!r}"

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(COUPLING_SCHEMES),
           st.sampled_from(["linear_threshold", "independent_cascade"]))
    def test_read_matches_two_pass_reader(self, seed, scheme, model_kind):
        """One-pass reading builds the graph the two-pass reader builds,
        field for field and in every out-list's order, also from a file
        with its lines shuffled and comments and blank lines mixed in."""
        coupled = couple(random_network(seed, max_users=20), scheme, model_kind=model_kind)
        edge_lines, rows = written(coupled)
        rng = random.Random(seed)
        rng.shuffle(edge_lines)
        for extra in ("# comment", "", "   ", "#a b 0.5"):
            edge_lines.insert(rng.randint(0, len(edge_lines)), extra)
        graph, kinds, user_of = read_coupled(edge_lines, rows)
        ref_graph, ref_kinds, ref_user_of = reference_read_coupled(edge_lines, rows)
        for field in ("node_ids", "index", "out", "theta", "bar", "node_weight", "total_weight"):
            assert getattr(graph, field) == getattr(ref_graph, field), field
        assert kinds == ref_kinds
        assert user_of == ref_user_of

    def test_manifest_lists_every_node_once(self, two_layer_toy):
        coupled = couple(two_layer_toy, "reduced-star")
        edges_buf, manifest_buf = io.StringIO(), io.StringIO()
        write_coupled(coupled, edges_buf, manifest_buf)
        rows = manifest_buf.getvalue().splitlines()
        assert len(rows) == len(coupled.graph) + 1


class TestStochasticModelCoupling:
    """The lossless construction carries over to the stochastic models:
    synchronization edges get weight 1 under independent cascade and the
    threshold bound under stochastic threshold.  Per-sample traces are
    random, so the check is on Monte Carlo means (user scale: coupled
    count divided by k+1)."""

    def test_independent_cascade_means_match_direct(self):
        from muxlci import DiffusionModel, SynthSpec, generate, ic_propagate
        from oracles import naive_multiplex_ic_mean

        network = generate(SynthSpec(12, [(9, 0.25), (9, 0.25)], None, 2))
        seeds = set(sorted(network.universe)[:2])
        coupled = couple(network, "clique", model_kind="independent_cascade")
        # cascade probability through sync edges is 1
        sync_weights = {
            w for u, targets in enumerate(coupled.graph.out) for v, w in targets
            if coupled.kinds[coupled.graph.node_ids[u]].user
            == coupled.kinds[coupled.graph.node_ids[v]].user
        }
        assert sync_weights == {1.0}
        model = DiffusionModel("independent_cascade", mc_samples=3000, rng_seed=2)
        coupled_mean = ic_propagate(
            coupled.graph, coupled.seed_nodes(seeds), 4, model
        ).coverage_count / (network.k + 1)
        direct_mean = naive_multiplex_ic_mean(network, seeds, 2, 3000, 102)
        assert coupled_mean == pytest.approx(direct_mean, abs=0.15)

    def test_stochastic_threshold_means_match_direct(self):
        from muxlci import DiffusionModel, SynthSpec, generate, st_propagate
        from oracles import naive_multiplex_st_mean

        network = generate(SynthSpec(12, [(9, 0.25), (9, 0.25)], None, 3))
        seeds = set(sorted(network.universe)[:2])
        coupled = couple(network, "clique")
        model = DiffusionModel("stochastic_threshold", mc_samples=3000, rng_seed=3)
        coupled_mean = st_propagate(
            coupled.graph, coupled.seed_nodes(seeds), 4, model
        ).coverage_count / (network.k + 1)
        direct_mean = naive_multiplex_st_mean(network, seeds, 2, 3000, 203)
        assert coupled_mean == pytest.approx(direct_mean, abs=0.15)


def test_couple_dispatch_names(four_user_three_layer):
    from muxlci import COUPLING_SCHEMES

    for scheme in COUPLING_SCHEMES:
        coupled = couple(four_user_three_layer, scheme)
        assert coupled.scheme == scheme
    with pytest.raises(ValueError, match="unknown coupling scheme"):
        couple(four_user_three_layer, "bogus")
