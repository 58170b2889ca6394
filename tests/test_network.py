import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from muxlci import (
    LayerFormatError,
    MultiplexNetwork,
    LayerGraph,
    SynthSpec,
    apply_aliases,
    fill_missing_thresholds,
    generate,
    load_alias_map,
    load_layer,
    load_network,
    normalize_incoming_weights,
    serialize_layer,
    validate,
)
from muxlci.network import WEIGHT_EPS, needs_normalization, subseed

from conftest import make_layer
from oracles import reference_fill_missing_thresholds, reference_normalize_incoming_weights


def parse(text, index=1):
    return load_layer(io.StringIO(text), index)


class TestLoadLayer:
    def test_minimal_parse(self):
        layer = parse("a b 0.5\nb a 0.3")
        assert layer.nodes == {"a", "b"}
        assert layer.edges == {("a", "b"): 0.5, ("b", "a"): 0.3}

    def test_self_loop_rejected(self):
        with pytest.raises(LayerFormatError, match="self-loop"):
            parse("a a 0.1")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(LayerFormatError, match="duplicate"):
            parse("a b 0.5\na b 0.2")

    def test_weight_out_of_range(self):
        with pytest.raises(LayerFormatError, match="outside"):
            parse("a b 1.5")

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(LayerFormatError, match="line 2"):
            parse("a b 0.5\na b c d")

    def test_missing_weight_stays_unset(self):
        layer = parse("a b")
        assert layer.edges[("a", "b")] is None
        assert needs_normalization(layer)

    def test_theta_directive_and_comments(self):
        layer = parse("# a comment\n# theta a 0.25\na b 0.5")
        assert layer.thresholds == {"a": 0.25}

    def test_theta_only_user_becomes_isolated_node(self):
        layer = parse("# theta lonely 0.5")
        assert layer.nodes == {"lonely"}
        assert not layer.edges

    def test_bad_theta_directive(self):
        with pytest.raises(LayerFormatError, match="theta"):
            parse("# theta a")

    def test_roundtrip_is_isomorphic(self):
        layer = parse("# theta a 0.5\n# theta b 0.25\n# theta c 0.75\na b 0.5\nb c 0.125")
        again = parse(serialize_layer(layer))
        assert again.nodes == layer.nodes
        assert again.edges == layer.edges
        assert again.thresholds == layer.thresholds

    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_layer_roundtrip(self, seed):
        from conftest import random_network

        layer = random_network(seed, max_users=15).layers[0]
        again = parse(serialize_layer(layer), layer.layer_index)
        assert again.nodes == layer.nodes
        assert again.thresholds == layer.thresholds
        assert again.edges == layer.edges


class TestNormalize:
    def test_two_in_edges_rescaled(self):
        layer = make_layer(1, {("a", "v"): 0.2, ("b", "v"): 0.6}, {"a": 0.5, "b": 0.5, "v": 0.5})
        result = normalize_incoming_weights(layer, 0)
        assert result.edges[("a", "v")] == pytest.approx(0.25, abs=1e-15)
        assert result.edges[("b", "v")] == pytest.approx(0.75, abs=1e-15)

    def test_single_in_edge_becomes_one(self):
        layer = make_layer(1, {("a", "v"): 0.123}, {"a": 0.5, "v": 0.5})
        assert normalize_incoming_weights(layer, 0).edges[("a", "v")] == 1.0

    def test_unset_weights_reproducible(self):
        edges = {("a", "v"): None, ("b", "v"): None, ("v", "a"): None, ("b", "a"): None, ("a", "b"): None}
        thetas = {"a": 0.5, "b": 0.5, "v": 0.5}
        layer = make_layer(1, edges, thetas)
        one = normalize_incoming_weights(layer, 42)
        two = normalize_incoming_weights(layer, 42)
        assert one.edges == two.edges
        other = normalize_incoming_weights(layer, 43)
        assert other.edges != one.edges

    @given(st.integers(min_value=0, max_value=10_000))
    def test_idempotent_once_weights_set(self, seed):
        edges = {("a", "v"): None, ("b", "v"): None, ("c", "v"): None, ("v", "a"): None}
        layer = make_layer(1, edges, {"a": 0.5, "b": 0.5, "c": 0.5, "v": 0.5})
        once = normalize_incoming_weights(layer, seed)
        twice = normalize_incoming_weights(once, seed + 1)
        for key in once.edges:
            assert twice.edges[key] == pytest.approx(once.edges[key], abs=1e-12)
        for total in once.in_weight_sums().values():
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_in_degree_zero_untouched(self):
        layer = make_layer(1, {("a", "b"): 0.5}, {"a": 0.5, "b": 0.5})
        result = normalize_incoming_weights(layer, 0)
        assert ("a", "b") in result.edges
        assert result.in_weight_sums().get("a") is None


def unset_thresholds(network):
    return MultiplexNetwork([LayerGraph(layer.layer_index, set(layer.nodes), dict(layer.edges), {})
                             for layer in network.layers])


class TestThresholds:
    def test_deterministic_under_seed(self, two_layer_toy):
        one = fill_missing_thresholds(unset_thresholds(two_layer_toy), 7)
        two = fill_missing_thresholds(unset_thresholds(two_layer_toy), 7)
        for la, lb in zip(one.layers, two.layers):
            assert la.thresholds == lb.thresholds
            assert set(la.thresholds) == la.nodes

    def test_overlapping_user_draws_independently(self, two_layer_toy):
        network = fill_missing_thresholds(unset_thresholds(two_layer_toy), 7)
        assert network.layers[0].thresholds["b"] != network.layers[1].thresholds["b"]

    def test_fill_missing_keeps_provided_values(self):
        layer = make_layer(1, {("a", "b"): 1.0}, {"a": 0.25})
        network = fill_missing_thresholds(MultiplexNetwork([layer]), 3)
        filled = network.layers[0].thresholds
        assert filled["a"] == 0.25
        assert 0.0 < filled["b"] <= 1.0

    def test_empirical_mean_near_half(self):
        users = {f"u{i}" for i in range(100)}
        layers = [LayerGraph(1, set(users), {}, {}), LayerGraph(2, set(users), {}, {})]
        network = fill_missing_thresholds(MultiplexNetwork(layers), 123)
        draws = [t for layer in network.layers for t in layer.thresholds.values()]
        assert len(draws) == 200
        mean = sum(draws) / len(draws)
        assert 0.4 <= mean <= 0.6
        assert all(0.0 < t <= 1.0 for t in draws)


POOL = [f"u{i}" for i in range(8)]


@st.composite
def partly_set_layer(draw, index):
    """A layer over a few of POOL's users, possibly empty or with isolated
    nodes, whose edges (in drawn, unsorted order) and thresholds are each
    set or unset; set weights include 0.0 and 1.0."""
    nodes = draw(st.sets(st.sampled_from(POOL), max_size=len(POOL)))
    pairs = [(u, v) for u in sorted(nodes) for v in sorted(nodes) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)) if pairs else []
    weight = st.none() | st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    edges = {pair: draw(weight) for pair in chosen}
    thresholds = {user: draw(st.floats(0.01, 1.0)) for user in sorted(nodes) if draw(st.booleans())}
    return LayerGraph(index, nodes, edges, thresholds)


@st.composite
def partly_set_network(draw):
    return MultiplexNetwork([draw(partly_set_layer(i)) for i in range(1, draw(st.integers(1, 3)) + 1)])


class ScriptedGenerator:
    """Stands in for a numpy Generator: scalar and block ``uniform(0, 1)``
    calls take the next values of one fixed script."""

    def __init__(self, script):
        self.script, self.position = list(script), 0

    def uniform(self, low, high, size=None):
        assert (low, high) == (0.0, 1.0)
        count = 1 if size is None else size
        values = self.script[self.position:self.position + count]
        assert len(values) == count, "script exhausted"
        self.position += count
        return np.float64(values[0]) if size is None else np.array(values)


class TestBlockDraws:
    """The per-layer block draws against the scalar loops of tests/oracles.py."""

    @given(partly_set_network(), st.integers(0, 2**32))
    def test_same_values_and_order_as_scalar_draws(self, network, seed):
        for layer in network.layers:
            got = normalize_incoming_weights(layer, seed)
            want = reference_normalize_incoming_weights(layer, seed)
            assert list(got.edges.items()) == list(want.edges.items())
            assert got.nodes == want.nodes and got.thresholds == want.thresholds
        got = fill_missing_thresholds(network, seed)
        want = reference_fill_missing_thresholds(network, seed)
        for a, b in zip(got.layers, want.layers, strict=True):
            assert list(a.thresholds.items()) == list(b.thresholds.items())
            assert list(a.edges.items()) == list(b.edges.items()) and a.nodes == b.nodes

    def test_zero_draw_topped_up_as_the_scalar_loop_redraws(self, monkeypatch):
        # the first block of three holds a 0.0, and so does the first top-up
        script = [0.5, 0.0, 0.25, 0.0, 0.75, 0.125, 0.375]
        made = []

        def scripted(seed):
            made.append(ScriptedGenerator(script))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", scripted)
        edges = {("c", "w"): None, ("b", "v"): None, ("d", "w"): 0.5, ("a", "v"): None}
        layer = make_layer(1, edges, {})
        got = normalize_incoming_weights(layer, 0)
        want = reference_normalize_incoming_weights(layer, 0)
        assert list(got.edges.items()) == list(want.edges.items())
        assert list(got.edges.items()) == [
            (("a", "v"), 0.5 / 0.75), (("b", "v"), 0.25 / 0.75), (("c", "w"), 0.75 / 1.25), (("d", "w"), 0.5 / 1.25)]
        assert [rng.position for rng in made] == [5, 5]


class TestOverlap:
    def test_disjoint_layers(self):
        network = MultiplexNetwork([
            make_layer(1, {}, {"a": 0.5, "b": 0.5}),
            make_layer(2, {}, {"c": 0.5, "d": 0.5}),
        ])
        assert network.overlap == set()

    def test_shared_user_detected(self, four_user_three_layer):
        assert "green" in four_user_three_layer.overlap
        assert four_user_three_layer.overlap == {"green", "red", "blue"}

    @given(st.integers(min_value=0, max_value=500))
    def test_matches_brute_enumeration(self, seed):
        from conftest import random_network

        network = random_network(seed, max_users=20)
        expected = {
            u for u in network.universe
            if sum(1 for layer in network.layers if u in layer.nodes) >= 2
        }
        assert network.overlap == expected


class TestValidate:
    def test_valid_network_empty_report(self, two_layer_toy):
        assert validate(two_layer_toy) == []

    def test_zero_threshold_flagged(self, two_layer_toy):
        two_layer_toy.layers[0].thresholds["a"] = 0.0
        assert any("non-positive threshold" in v for v in validate(two_layer_toy))

    def test_oversummed_in_weights_flagged(self, two_layer_toy):
        two_layer_toy.layers[0].edges[("d", "b")] = 0.8
        two_layer_toy.layers[0].nodes.add("d")
        report = validate(two_layer_toy)
        assert any("in-weight sum exceeds 1" in v for v in report)

    def test_unset_weight_flagged(self):
        network = MultiplexNetwork([make_layer(1, {("a", "b"): None}, {"a": 0.5, "b": 0.5})])
        assert any("unset weight" in v for v in validate(network))

    def test_missing_threshold_flagged(self):
        network = MultiplexNetwork([make_layer(1, {("a", "b"): 1.0}, {"a": 0.5})])
        assert any("missing threshold" in v for v in validate(network))

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([math.nan, math.inf, -math.inf]),
           st.booleans())
    def test_non_finite_value_flagged(self, seed, bad, on_edge):
        from conftest import random_network

        network = random_network(seed, max_users=15)
        layer = network.layers[-1]
        if on_edge and layer.edges:
            layer.edges[min(layer.edges)] = bad
        else:
            layer.thresholds[min(layer.nodes)] = bad
        assert any("is not finite" in v for v in validate(network))

    @given(st.integers(min_value=0, max_value=10_000),
           st.sampled_from([-5e-324, -1e-13, -WEIGHT_EPS, -0.5]))
    def test_negative_weight_flagged(self, seed, bad):
        from conftest import random_network

        network = random_network(seed, max_users=15)
        layer = network.layers[-1]
        layer.edges[tuple(sorted(layer.nodes)[:2])] = bad
        assert any("outside [0, 1]" in v for v in validate(network))


class TestAliases:
    def test_remap_unifies_users(self):
        mapping = load_alias_map(io.StringIO("fsq_1\ttw_9\tperson1\n"))
        assert mapping == {"fsq_1": "person1", "tw_9": "person1"}
        layer = make_layer(1, {("fsq_1", "x"): 1.0}, {"fsq_1": 0.5, "x": 0.5})
        renamed = apply_aliases(layer, mapping)
        assert renamed.nodes == {"person1", "x"}
        assert renamed.edges == {("person1", "x"): 1.0}
        assert renamed.thresholds == {"person1": 0.5, "x": 0.5}

    def test_alias_self_loop_rejected(self):
        layer = make_layer(1, {("a", "b"): 1.0}, {"a": 0.5, "b": 0.5})
        with pytest.raises(ValueError, match="self-loop"):
            apply_aliases(layer, {"a": "same", "b": "same"})

    def test_malformed_alias_row(self):
        with pytest.raises(LayerFormatError, match="line 1"):
            load_alias_map(io.StringIO("only two\tfields\n"))


def write_layer(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadNetwork:
    def test_file_errors_name_the_file_and_keep_the_line(self, tmp_path):
        good = write_layer(tmp_path / "l1.txt", "a b 0.5\n")
        bad = write_layer(tmp_path / "l2.txt", "a b 0.5\nb b 0.5\n")
        with pytest.raises(LayerFormatError) as caught:
            load_network([good, bad], None, 0)
        assert str(caught.value) == f"{bad}: line 2: self-loop on 'b'"
        assert caught.value.line_no == 2
        alias = write_layer(tmp_path / "alias.tsv", "a\tb\n")
        with pytest.raises(LayerFormatError) as caught:
            load_network([good], alias, 0)
        assert str(caught.value) == f"{alias}: line 1: expected three tab-separated ids"
        assert caught.value.line_no == 1

    def test_invalid_network_lists_violations(self, tmp_path):
        path = write_layer(tmp_path / "l1.txt", "# theta b 1.5\na b 0.5\n")
        with pytest.raises(ValueError, match="^invalid network:\n  layer 1: node 'b' threshold 1.5 exceeds 1$"):
            load_network([path], None, 0)

    def test_unset_values_drawn_from_named_streams(self, tmp_path):
        text = "# theta a 0.5\na b\nc b\n"
        network, normalized = load_network([write_layer(tmp_path / "l1.txt", text)], None, 7)
        assert normalized == [1]
        layer = normalize_incoming_weights(parse(text), subseed(7, "weights/1"))
        expected = fill_missing_thresholds(MultiplexNetwork([layer]), subseed(7, "thresholds"))
        assert serialize_layer(network.layers[0]) == serialize_layer(expected.layers[0])
        assert network.layers[0].thresholds["a"] == 0.5

    def test_generated_layers_load_back_unchanged(self, tmp_path):
        network = generate(SynthSpec(30, [(20, 0.1), (15, 0.0)], 0.5, 3))
        paths = [write_layer(tmp_path / f"layer{layer.layer_index}.txt", serialize_layer(layer))
                 for layer in network.layers]
        loaded, normalized = load_network(paths, None, 3)
        assert normalized == []
        assert [serialize_layer(layer) for layer in loaded.layers] == [
            serialize_layer(layer) for layer in network.layers]
