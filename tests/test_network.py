import io
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from muxlci import (
    COUPLING_SCHEMES,
    LayerFormatError,
    MultiplexNetwork,
    LayerGraph,
    SynthSpec,
    couple,
    generate,
    load_alias_map,
    load_layer,
    load_network,
    multiplex_lt_propagate,
    serialize_layer,
    validate,
)
from muxlci.network import WEIGHT_EPS, _replacing, prepare_network, single_layer_network, subseed

from conftest import count_rule_book, make_layer, random_network
from oracles import (
    reference_apply_aliases,
    reference_fill_missing_thresholds,
    reference_load_layer,
    reference_normalize_incoming_weights,
    reference_prepare_network,
    reference_validate,
)


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
        assert prepare_network([layer], 0)[1] == [1]

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


LAYER_LINES = [
    "a b 0.5", "b c", "c a 1", "a c 0.25", "d a 0.75", "b d 1e-3", "  c   d\t0.5 ",
    "# theta a 0.5", "#theta b 0.25", "  # theta c 1.0", "# theta d", "# theta e x", "# theta a 0.5 0.6",
    "# comment", "#", "", "   ", "\t",
    "a a 0.5", "a b 0.2", "a b 1.5", "a b -0.1", "a b x", "a b nan", "a", "a b 0.5 extra",
]


# LAYER_LINES plus lines that an alias map can merge into a fault
ALIASED_LAYER_LINES = LAYER_LINES + [
    "b a 0.5", "P a 0.5", "a P 0.25", "c b", "# theta b 0.5", "# theta P 0.25", "# theta Q 0.5",
]


def parse_aliased(text, aliases):
    return load_layer(io.StringIO(text), 1, aliases)


class TestLoadLayerMatchesReference:
    @given(st.lists(st.sampled_from(LAYER_LINES), max_size=12), st.sampled_from(["\n", "\r\n", ""]))
    @example(["#theta b 0.25", "  # theta c 1.0", "a b 0.5", "# comment"], "\n")
    def test_same_layer_or_same_error(self, lines, ending):
        """Splitting each line once and taking the node set at the end
        gives the layer, or the LayerFormatError message, of the parser
        that strips, tests and splits each line in turn."""
        text = [line + ending for line in lines]
        try:
            expected = reference_load_layer(text, 2)
        except LayerFormatError as exc:
            with pytest.raises(LayerFormatError) as raised:
                load_layer(text, 2)
            assert str(raised.value) == str(exc)
        else:
            assert load_layer(text, 2) == expected


def prepared(layer, seed):
    """``layer`` alone through prepare_network."""
    return prepare_network([layer], seed)[0].layers[0]


class TestNormalize:
    def test_two_in_edges_rescaled(self):
        layer = make_layer(1, {("a", "v"): 0.75, ("b", "v"): 0.5}, {"a": 0.5, "b": 0.5, "v": 0.5})
        result = prepared(layer, 0)
        assert result.edges[("a", "v")] == pytest.approx(0.6, abs=1e-15)
        assert result.edges[("b", "v")] == pytest.approx(0.4, abs=1e-15)

    def test_single_in_edge_becomes_one(self):
        layer = make_layer(1, {("a", "v"): None}, {"a": 0.5, "v": 0.5})
        assert prepared(layer, 0).edges[("a", "v")] == 1.0

    def test_in_weights_at_most_one_kept(self):
        layer = make_layer(1, {("a", "v"): 0.2, ("b", "v"): 0.6}, {"a": 0.5, "b": 0.5, "v": 0.5})
        network, normalized = prepare_network([layer], 0)
        assert normalized == []
        assert network.layers[0].edges == {("a", "v"): 0.2, ("b", "v"): 0.6}

    def test_unset_weights_reproducible(self):
        edges = {("a", "v"): None, ("b", "v"): None, ("v", "a"): None, ("b", "a"): None, ("a", "b"): None}
        thetas = {"a": 0.5, "b": 0.5, "v": 0.5}
        layer = make_layer(1, edges, thetas)
        one = prepared(layer, 42)
        two = prepared(layer, 42)
        assert one.edges == two.edges
        other = prepared(layer, 43)
        assert other.edges != one.edges

    @given(st.integers(min_value=0, max_value=10_000))
    def test_idempotent_once_weights_set(self, seed):
        edges = {("a", "v"): None, ("b", "v"): None, ("c", "v"): None, ("v", "a"): None}
        layer = make_layer(1, edges, {"a": 0.5, "b": 0.5, "c": 0.5, "v": 0.5})
        once = prepared(layer, seed)
        twice = prepared(once, seed + 1)
        for key in once.edges:
            assert twice.edges[key] == pytest.approx(once.edges[key], abs=1e-12)
        for total in once.in_weight_sums().values():
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_in_degree_zero_untouched(self):
        layer = make_layer(1, {("a", "b"): None}, {"a": 0.5, "b": 0.5})
        result = prepared(layer, 0)
        assert result.edges == {("a", "b"): 1.0}
        assert result.in_weight_sums().get("a") is None


def unset_thresholds(network):
    return [LayerGraph(layer.layer_index, set(layer.nodes), dict(layer.edges), {}) for layer in network.layers]


class TestThresholds:
    def test_deterministic_under_seed(self, two_layer_toy):
        one = prepare_network(unset_thresholds(two_layer_toy), 7)[0]
        two = prepare_network(unset_thresholds(two_layer_toy), 7)[0]
        for la, lb in zip(one.layers, two.layers):
            assert la.thresholds == lb.thresholds
            assert set(la.thresholds) == la.nodes

    def test_overlapping_user_draws_independently(self, two_layer_toy):
        network = prepare_network(unset_thresholds(two_layer_toy), 7)[0]
        assert network.layers[0].thresholds["b"] != network.layers[1].thresholds["b"]

    def test_fill_missing_keeps_provided_values(self):
        layer = make_layer(1, {("a", "b"): 1.0}, {"a": 0.25})
        filled = prepared(layer, 3).thresholds
        assert filled["a"] == 0.25
        assert 0.0 < filled["b"] <= 1.0
        assert layer.thresholds == {"a": 0.25}

    def test_empirical_mean_near_half(self):
        users = {f"u{i}" for i in range(100)}
        layers = [LayerGraph(1, set(users), {}, {}), LayerGraph(2, set(users), {}, {})]
        network = prepare_network(layers, 123)[0]
        draws = [t for layer in network.layers for t in layer.thresholds.values()]
        assert len(draws) == 200
        mean = sum(draws) / len(draws)
        assert 0.4 <= mean <= 0.6
        assert all(0.0 < t <= 1.0 for t in draws)


class TestSharedParts:
    """Layers are not changed once built, so a prepared layer shares what
    preparing leaves unchanged, and so does a single-layer network."""

    def test_complete_layer_shares_its_node_set_edges_and_thresholds(self, two_layer_toy):
        network, normalized = prepare_network(two_layer_toy.layers, 0)
        assert normalized == []
        for layer, ready in zip(two_layer_toy.layers, network.layers, strict=True):
            assert ready.nodes is layer.nodes and ready.edges is layer.edges and ready.thresholds is layer.thresholds
            alone = single_layer_network(ready).layers[0]
            assert alone.layer_index == 1
            assert alone.nodes is ready.nodes and alone.edges is ready.edges and alone.thresholds is ready.thresholds

    def test_cached_one_layer_network_shares_the_layer(self, two_layer_toy):
        network = prepare_network(two_layer_toy.layers, 0)[0]
        for layer in network.layers:
            cached = network.alone(layer.layer_index)
            assert network.alone(layer.layer_index) is cached
            (alone,) = cached.layers
            assert alone.layer_index == 1
            assert alone.nodes is layer.nodes and alone.edges is layer.edges and alone.thresholds is layer.thresholds
        assert network.alone(1) is not network.alone(2)
        with pytest.raises(ValueError, match="^no layer with index 3$"):
            network.alone(3)

    def test_cached_network_names_a_fault_by_its_own_layer(self):
        # layer 2 alone is renumbered to 1, but its fault is named in place
        layer1 = make_layer(1, {("a", "b"): 1.0}, {"a": 0.5, "b": 0.5})
        layer2 = make_layer(2, {("b", "c"): 1.0}, {"b": 0.5})
        with pytest.raises(ValueError, match="^layer 2: node 'c' missing threshold$"):
            MultiplexNetwork([layer1, layer2]).alone(2)

    def test_only_the_changed_part_is_new(self):
        layer = make_layer(2, {("a", "b"): 0.5}, {"a": 0.25})
        ready = prepared(layer, 0)
        assert ready.nodes is layer.nodes and ready.edges is layer.edges
        assert ready.thresholds is not layer.thresholds and layer.thresholds == {"a": 0.25}
        layer = make_layer(2, {("a", "b"): None}, {"a": 0.25, "b": 0.5})
        ready = prepared(layer, 0)
        assert ready.nodes is layer.nodes and ready.thresholds is layer.thresholds
        assert ready.edges is not layer.edges and layer.edges == {("a", "b"): None}


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
    """prepare_network's per-layer block draws against the scalar loops
    of tests/oracles.py."""

    @given(partly_set_network(), st.integers(0, 2**32))
    def test_same_values_and_order_as_scalar_draws(self, network, seed):
        got, got_normalized = prepare_network(network.layers, seed)
        want, want_normalized = reference_prepare_network(network.layers, seed)
        assert got_normalized == want_normalized
        for a, b in zip(got.layers, want.layers, strict=True):
            assert a.layer_index == b.layer_index and a.nodes == b.nodes
            assert list(a.edges.items()) == list(b.edges.items())
            assert list(a.thresholds.items()) == list(b.thresholds.items())

    def test_zero_draw_topped_up_as_the_scalar_loop_redraws(self, monkeypatch):
        # the first block of three holds a 0.0, and so does the first top-up
        script = [0.5, 0.0, 0.25, 0.0, 0.75, 0.125, 0.375]
        made = []

        def scripted(seed):
            made.append(ScriptedGenerator(script))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", scripted)
        edges = {("c", "w"): None, ("b", "v"): None, ("d", "w"): 0.5, ("a", "v"): None}
        layer = make_layer(1, edges, dict.fromkeys("abcdvw", 0.5))
        got = prepared(layer, 0)
        want = reference_normalize_incoming_weights(layer, 0)
        assert list(got.edges.items()) == list(want.edges.items())
        assert list(got.edges.items()) == [
            (("a", "v"), 0.5 / 0.75), (("b", "v"), 0.25 / 0.75), (("c", "w"), 0.75 / 1.25), (("d", "w"), 0.5 / 1.25)]
        # the thresholds stream, then the weights stream, then the reference;
        # no threshold is missing, so the thresholds stream draws nothing
        assert [rng.position for rng in made] == [0, 5, 5]


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
        assert any(v.endswith(f"weight {bad} is negative") for v in validate(network))


# the layer faults that leave a coupling or the multiplex sweep undefined
LAYER_FAULTS = ("self-loop", "negative weight", "unset weight", "outside endpoint",
                "zero threshold", "negative threshold", "nan threshold", "threshold above 1")
# the invariants only validate checks
MODEL_FAULTS = ("weight above 1", "infinite weight", "unknown threshold",
                "in-weight excess", "extra node", "layer index")
# the values a fault sets on one edge, or on one user's threshold
EDGE_FAULTS = {"negative weight": (-5e-324, -0.5), "unset weight": (None,), "weight above 1": (1.5,),
               "infinite weight": (math.inf,), "in-weight excess": (1.0,)}
THRESHOLD_FAULTS = {"zero threshold": (0.0,), "negative threshold": (-0.5,), "nan threshold": (math.nan,),
                    "threshold above 1": (1.5,)}


def inject_fault(network, fault, rng):
    """Give a random layer of ``network`` the named fault, in place."""
    layer = rng.choice(network.layers)
    src, dst = rng.sample(sorted(layer.nodes), 2)
    if fault in EDGE_FAULTS:
        layer.edges[(src, dst)] = rng.choice(EDGE_FAULTS[fault])
    elif fault in THRESHOLD_FAULTS:
        layer.thresholds[src] = rng.choice(THRESHOLD_FAULTS[fault])
    elif fault == "self-loop":
        layer.edges[(src, src)] = rng.choice([0.0, 0.5])
    elif fault == "outside endpoint":
        layer.edges[(src, rng.choice(sorted(network.universe - layer.nodes) or ["zz"]))] = 0.5
    elif fault == "unknown threshold":
        layer.thresholds["zz"] = 0.5
    elif fault == "extra node":
        layer.nodes.add("zz")
    else:
        layer.layer_index += rng.choice([-1, 1, 5])


class TestLayerRuleBook:
    """Every coupling, the multiplex sweep and validate reject a malformed
    layer alike, with one message."""

    @pytest.mark.parametrize("edges, thresholds, message", [
        ({("b", "b"): 0.0}, {}, "layer 1: self-loop on 'b'"),
        ({("c", "b"): -0.2}, {}, "layer 1: edge 'c'->'b' weight -0.2 is negative"),
        ({}, {"b": 0.0}, "layer 1: node 'b' non-positive threshold"),
        ({}, {"b": -0.5}, "layer 1: node 'b' non-positive threshold"),
    ])
    def test_every_entry_point_raises_the_validate_message(self, two_layer_toy, edges, thresholds, message):
        two_layer_toy.layers[0].edges.update(edges)
        two_layer_toy.layers[0].thresholds.update(thresholds)
        assert validate(two_layer_toy) == [message]
        for scheme in COUPLING_SCHEMES:
            with pytest.raises(ValueError) as raised:
                couple(two_layer_toy, scheme)
            assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            multiplex_lt_propagate(two_layer_toy, {"a"}, 2)
        assert str(raised.value) == message

    def test_threshold_above_one_rejected_by_every_entry_point(self, two_layer_toy):
        # a lossless sync edge weighs 1, which activates its target alone
        # only up to a threshold of 1
        two_layer_toy.layers[0].thresholds["b"] = 1.5
        message = "layer 1: node 'b' threshold 1.5 exceeds 1"
        assert validate(two_layer_toy) == [message]
        for scheme in COUPLING_SCHEMES:
            with pytest.raises(ValueError) as raised:
                couple(two_layer_toy, scheme)
            assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            multiplex_lt_propagate(two_layer_toy, {"a"}, 2)
        assert str(raised.value) == message

    @pytest.mark.parametrize("user, reason", [
        ("#x", "starts with '#'"), ("user one", "holds whitespace"), ("x\ty", "holds whitespace"),
        ("", "is empty"), ("\ufeffa", "holds a non-printable character U+FEFF"),
        ("a\u200b", "holds a non-printable character U+200B"), ("a\x00b", "holds a non-printable character U+0000"),
    ], ids=["hash", "space", "tab", "empty", "byte-order-mark", "zero-width-space", "nul"])
    def test_id_no_file_can_carry_rejected_by_every_entry_point(self, user, reason):
        # the layer, coupled edge-list and seed formats split lines on
        # whitespace and skip a line that starts with '#'
        network = MultiplexNetwork([
            make_layer(1, {("a", "b"): 1.0, ("b", user): 1.0}, {"a": 0.5, "b": 0.5, user: 0.5}),
            make_layer(2, {("a", user): 1.0}, {"a": 0.5, user: 0.5}),
        ])
        message = f"layer 1: node id {user!r} {reason}"
        assert validate(network) == [message, f"layer 2: node id {user!r} {reason}"]
        assert reference_validate(network) == validate(network)
        for scheme in COUPLING_SCHEMES:
            with pytest.raises(ValueError) as raised:
                couple(network, scheme)
            assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            multiplex_lt_propagate(network, {"a"}, 2)
        assert str(raised.value) == message

    def test_rule_book_runs_once_per_network(self, two_layer_toy, monkeypatch):
        checked = count_rule_book(monkeypatch)
        for scheme in COUPLING_SCHEMES:
            couple(two_layer_toy, scheme)
        multiplex_lt_propagate(two_layer_toy, {"a"}, 2)
        assert checked == [1, 2]
        # a network of one layer alone inherits the whole network's pass
        for index in (1, 2):
            alone = two_layer_toy.alone(index)
            couple(alone, "lossy-average")
            multiplex_lt_propagate(alone, set(alone.universe), 2)
        assert checked == [1, 2]

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(LAYER_FAULTS))
    def test_one_fault_raises_a_validate_message(self, seed, fault):
        network = random_network(seed, max_users=15)
        inject_fault(network, fault, random.Random(seed))
        report = validate(network)
        for scheme in COUPLING_SCHEMES:
            with pytest.raises(ValueError) as raised:
                couple(network, scheme)
            assert str(raised.value) in report
        with pytest.raises(ValueError) as raised:
            multiplex_lt_propagate(network, {min(network.universe)}, 2)
        assert str(raised.value) in report

    @given(st.integers(min_value=0, max_value=10_000),
           st.lists(st.sampled_from(LAYER_FAULTS + MODEL_FAULTS), max_size=5))
    def test_validate_matches_reference(self, seed, faults):
        network = random_network(seed, max_users=15)
        rng = random.Random(seed)
        for fault in faults:
            inject_fault(network, fault, rng)
        assert validate(network) == reference_validate(network)


class TestAliases:
    def test_remap_unifies_users(self):
        mapping = load_alias_map(io.StringIO("fsq_1\ttw_9\tperson1\n"))
        assert mapping == {"fsq_1": "person1", "tw_9": "person1"}
        renamed = parse_aliased("# theta fsq_1 0.5\n# theta x 0.5\nfsq_1 x 1.0\n", mapping)
        assert renamed.nodes == {"person1", "x"}
        assert renamed.edges == {("person1", "x"): 1.0}
        assert renamed.thresholds == {"person1": 0.5, "x": 0.5}

    def test_alias_self_loop_rejected(self):
        with pytest.raises(LayerFormatError) as raised:
            parse_aliased("# theta a 0.5\na b 1.0\n", {"a": "same", "b": "same"})
        assert str(raised.value) == "line 2: self-loop on 'same'"

    @pytest.mark.parametrize("text, message", [
        ("a x 0.5\nb x 0.5\n", "line 2: duplicate edge 'same' -> 'x'"),
        ("# theta a 0.5\nx b 1.0\n# theta b 0.25\n", "line 3: threshold of 'same' is 0.5 above and 0.25 here"),
    ], ids=["duplicate-edge", "thresholds"])
    def test_merge_fault_names_the_line_that_completes_it(self, text, message):
        with pytest.raises(LayerFormatError) as raised:
            parse_aliased(text, {"a": "same", "b": "same"})
        assert str(raised.value) == message

    def test_equal_thresholds_merge(self):
        renamed = parse_aliased("# theta a 0.5\n# theta b 0.5\n# theta a 0.5\na x\n", {"a": "same", "b": "same"})
        assert renamed.thresholds == {"same": 0.5}
        assert renamed.nodes == {"same", "x"}

    @given(st.lists(st.sampled_from(ALIASED_LAYER_LINES), max_size=12),
           st.dictionaries(st.sampled_from("abcdP"), st.sampled_from("abPQ"), max_size=4))
    @example(["a P 0.5", "a b 0.5"], {"b": "P"})
    @example(["# theta a 0.5", "# theta P 0.25", "c d"], {"a": "P"})
    def test_renaming_as_read_matches_a_second_pass(self, lines, mapping):
        """Renaming each id as it is read gives the layer, edge and
        threshold order of renaming the parsed layer after, or both
        raise."""
        # as load_alias_map returns it: no id maps to itself, and no
        # canonical id is renamed
        aliases = {alias: target for alias, target in mapping.items() if target not in mapping}
        text = [line + "\n" for line in lines]
        try:
            expected = reference_apply_aliases(reference_load_layer(text, 2), aliases)
        except ValueError:
            with pytest.raises(LayerFormatError):
                load_layer(text, 2, aliases)
        else:
            layer = load_layer(text, 2, aliases)
            assert layer == expected
            assert list(layer.edges.items()) == list(expected.edges.items())
            assert list(layer.thresholds.items()) == list(expected.thresholds.items())

    def test_malformed_alias_row(self):
        with pytest.raises(LayerFormatError, match="line 1"):
            load_alias_map(io.StringIO("only two\tfields\n"))

    @pytest.mark.parametrize("rows, message", [
        ("a\tb\tX\na\tc\tY\n", "line 2: 'a' maps to 'X' above and to 'Y' here"),
        ("a\tb\tX\n# note\nc\tb\tY\n", "line 3: 'b' maps to 'X' above and to 'Y' here"),
        ("a\tb\tc\nc\td\te\n", "line 2: 'c' maps to 'c' above and to 'e' here"),
        ("c\td\te\na\tb\tc\n", "line 2: 'c' maps to 'e' above and to 'c' here"),
    ], ids=["id-twice", "id-twice-after-comment", "canonical-renamed-after", "canonical-renamed-before"])
    def test_id_with_two_canonical_ids_rejected(self, rows, message):
        with pytest.raises(LayerFormatError) as raised:
            load_alias_map(io.StringIO(rows))
        assert str(raised.value) == message

    @pytest.mark.parametrize("rows, message", [
        ("a\tb\tuser one\n", "line 1: canonical id 'user one' holds whitespace"),
        ("a\tb\tX\nc\td\t#x\n", "line 2: canonical id '#x' starts with '#'"),
    ], ids=["space", "hash"])
    def test_canonical_id_no_file_can_carry_rejected(self, rows, message):
        with pytest.raises(LayerFormatError) as raised:
            load_alias_map(io.StringIO(rows))
        assert str(raised.value) == message

    @pytest.mark.parametrize("rows, message", [
        ("\ufeffx\ty\tz\n", "line 1: id '\\ufeffx' holds a non-printable character U+FEFF"),
        ("x\ty\u200b\tz\n", "line 1: id 'y\\u200b' holds a non-printable character U+200B"),
        ("x\ty\tz\nuser one\tw\tz\n", "line 2: id 'user one' holds whitespace"),
    ], ids=["byte-order-mark", "zero-width-space", "space"])
    def test_id_no_file_can_carry_rejected(self, rows, message):
        # a layer file cannot hold such an id, so its row would rename nothing
        with pytest.raises(LayerFormatError) as raised:
            load_alias_map(io.StringIO(rows))
        assert str(raised.value) == message

    def test_accented_and_cjk_ids_accepted(self):
        assert load_alias_map(io.StringIO("é\t中\tü\n")) == {"é": "ü", "中": "ü"}

    def test_rows_that_agree_accepted(self):
        rows = "a\tb\tX\nc\td\tX\na\tb\tX\nX\te\tX\nf\tg\tf\n"
        assert load_alias_map(io.StringIO(rows)) == {"a": "X", "b": "X", "c": "X", "d": "X", "e": "X", "g": "f"}


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

    def test_hash_ids_in_a_layer_file_listed(self, tmp_path):
        # a layer file can name such a user as an edge target or a theta user
        path = write_layer(tmp_path / "l1.txt", "# theta #y 0.5\na #x 0.5\n")
        with pytest.raises(ValueError) as raised:
            load_network([path], None, 0)
        assert str(raised.value) == ("invalid network:\n  layer 1: node id '#x' starts with '#'"
                                     "\n  layer 1: node id '#y' starts with '#'")

    def test_unset_values_drawn_from_named_streams(self, tmp_path):
        text = "# theta a 0.5\na b\nc b\n"
        network, normalized = load_network([write_layer(tmp_path / "l1.txt", text)], None, 7)
        assert normalized == [1]
        layer = reference_normalize_incoming_weights(parse(text), subseed(7, "weights/1"))
        expected = reference_fill_missing_thresholds(MultiplexNetwork([layer]), subseed(7, "thresholds"))
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


class TestReplacing:
    """``_replacing`` puts the whole new text at its path or leaves the
    old file, and never a temporary file."""

    def test_block_that_raises_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old\r\n")
        with pytest.raises(RuntimeError):
            with _replacing(path) as (handle,):
                handle.write("new\n")
                raise RuntimeError("half written")
        assert path.read_bytes() == b"old\r\n"
        assert [entry.name for entry in tmp_path.iterdir()] == ["out.txt"]

    def test_text_replaces_the_file_whole(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("a much longer old text\n", encoding="utf-8")
        with _replacing(path) as (handle,):
            handle.write("é,\r\n")
        assert path.read_bytes() == "é,\r\n".encode()
        assert [entry.name for entry in tmp_path.iterdir()] == ["out.csv"]

    def test_open_error_names_the_given_path(self, tmp_path):
        path = str(tmp_path / "missing" / "out.txt")
        with pytest.raises(FileNotFoundError) as raised:
            with _replacing(path):
                pass
        assert str(raised.value) == f"[Errno 2] No such file or directory: {path!r}"

    def test_rename_error_names_the_given_path(self, tmp_path):
        path = tmp_path / "taken"
        path.mkdir()
        with pytest.raises(IsADirectoryError) as raised:
            with _replacing(path) as (handle,):
                handle.write("new\n")
        assert raised.value.filename == str(path) and raised.value.filename2 is None
        assert [entry.name for entry in tmp_path.iterdir()] == ["taken"]

    def test_paths_replaced_together_or_not_at_all(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        first.write_bytes(b"old a\n")
        missing = str(tmp_path / "missing" / "c.txt")
        with pytest.raises(FileNotFoundError) as raised:
            with _replacing(first, second, missing):
                pass
        assert raised.value.filename == missing
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["a.txt"]
        assert first.read_bytes() == b"old a\n"
        with _replacing(first, second) as (one, two):
            one.write("new a\n")
            two.write("new b\n")
        assert (first.read_bytes(), second.read_bytes()) == (b"new a\n", b"new b\n")
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["a.txt", "b.txt"]

    def test_a_path_named_twice_opens_nothing(self, tmp_path):
        first = tmp_path / "a.txt"
        first.write_bytes(b"old a\n")
        (tmp_path / "link").symlink_to(first)
        for repeated in (first, str(tmp_path / "sub" / ".." / "a.txt"), tmp_path / "link"):
            with pytest.raises(ValueError) as raised:
                with _replacing(first, tmp_path / "b.txt", repeated):
                    raise AssertionError("the block must not run")
            assert str(raised.value) == f"output file {str(repeated)!r} is named twice"
        assert first.read_bytes() == b"old a\n"
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["a.txt", "link"]

    def test_a_directory_at_a_later_path_keeps_the_earlier_file(self, tmp_path):
        first, taken = tmp_path / "a.txt", tmp_path / "taken"
        first.write_bytes(b"old a\n")
        taken.mkdir()
        with pytest.raises(IsADirectoryError) as raised:
            with _replacing(first, taken) as (one, two):
                one.write("new a\n")
                two.write("new\n")
        assert raised.value.filename == str(taken) and raised.value.filename2 is None
        assert first.read_bytes() == b"old a\n"
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["a.txt", "taken"]
