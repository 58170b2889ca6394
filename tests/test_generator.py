import hashlib
import math
import sys

import numpy as np
import pytest

from muxlci import (
    SynthSpec,
    couple,
    generate,
    serialize_layer,
    small_ilp_instance,
    subseed,
    validate,
)


class TestSynthSpec:
    def test_rejects_oversized_layer(self):
        with pytest.raises(ValueError, match="layer size"):
            SynthSpec(10, [(11, 0.1)])

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            SynthSpec(10, [(5, 1.5)])

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError, match="overlap_fraction"):
            SynthSpec(10, [(5, 0.1), (5, 0.1)], overlap_fraction=2.0)


class TestGenerate:
    def test_zero_probability_gives_no_edges(self):
        network = generate(SynthSpec(20, [(10, 0.0), (10, 0.0)], None, 1))
        assert all(not layer.edges for layer in network.layers)

    @pytest.mark.parametrize("prob", [1e-20, 4.4e-175, 5e-324])
    def test_tiny_probability_gives_no_edges(self, prob):
        """numpy saturates the geometric gaps of a tiny probability at the
        int64 maximum; summing two of them must not wrap into slot indices."""
        network = generate(SynthSpec(6, [(5, prob), (4, prob)], None, 1))
        assert all(not layer.edges for layer in network.layers)
        assert validate(network) == []

    def test_networks_are_valid_and_ready(self):
        network = generate(SynthSpec(40, [(30, 0.1), (25, 0.05)], None, 2))
        assert validate(network) == []

    def test_node_sets_no_larger_than_a_copy(self):
        """A set grown one member at a time from a list keeps a table
        twice the size of a copied set; a layer's node set is built the
        compact way, and the prepared network keeps it."""
        network = generate(SynthSpec(120, [(85, 0.05), (85, 0.05)], None, 3))
        for layer in network.layers:
            assert sys.getsizeof(layer.nodes) <= sys.getsizeof(set(layer.nodes))

    def test_deterministic_byte_identical(self):
        spec = SynthSpec(60, [(20, 0.1), (25, 0.08)], 0.4, 5)
        one = generate(spec)
        two = generate(spec)
        for la, lb in zip(one.layers, two.layers):
            assert serialize_layer(la) == serialize_layer(lb)
        other = generate(SynthSpec(60, [(20, 0.1), (25, 0.08)], 0.4, 6))
        assert any(
            serialize_layer(a) != serialize_layer(b)
            for a, b in zip(one.layers, other.layers)
        )

    def test_named_streams_are_independent(self):
        assert subseed(7, "edges/1") != subseed(7, "edges/2")
        assert subseed(7, "weights/1") != subseed(8, "weights/1")

    def test_forced_overlap_exact_pairwise(self):
        spec = SynthSpec(100, [(40, 0.02)] * 3, 0.5, 9)
        network = generate(spec)
        member_sets = [layer.nodes for layer in network.layers]
        for i in range(3):
            assert len(member_sets[i]) == 40
            for j in range(i + 1, 3):
                assert len(member_sets[i] & member_sets[j]) == 20

    def test_forced_overlap_two_layers_half(self):
        network = generate(SynthSpec(200, [(100, 0.01), (100, 0.01)], 0.5, 3))
        assert len(network.overlap) == 50

    def test_infeasible_overlap_rejected(self):
        # at construction, before any draw: 8 shared + 2 * 72 exclusive users do not fit in 100
        with pytest.raises(ValueError, match="forced overlap infeasible: need 152 distinct users, universe has 100"):
            SynthSpec(100, [(80, 0.01), (80, 0.01)], 0.1, 1)
        # a single layer has no pair to overlap
        assert len(generate(SynthSpec(100, [(80, 0.01)], 0.1, 1)).universe) == 80

    def test_edge_counts_match_expectation_over_seeds(self):
        n, p = 200, 0.05
        expected = n * (n - 1) * p
        sigma = math.sqrt(n * (n - 1) * p * (1 - p))
        counts = [
            len(generate(SynthSpec(n, [(n, p)], None, seed)).layers[0].edges)
            for seed in range(30)
        ]
        assert abs(np.mean(counts) - expected) <= 3 * sigma / math.sqrt(30)

    def test_paper_scale_average_degrees(self):
        # two 10000-user layers at p=0.0008 and p=0.006: expected average
        # out-degrees 8 and 60, observed within 5%
        spec = SynthSpec(10_000, [(10_000, 0.0008), (10_000, 0.006)], None, 11)
        network = generate(spec)
        degree1 = len(network.layers[0].edges) / 10_000
        degree2 = len(network.layers[1].edges) / 10_000
        assert abs(degree1 - 8.0) / 8.0 < 0.05
        assert abs(degree2 - 60.0) / 60.0 < 0.05

    def test_emergent_overlap_matches_sampling_fraction(self):
        # five 400-user layers from a 1000-user base: any pair shares
        # 400*400/1000 = 160 users in expectation
        spec = SynthSpec(1000, [(400, 0.005)] * 5, None, 13)
        network = generate(spec)
        shares = []
        for i in range(5):
            for j in range(i + 1, 5):
                shares.append(len(network.layers[i].nodes & network.layers[j].nodes))
        assert abs(np.mean(shares) - 160) < 30


def layers_digest(network):
    digest = hashlib.sha256()
    for layer in network.layers:
        digest.update(serialize_layer(layer).encode())
    return digest.hexdigest()


class TestPinnedOutput:
    """Generated layers hash to recorded values, so a change to any
    random stream or to the weight and threshold step shows here.  The
    second network has a layer without edges, which the weight step
    leaves as it is."""

    @pytest.mark.parametrize("build, expected", [
        (lambda: generate(SynthSpec(40, [(30, 0.1), (25, 0.05)], None, 2)),
         "9405ccf5b01f97ad72a316183b13a7fbf60835d0c4bde1dee98e81172bf5a8f4"),
        (lambda: generate(SynthSpec(60, [(20, 0.1), (25, 0.0), (30, 0.08)], 0.4, 5)),
         "c05d3b4bcf50bb94f05b6fc250867d58b653d7ebe2c2537bf2d04190ef3dc730"),
        (lambda: generate(SynthSpec(100, [(40, 0.03)] * 3, 0.5, 9)),
         "11c4cd9fc2bc2f7fea84a0d92c7c76c1fa89cecfeb1dce5562befd3f368b770a"),
        (lambda: small_ilp_instance(0),
         "a70eb5488089c16ad92b9801404631221550d7f80ee04dad6d1b4ec146482784"),
        (lambda: small_ilp_instance(3),
         "c7cf17dc191758578921bb688478a511a3971a13a3624c088d97004bf69c5ee6"),
    ])
    def test_layers_hash_to_recorded_values(self, build, expected):
        assert layers_digest(build()) == expected


class TestSmallIlpInstance:
    def test_universe_and_coupled_size(self):
        network = small_ilp_instance(1)
        assert len(network.universe) == 100
        assert [len(layer.nodes) for layer in network.layers] == [50, 50]
        assert not network.overlap
        coupled = couple(network, "clique")
        assert len(coupled.graph) == 300

    def test_expected_layer_degree_near_two(self):
        degrees = []
        for seed in range(30):
            network = small_ilp_instance(seed)
            for layer in network.layers:
                degrees.append(len(layer.edges) / 50)
        assert np.mean(degrees) == pytest.approx(49 * 0.04, abs=0.1)

    def test_same_seed_identical(self):
        one = small_ilp_instance(5)
        two = small_ilp_instance(5)
        for la, lb in zip(one.layers, two.layers):
            assert serialize_layer(la) == serialize_layer(lb)

    def test_ready_for_pipeline(self):
        assert validate(small_ilp_instance(2)) == []
