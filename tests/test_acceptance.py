"""Acceptance suite: every release gate re-verified at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them all).
The optimality gate solves exact covering programs with an external MILP
solver and is the slow test of the suite.
"""

import math
import time

import pytest

from muxlci import (
    DiffusionModel,
    GreedyConfig,
    SynthSpec,
    couple,
    generate,
    ic_propagate,
    improved_greedy,
    lt_propagate,
    multiplex_lt_propagate,
    small_ilp_instance,
    st_propagate,
    subseed,
)
from muxlci.diffusion import InfluenceGraph
from muxlci.experiment import solve_pipeline, union_baseline

from conftest import random_network, random_seed_users
from oracles import bfs_reachable, naive_greedy


def report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def corpus200():
    instances = []
    for seed in range(200):
        network = random_network(seed, max_users=50, max_layers=3)
        seeds = random_seed_users(network, seed, max_size=5)
        hops = (seed % 4) + 1
        instances.append((network, seeds, hops))
    return instances


def blowup_nodes(network, users, with_hub):
    expected = set()
    for user in users:
        expected.add(user + "@g")
        for i in range(1, network.k + 1):
            expected.add(f"{user}@{i}")
        if with_hub:
            expected.add(user + "@s")
    return expected


def test_criterion_1_lossless_equivalence_suite(corpus200):
    started = time.perf_counter()
    checked = 0
    for network, seeds, hops in corpus200:
        direct = multiplex_lt_propagate(network, seeds, hops).active.members

        clique = couple(network, "clique")
        out2 = lt_propagate(clique.graph, clique.seed_nodes(seeds), 2 * hops)
        assert clique.active_users(out2.active.members) == direct
        assert out2.active.members == blowup_nodes(network, direct, with_hub=False)
        for hop, members in enumerate(out2.active.per_hop):
            if hop % 2 == 1:
                assert not any(clique.kinds[m].kind == "gateway" for m in members)

        star = couple(network, "star")
        out3 = lt_propagate(star.graph, star.seed_nodes(seeds), 3 * hops)
        assert star.active_users(out3.active.members) == direct
        assert out3.active.members == blowup_nodes(network, direct, with_hub=True)
        checked += 1
    elapsed = time.perf_counter() - started
    report(
        "criterion 1 lossless equivalence",
        checked == 200 and elapsed < 60.0,
        f"{checked}/200 instances exact (clique@2d, star@3d, gateway parity) in {elapsed:.1f}s",
    )


def test_criterion_2_size_and_scale_up_formulas(corpus200):
    for network, seeds, hops in corpus200:
        n = len(network.universe)
        k = network.k
        m = sum(len(layer.edges) for layer in network.layers)
        layer_nodes = sum(len(layer.nodes) for layer in network.layers)
        active = len(multiplex_lt_propagate(network, seeds, hops).active.members)

        clique = couple(network, "clique")
        assert len(clique.graph) == (k + 1) * n
        assert sum(len(t) for t in clique.graph.out) == m + n * k * (k + 1)
        out2 = lt_propagate(clique.graph, clique.seed_nodes(seeds), 2 * hops)
        assert len(out2.active.members) == (k + 1) * active

        star = couple(network, "star")
        assert len(star.graph) == (k + 2) * n
        assert sum(len(t) for t in star.graph.out) == m + 2 * n * (k + 1)
        out3 = lt_propagate(star.graph, star.seed_nodes(seeds), 3 * hops)
        # star adds one synchronization hub per user, so its exact
        # active-vertex multiple is k+2 (the clique scheme gives k+1)
        assert len(out3.active.members) == (k + 2) * active

        assert len(couple(network, "reduced-clique").graph) == layer_nodes + n
        assert len(couple(network, "reduced-star").graph) == layer_nodes + 2 * n
    report(
        "criterion 2 size and scale-up formulas",
        True,
        "|V|, |E| closed forms and lossless active-vertex multiples exact on 200/200",
    )


def test_criterion_3_reduced_weighted_equivalence(corpus200):
    worst = 0.0
    for network, seeds, hops in corpus200:
        user_fraction = (
            len(multiplex_lt_propagate(network, seeds, hops).active.members)
            / len(network.universe)
        )
        for sync, scale in (("clique", 2), ("star", 3)):
            reduced = couple(network, "reduced-" + sync)
            out = lt_propagate(reduced.graph, reduced.seed_nodes(seeds), scale * hops)
            weighted = out.coverage_weight / reduced.graph.total_weight
            worst = max(worst, abs(weighted - user_fraction))
    report(
        "criterion 3 reduced weighted equivalence",
        worst <= 1e-9,
        f"max |weighted fraction - user fraction| = {worst:.2e} over 200 instances x 2 syncs",
    )


def test_criterion_4_lossy_soundness(corpus200):
    violations = 0
    checked = 0
    for network, seeds, hops in corpus200[:100]:
        n = len(network.universe)
        direct_fraction = (
            multiplex_lt_propagate(network, seeds, hops).coverage_count / n
        )
        for kind in ("easiness", "involvement", "average"):
            lossy = couple(network, "lossy-" + kind)
            out = lt_propagate(lossy.graph, lossy.seed_nodes(seeds), hops)
            lossy_fraction = out.coverage_count / len(lossy.graph)
            checked += 1
            # any beta at which this seed set is lossy-feasible is also
            # reached on direct replay
            if direct_fraction < lossy_fraction - 1e-12:
                violations += 1
    for seed in range(20):
        network = random_network(300 + seed, max_users=40)
        for kind in ("easiness", "involvement", "average"):
            lossy = couple(network, "lossy-" + kind)
            chosen = improved_greedy(lossy, GreedyConfig(0.4, 3))
            replay = multiplex_lt_propagate(network, set(chosen.users), 3)
            checked += 1
            if replay.coverage_count / len(network.universe) < 0.4 - 1e-9:
                violations += 1
    report(
        "criterion 4 lossy soundness",
        violations == 0,
        f"0 violations required, got {violations} over {checked} checks "
        "(3 parameterizations; random and greedy seed sets)",
    )


@pytest.mark.slow
def test_criterion_5_near_optimality_small_family():
    from lp_solve import solve_lp_minimum
    from optimality import optimum_for_targets
    import io

    from muxlci import export_ilp

    started = time.perf_counter()
    network = small_ilp_instance(1)
    assert not network.overlap  # decomposition precondition
    n = len(network.universe)
    clique = couple(network, "clique")
    betas = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    targets = sorted({math.ceil(beta * n - 1e-9) for beta in betas})

    greedy_sizes = {}
    for hops in (2, 3, 4, 5):
        for beta in betas:
            chosen = improved_greedy(clique, GreedyConfig(beta, hops))
            greedy_sizes[(beta, hops)] = len(chosen.users)

    gaps = {}
    for hops in (3, 4, 5):
        optima = optimum_for_targets(network, hops, targets)
        for beta in betas:
            target = math.ceil(beta * n - 1e-9)
            gaps[(beta, hops)] = greedy_sizes[(beta, hops)] - optima[target]

    # cross-check the decomposition against a full-instance program
    # solved from the exported LP text (cheap cells only)
    flat = couple(network, "lossy-average")
    for beta, hops in ((0.2, 3), (0.3, 4)):
        buffer = io.StringIO()
        export_ilp(flat, GreedyConfig(beta, hops), buffer)
        full_model = solve_lp_minimum(buffer.getvalue())
        decomposed = optimum_for_targets(network, hops, [math.ceil(beta * n - 1e-9)])
        assert full_model == decomposed[math.ceil(beta * n - 1e-9)]

    elapsed = time.perf_counter() - started
    worst = max(gaps.values())
    lines = ", ".join(
        f"b={beta} d={hops}: +{gap}" for (beta, hops), gap in sorted(gaps.items()) if gap > 0
    ) or "all gaps 0"
    report(
        "criterion 5 near-optimality",
        worst <= 2 and elapsed < 600.0,
        f"21 cells at d>=3, worst greedy-vs-optimum gap = +{worst} ({lines}) in {elapsed:.0f}s",
    )


def test_enumerated_curve_entries_match_milp():
    # criterion 5 takes budgets up to 4 from enumeration; both methods must
    # give the same optimum where the MILP is cheap
    from lp_solve import max_coverage
    from optimality import enumerated_coverage, layer_graphs

    graphs = layer_graphs(small_ilp_instance(1))
    cells = [(graph, hops, 1) for graph in graphs for hops in (3, 4, 5)] + [(graphs[0], 3, 2)]
    for graph, hops, budget in cells:
        assert enumerated_coverage(graph, hops, budget) == max_coverage(graph, hops, budget)


def test_criterion_6_lazy_greedy_fidelity():
    size_mismatches = 0
    element_mismatches = 0
    for i in range(20):
        network = random_network(200 + i, max_users=40)
        coupled = couple(network, "clique")
        beta = 0.4 if i % 2 == 0 else 0.6
        reference = naive_greedy(coupled, GreedyConfig(beta, 3))
        lazy = improved_greedy(coupled, GreedyConfig(beta, 3))
        if len(lazy.users) != len(reference.users):
            size_mismatches += 1
        collapsed = improved_greedy(
            coupled, GreedyConfig(beta, 3, T=len(coupled.user_of), R=1)
        )
        if collapsed.users != reference.users:
            element_mismatches += 1
    report(
        "criterion 6 lazy greedy fidelity",
        size_mismatches == 0 and element_mismatches == 0,
        f"20-instance corpus: {size_mismatches} size mismatches (defaults), "
        f"{element_mismatches} element mismatches (T=n, R=1)",
    )


def test_criterion_7_protocol_trends():
    # (a) pooling per-layer solutions loses to coupling
    union_larger = 0
    for rep in range(10):
        network = generate(SynthSpec(50, [(30, 0.12), (30, 0.12)], 0.5, subseed(1000, f"a/{rep}")))
        cfg = GreedyConfig(0.5, 3)
        pooled = union_baseline(network, cfg)
        coupled = solve_pipeline(network, "clique", cfg)
        union_larger += pooled["seed_size"] > coupled["seed_size"]

    # (b) seed size non-increasing as the layer count grows at a fixed
    # absolute coverage target
    monotone = 0
    for rep in range(10):
        sizes = []
        for k in (2, 3, 4, 5):
            network = generate(SynthSpec(120, [(60, 0.03)] * k, None, subseed(2000, f"b/{rep}/{k}")))
            effective = min(1.0, 0.6 * 120 / len(network.universe))
            sizes.append(solve_pipeline(network, "clique", GreedyConfig(effective, 4))["seed_size"])
        monotone += all(a >= b for a, b in zip(sizes, sizes[1:]))

    # (c) overlapping users over-represented among seeds
    over_represented = 0
    for rep in range(10):
        network = generate(SynthSpec(100, [(50, 0.04), (50, 0.04)], 0.2, subseed(3000, f"c/{rep}")))
        result = solve_pipeline(network, "clique", GreedyConfig(0.4, 2))
        shared = network.overlap
        seeds = set(result["seed_users"])
        seed_share = len(seeds & shared) / len(seeds)
        population_share = len(shared) / len(network.universe)
        over_represented += seed_share > population_share

    report(
        "criterion 7 protocol trends",
        union_larger >= 9 and monotone >= 9 and over_represented >= 9,
        f"union larger {union_larger}/10, k-sweep non-increasing {monotone}/10, "
        f"overlap over-represented {over_represented}/10 (>=9 required each)",
    )


def test_criterion_8_stochastic_model_sanity():
    import random as pyrandom

    rng = pyrandom.Random(5)
    names = [f"n{i}" for i in range(20)]
    edges = [(a, b, 1.0) for a in names for b in names if a != b and rng.random() < 0.12]
    graph = InfluenceGraph(names, edges, {n: 0.5 for n in names})
    model = DiffusionModel("independent_cascade", mc_samples=5, rng_seed=0)
    cascade = ic_propagate(graph, {"n0", "n1"}, 3, model)
    reach = bfs_reachable(graph, {"n0", "n1"}, 3)
    ic_exact = cascade.active.members == reach and cascade.coverage_count == len(reach)

    leaves = [f"l{i}" for i in range(5)]
    star = InfluenceGraph(
        ["c"] + leaves,
        [("c", leaf, 0.4) for leaf in leaves],
        {**{leaf: 0.8 for leaf in leaves}, "c": 0.8},
    )
    st_model = DiffusionModel("stochastic_threshold", mc_samples=10_000, rng_seed=5)
    st_mean = st_propagate(star, {"c"}, 1, st_model).coverage_count - 1.0
    st_ok = abs(st_mean - 2.5) <= 0.1

    again = st_propagate(star, {"c"}, 1, st_model).coverage_count - 1.0
    cascade2 = ic_propagate(graph, {"n0", "n1"}, 3, model)
    reproducible = again == st_mean and cascade2.coverage_count == cascade.coverage_count

    report(
        "criterion 8 stochastic model sanity",
        ic_exact and st_ok and reproducible,
        f"IC@w=1 equals 3-hop reachability: {ic_exact}; "
        f"ST star mean {st_mean:.3f} within 2.5+-0.1; seed-reproducible: {reproducible}",
    )
