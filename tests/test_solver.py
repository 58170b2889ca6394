import io
import re
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from muxlci import (
    COUPLING_SCHEMES,
    DiffusionModel,
    GreedyConfig,
    InfluenceGraph,
    MultiplexNetwork,
    brute_force_optimal,
    couple,
    export_ilp,
    ic_propagate,
    improved_greedy,
    lt_propagate,
    meets_fraction,
    multiplex_lt_propagate,
    st_propagate,
)
from muxlci.coupling import CoupledNetwork, NodeKind
from muxlci.solver import DELTA_MIN_SEEDS

from conftest import make_layer, random_network, random_seed_users
from lp_solve import parse_lp, solve_lp_minimum
from oracles import (
    coupled_lazy_greedy, marginal_gain, multiplex_lazy_greedy, naive_greedy, reference_multiplex_lt_propagate,
    seed_nodes,
)


def flat_coupled(names, edges, thetas):
    """Single-graph instance where every node is seedable (hop scale 1)."""
    graph = InfluenceGraph(names, edges, thetas)
    kinds = {n: NodeKind("user", n) for n in names}
    return CoupledNetwork(graph, kinds, {n: n for n in names}, 1, "lossy-average", 1)


class TestMarginalGain:
    def test_already_covered_candidate_contributes_nothing(self):
        coupled = flat_coupled(
            ["a", "b"], [("a", "b", 1.0)], {"a": 0.5, "b": 0.5}
        )
        assert marginal_gain(coupled, {"a"}, "b", GreedyConfig(1.0, 2)) == 0.0

    def test_isolated_candidate_adds_itself(self):
        coupled = flat_coupled(["a", "b", "c"], [], {"a": 0.5, "b": 0.5, "c": 0.5})
        assert marginal_gain(coupled, {"a"}, "c", GreedyConfig(1.0, 1)) == 1.0

    def test_selected_candidate_rejected(self):
        coupled = flat_coupled(["a", "b"], [], {"a": 0.5, "b": 0.5})
        with pytest.raises(ValueError, match="already selected"):
            marginal_gain(coupled, {"a"}, "a", GreedyConfig(1.0, 1))

    def test_non_domain_candidate_rejected(self, four_user_three_layer):
        coupled = couple(four_user_three_layer, "clique")
        with pytest.raises(ValueError, match="not a seedable"):
            marginal_gain(coupled, set(), "red@1", GreedyConfig(0.5, 1))

    def test_initial_gains_match_single_seed_simulations(self):
        network = random_network(61, max_users=12)
        coupled = couple(network, "clique")
        cfg = GreedyConfig(0.9, 2)
        from muxlci import lt_propagate

        for node in coupled.user_of:
            expected = lt_propagate(coupled.graph, [node], coupled.hop_scale * cfg.hops).coverage_count
            assert marginal_gain(coupled, set(), node, cfg) == expected


class TestNaiveGreedy:
    def test_path_head_covers_everything(self):
        names = [f"p{i}" for i in range(6)]
        edges = [(a, b, 1.0) for a, b in zip(names, names[1:])]
        coupled = flat_coupled(names, edges, {n: 0.5 for n in names})
        seed_set = naive_greedy(coupled, GreedyConfig(1.0, len(names)))
        assert seed_set.users == ["p0"]
        assert seed_set.achieved_fraction == 1.0

    def test_achieves_requested_fraction(self):
        network = random_network(71, max_users=25)
        coupled = couple(network, "clique")
        cfg = GreedyConfig(0.6, 3)
        seed_set = naive_greedy(coupled, cfg)
        assert seed_set.achieved_fraction >= 0.6 - 1e-9
        replay = multiplex_lt_propagate(network, set(seed_set.users), 3)
        assert meets_fraction(replay.coverage_count, 0.6, len(network.universe))

    def test_gain_log_matches_selection_order(self):
        network = random_network(73, max_users=15)
        coupled = couple(network, "clique")
        cfg = GreedyConfig(0.7, 2)
        seed_set = naive_greedy(coupled, cfg)
        assert len(seed_set.gains) == len(seed_set.users)
        nodes = [seed_nodes(coupled, [user])[0] for user in seed_set.users]
        for i, node in enumerate(nodes):
            fresh = marginal_gain(coupled, set(nodes[:i]), node, cfg)
            assert seed_set.gains[i] == pytest.approx(fresh)


class TestImprovedGreedy:
    def test_single_seed_when_beta_tiny(self):
        network = random_network(83, max_users=20)
        coupled = couple(network, "clique")
        seed_set = improved_greedy(coupled, GreedyConfig(0.05, 2))
        assert len(seed_set.users) == 1

    def test_degenerate_parameters_equal_naive(self):
        # R = 1 re-evaluates every candidate in every iteration: the plain
        # greedy, in users, gains, coverages and fractions.  Lossy
        # thresholds fold above 1, outside the stochastic bars' range.
        lossless = ("clique", "star", "reduced-clique", "reduced-star")
        for kind, schemes in (("linear_threshold", COUPLING_SCHEMES),
                              ("independent_cascade", COUPLING_SCHEMES),
                              ("stochastic_threshold", lossless)):
            for seed in (91, 92, 93):
                network = random_network(seed, max_users=40)
                cfg = GreedyConfig(0.9, 2, model=DiffusionModel(kind, mc_samples=6, rng_seed=seed))
                for scheme in schemes:
                    coupled = couple(network, scheme)
                    assert improved_greedy(coupled, replace(cfg, R=1)) == naive_greedy(coupled, cfg), (kind, scheme)

    def test_default_parameters_match_naive_size(self):
        for seed in (101, 102, 103, 104):
            network = random_network(seed, max_users=30)
            coupled = couple(network, "clique")
            assert len(improved_greedy(coupled, GreedyConfig(0.5, 3)).users) == len(
                naive_greedy(coupled, GreedyConfig(0.5, 3)).users
            )

    def test_logged_gains_are_fresh(self):
        network = random_network(107, max_users=20)
        coupled = couple(network, "clique")
        cfg = GreedyConfig(0.7, 2)
        seed_set = improved_greedy(coupled, cfg)
        nodes = [seed_nodes(coupled, [user])[0] for user in seed_set.users]
        for i, node in enumerate(nodes):
            fresh = marginal_gain(coupled, set(nodes[:i]), node, cfg)
            assert seed_set.gains[i] == pytest.approx(fresh)

    def test_deterministic(self):
        network = random_network(109, max_users=25)
        coupled = couple(network, "clique")
        a = improved_greedy(coupled, GreedyConfig(0.6, 3))
        b = improved_greedy(coupled, GreedyConfig(0.6, 3))
        assert a.users == b.users and a.gains == b.gains


def expected_oracle_calls(domain, T, R, selections):
    """Oracle calls of the lazy greedy from its parameters alone: one per
    domain node to fill the heap, then per iteration i (1-based) the whole
    heap of domain - (i - 1) entries when R divides i, else the top
    min(T, heap), plus the base coverage and the popped node's fresh gain.
    The benchmark (muxbench/spans.py, derived_evals) checks a traced run's
    wrapped lt_propagate calls against this count."""
    calls = domain + 2 * selections
    for i in range(1, selections + 1):
        heap = domain - (i - 1)
        calls += heap if i % R == 0 else min(T, heap)
    return calls


class TestPrefixAcrossTargets:
    """The greedies read beta only in their stop test, so a run at a
    smaller target is a prefix of a run at a larger one."""

    MODELS = {
        "lt": DiffusionModel(),
        "ic": DiffusionModel("independent_cascade", mc_samples=6, rng_seed=5),
        "st": DiffusionModel("stochastic_threshold", mc_samples=6, rng_seed=5),
    }

    @pytest.mark.parametrize("solver", [improved_greedy, naive_greedy])
    @pytest.mark.parametrize("seed,scheme,model", [
        (5, "clique", "lt"), (6, "reduced-star", "lt"), (20, "lossy-average", "lt"), (19, "star", "lt"),
        (19, "clique", "ic"), (6, "reduced-star", "ic"), (6, "lossy-average", "ic"),
        # lossy thresholds can exceed 1, which stochastic threshold refuses
        (6, "clique", "st"), (19, "reduced-star", "st"), (20, "star", "st"),
    ])
    def test_smaller_target_is_prefix(self, solver, seed, scheme, model):
        # 22-29 users; at one hop every run takes 3-9 seeds
        network = random_network(seed, max_users=30)
        coupled = couple(network, scheme)

        def config(beta):
            return GreedyConfig(beta, 1, T=3, R=2, model=self.MODELS[model])

        full = solver(coupled, config(0.6))
        assert len(full.coverages) == len(full.users) == len(full.gains)
        assert full.achieved_fraction == full.coverages[-1] / full.total
        assert full.prefix(0.6) == full
        for beta in (0.05, 0.15, 0.3, 0.45, 0.6):
            alone = solver(coupled, config(beta))
            part = full.prefix(beta)
            assert (part.users, part.gains, part.achieved_fraction, part.coverages) == (
                alone.users, alone.gains, alone.achieved_fraction, alone.coverages)
            assert part == alone

    def test_target_beyond_run_rejected(self):
        coupled = flat_coupled(["a", "b", "c"], [], {"a": 0.5, "b": 0.5, "c": 0.5})
        run = improved_greedy(coupled, GreedyConfig(0.5, 1))
        assert run.coverages == [1.0, 2.0] and run.total == 3.0
        assert run.prefix(0.3).users == run.users[:1]
        with pytest.raises(ValueError, match="beyond this run"):
            run.prefix(0.9)


class TestStochasticGreedyPinned:
    """The Monte Carlo greedies' picks and gains, bit for bit.

    Iteration i of either greedy draws every evaluation from rng seed
    ``rng_seed + 7919 * i``; these values pin that stream, the sample
    order and the heap logic under both stochastic models.  Under
    independent cascade, seeds 142 and 144 are cases where the lazy
    greedy parts from the plain one.
    """

    PINNED = {
        (141, "clique", "independent_cascade", "improved_greedy"):
            (["u03", "u16", "u06"], [11.666666666666666, 5.0, 6.333333333333332]),
        (141, "clique", "independent_cascade", "naive_greedy"):
            (["u03", "u16", "u06"], [11.666666666666666, 5.0, 6.333333333333332]),
        (141, "clique", "stochastic_threshold", "improved_greedy"):
            (["u03", "u16"], [17.333333333333332, 5.333333333333332]),
        (141, "clique", "stochastic_threshold", "naive_greedy"):
            (["u03", "u16"], [17.333333333333332, 5.333333333333332]),
        (142, "reduced-star", "independent_cascade", "improved_greedy"):
            (["u05", "u07", "u10", "u03", "u06", "u04", "u18"],
             [2.8333333333333335, 1.666666666666667, 1.833333333333333, 1.0, 1.833333333333333,
              0.6666666666666661, 1.0]),
        (142, "reduced-star", "independent_cascade", "naive_greedy"):
            (["u05", "u07", "u10", "u03", "u06", "u04", "u15"],
             [2.8333333333333335, 1.666666666666667, 1.833333333333333, 1.0, 1.833333333333333,
              0.6666666666666661, 1.166666666666666]),
        (142, "reduced-star", "stochastic_threshold", "improved_greedy"):
            (["u05", "u07", "u10", "u06", "u15"], [3.1666666666666665, 1.9999999999999996, 2.0, 1.666666666666667, 1.0]),
        (142, "reduced-star", "stochastic_threshold", "naive_greedy"):
            (["u05", "u07", "u10", "u06", "u03"], [3.1666666666666665, 1.9999999999999996, 2.0, 1.666666666666667, 1.0]),
        (144, "star", "independent_cascade", "improved_greedy"):
            (["u14", "u07", "u17", "u12"], [12.5, 10.5, -1.5, 8.0]),
        (144, "star", "independent_cascade", "naive_greedy"):
            (["u14", "u07", "u15", "u02"], [12.5, 10.5, 2.5, 2.0]),
        (144, "star", "stochastic_threshold", "improved_greedy"): (["u07", "u11"], [25.5, 8.0]),
        (144, "star", "stochastic_threshold", "naive_greedy"): (["u07", "u11"], [25.5, 8.0]),
    }

    @pytest.mark.parametrize("solver", [improved_greedy, naive_greedy])
    @pytest.mark.parametrize("kind", ["independent_cascade", "stochastic_threshold"])
    @pytest.mark.parametrize("seed,scheme", [(141, "clique"), (142, "reduced-star"), (144, "star")])
    def test_seed_users_and_gains(self, seed, scheme, kind, solver):
        coupled = couple(random_network(seed, max_users=20), scheme)
        cfg = GreedyConfig(0.7, 2, T=3, R=2, model=DiffusionModel(kind, mc_samples=6, rng_seed=seed))
        run = solver(coupled, cfg)
        assert (run.users, run.gains) == self.PINNED[(seed, scheme, kind, solver.__name__)]


class TestCoverageByWeight:
    """The greedies count coverage by node weight, which only the reduced
    couplings set to anything but 1."""

    @given(st.integers(min_value=0, max_value=300), st.sampled_from([0.3, 0.5, 0.7]))
    @pytest.mark.parametrize("solver", [improved_greedy, naive_greedy])
    @pytest.mark.parametrize("scheme", ["reduced-clique", "reduced-star"])
    def test_reduced_default_config_replays_target(self, scheme, solver, seed, beta):
        network = random_network(seed, max_users=20)
        seed_set = solver(couple(network, scheme), GreedyConfig(beta, 2))
        replay = multiplex_lt_propagate(network, set(seed_set.users), 2)
        assert meets_fraction(replay.coverage_count, beta, len(network.universe))

    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=3))
    @pytest.mark.parametrize("scheme", ["clique", "star", "lossy-easiness", "lossy-involvement", "lossy-average"])
    def test_weight_equals_count_off_the_reduced_couplings(self, scheme, seed, hops):
        network = random_network(seed, max_users=20)
        coupled = couple(network, scheme)
        graph = coupled.graph
        seeds = seed_nodes(coupled, random_seed_users(network, seed))
        budget = coupled.hop_scale * hops
        ic = DiffusionModel("independent_cascade", mc_samples=5, rng_seed=seed)
        # lossy thresholds can exceed 1, which default stochastic bounds refuse
        st_model = DiffusionModel("stochastic_threshold", mc_samples=5, rng_seed=seed, st_bounds=1.0)
        assert graph.total_weight == len(graph)
        for outcome in (lt_propagate(graph, seeds, budget), ic_propagate(graph, seeds, budget, ic),
                        st_propagate(graph, seeds, budget, st_model)):
            assert outcome.coverage_weight == outcome.coverage_count


class TestOracleCallCount:
    @pytest.mark.parametrize("seed,scheme,T,R", [
        (151, "clique", 8, 3), (152, "star", 3, 2),
        (153, "reduced-clique", 2, 4), (154, "lossy-average", 5, 1),
    ])
    def test_one_lt_propagate_call_per_evaluation(self, monkeypatch, seed, scheme, T, R):
        import muxlci.solver

        original = muxlci.solver.lt_propagate
        calls = []

        def counting(graph, seeds, hops, base=None):
            outcome = original(graph, seeds, hops, base=base)
            calls.append((outcome, base, graph, list(seeds), hops))
            return outcome

        monkeypatch.setattr(muxlci.solver, "lt_propagate", counting)
        network = random_network(seed, max_users=30)
        coupled = couple(network, scheme)
        domain = len(coupled.user_of)
        seed_set = improved_greedy(coupled, GreedyConfig(0.6, 2, T=T, R=R))
        selections = len(seed_set.users)
        assert len(calls) == expected_oracle_calls(domain, T, R, selections)
        for outcome, *_ in calls:
            per_hop = outcome.active.per_hop
            assert sum(len(hop) for hop in per_hop) == len(outcome.active.members) == outcome.coverage_count
            assert set().union(*per_hop) == outcome.active.members
        # heap initialisation and the first base run are full runs; from
        # iteration 2 on, the base run starts from the previous iteration's
        # fresh run, which equals a full run of its seeds; every heavy,
        # light and fresh evaluation of an iteration that starts from
        # DELTA_MIN_SEEDS seeds or more gets the iteration's base run
        assert all(base is None for _, base, *_ in calls[:domain])
        position = domain
        fresh = None
        for i in range(1, selections + 1):
            heap = domain - (i - 1)
            evaluations = (heap if i % R == 0 else min(T, heap)) + 1
            run, run_base, *_ = calls[position]
            assert run_base is fresh
            expected = run if i - 1 >= DELTA_MIN_SEEDS else None
            assert all(base is expected for _, base, *_ in calls[position + 1:position + 1 + evaluations])
            position += 1 + evaluations
            fresh, _, graph, seeds, hops = calls[position - 1]
            assert len(seeds) == i
            assert fresh == original(graph, seeds, hops)
        assert position == len(calls)

    @pytest.mark.parametrize("kind, scheme, name", [
        ("independent_cascade", "clique", "ic_propagate"),
        ("stochastic_threshold", "reduced-star", "st_propagate"),
    ])
    def test_stochastic_evaluations_take_no_base(self, monkeypatch, kind, scheme, name):
        import muxlci.solver

        original = getattr(muxlci.solver, name)
        calls = []

        def counting(graph, seeds, hops, model, **kwargs):
            calls.append(seeds)
            return original(graph, seeds, hops, model, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("a stochastic greedy ran deterministic LT")

        monkeypatch.setattr(muxlci.solver, name, counting)
        monkeypatch.setattr(muxlci.solver, "lt_propagate", refuse)
        network = random_network(155, max_users=20, max_layers=2)
        coupled = couple(network, scheme)
        cfg = GreedyConfig(0.9, 2, T=3, R=2, model=DiffusionModel(kind, mc_samples=3, rng_seed=5))
        seed_set = improved_greedy(coupled, cfg)
        assert len(seed_set.users) > DELTA_MIN_SEEDS
        assert len(calls) == expected_oracle_calls(len(coupled.user_of), 3, 2, len(seed_set.users))


    @pytest.mark.parametrize("scheme, R", [("reduced-star", 2), ("clique", 1)])
    def test_stochastic_threshold_draws_once_per_iteration(self, monkeypatch, scheme, R):
        # heap initialisation and every selection draw their bars once;
        # every evaluation of the iteration reuses them
        import muxlci.solver

        original = muxlci.solver._st_bars
        draws = []

        def counting(graph, model):
            draws.append(model.rng_seed)
            return original(graph, model)

        monkeypatch.setattr(muxlci.solver, "_st_bars", counting)
        network = random_network(156, max_users=20, max_layers=2)
        coupled = couple(network, scheme)
        model = DiffusionModel("stochastic_threshold", mc_samples=3, rng_seed=5)
        seed_set = improved_greedy(coupled, GreedyConfig(0.9, 2, T=3, R=R, model=model))
        selections = len(seed_set.users)
        assert selections > DELTA_MIN_SEEDS
        assert draws == [5 + 7919 * i for i in range(selections + 1)]


class TestEvaluationLog:
    """The SeedSet of improved_greedy logs its own work: the heap
    initialisation, and per iteration heavy or light, its re-evaluations,
    the popped node's stale key and fresh gain, and its kernel calls."""

    MODELS = {
        "linear_threshold": ("lt_propagate", DiffusionModel()),
        "independent_cascade": ("ic_propagate", DiffusionModel("independent_cascade", mc_samples=3, rng_seed=5)),
        "stochastic_threshold": ("st_propagate", DiffusionModel("stochastic_threshold", mc_samples=3, rng_seed=5)),
    }

    @pytest.mark.parametrize("kind", list(MODELS))
    @pytest.mark.parametrize("seed,scheme,T,R", [
        (151, "clique", 8, 3), (152, "star", 3, 2), (153, "reduced-clique", 2, 4), (154, "reduced-star", 5, 1),
    ])
    def test_split_equals_the_derived_calls(self, kind, seed, scheme, T, R):
        coupled = couple(random_network(seed, max_users=30), scheme)
        domain = len(coupled.user_of)
        seed_set = improved_greedy(coupled, GreedyConfig(0.6, 2, T=T, R=R, model=self.MODELS[kind][1]))
        selections = len(seed_set.users)
        assert seed_set.init_evaluations == domain and len(seed_set.iterations) == selections
        split = []
        for i in range(1, selections + 1):
            heap = domain - (i - 1)
            split.append((True, heap) if i % R == 0 else (False, min(T, heap)))
        assert [(it.heavy, it.evaluations) for it in seed_set.iterations] == split
        evaluations = seed_set.init_evaluations + sum(it.evaluations + 2 for it in seed_set.iterations)
        assert evaluations == expected_oracle_calls(domain, T, R, selections)

    @pytest.mark.parametrize("kind", list(MODELS))
    def test_kernel_calls_equal_the_wrapped_calls(self, monkeypatch, kind):
        # a marker per begin() splits the wrapped calls by iteration:
        # heap initialisation follows begin(0), iteration i begin(i)
        import muxlci.solver

        name, model = self.MODELS[kind]
        original, begin = getattr(muxlci.solver, name), muxlci.solver._Evaluator.begin
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        def marking(evaluator, iteration, selected):
            calls.append(iteration)
            return begin(evaluator, iteration, selected)

        monkeypatch.setattr(muxlci.solver, name, counting)
        monkeypatch.setattr(muxlci.solver._Evaluator, "begin", marking)
        coupled = couple(random_network(157, max_users=25), "reduced-star")
        seed_set = improved_greedy(coupled, GreedyConfig(0.8, 2, T=3, R=2, model=model))
        assert len(seed_set.users) > DELTA_MIN_SEEDS
        marks = [i for i, call in enumerate(calls) if call is not None] + [len(calls)]
        assert [calls[i] for i in marks[:-1]] == list(range(len(seed_set.users) + 1))
        per_iteration = [b - a - 1 for a, b in zip(marks, marks[1:])]
        assert per_iteration == [seed_set.init_kernel_calls, *(it.kernel_calls for it in seed_set.iterations)]
        assert seed_set.init_kernel_calls == len(coupled.user_of)

    @pytest.mark.parametrize("kind", list(MODELS))
    @pytest.mark.parametrize("seed", [91, 92])
    def test_plain_greedy_pops_fresh_keys(self, kind, seed):
        # at R = 1 every iteration rebuilds the heap from the same base
        # and random numbers as the fresh gain, so no key is stale
        coupled = couple(random_network(seed, max_users=30), "clique")
        cfg = GreedyConfig(0.9, 2, R=1, model=self.MODELS[kind][1])
        seed_set = improved_greedy(coupled, cfg)
        assert all(it.heavy for it in seed_set.iterations)
        assert [it.stale for it in seed_set.iterations] == seed_set.gains

    @pytest.mark.parametrize("kind", list(MODELS))
    @pytest.mark.parametrize("seed,scheme,T,R", [(161, "clique", 3, 2), (162, "lossy-average", 2, 3)])
    def test_full_rerun_greedy_logs_the_same_iterations(self, kind, seed, scheme, T, R):
        coupled = couple(random_network(seed, max_users=25), scheme)
        model = self.MODELS[kind][1]
        if kind == "stochastic_threshold":
            model = replace(model, st_bounds=1.0)  # lossy thresholds fold above 1
        cfg = GreedyConfig(0.7, 2, T=T, R=R, model=model)
        ours, theirs = improved_greedy(coupled, cfg), coupled_lazy_greedy(coupled, cfg)
        assert ours.iterations == theirs.iterations and ours == theirs
        assert all(it.kernel_calls is None for it in theirs.iterations)


class TestFullRerunGreedy:
    """improved_greedy equals its heap loop over full reruns under every
    model: the evaluator's base runs, delta runs and per-iteration rng
    seeds change no user, gain or coverage."""

    @pytest.mark.parametrize("kind", ["linear_threshold", "independent_cascade", "stochastic_threshold"])
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(COUPLING_SCHEMES),
           st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4))
    def test_improved_greedy_equals_full_rerun_greedy(self, kind, seed, scheme, T, R):
        network = random_network(seed, max_users=25)
        coupled = couple(network, scheme)
        # lossy thresholds fold above 1, outside the default stochastic bounds
        bounds = 1.0 if scheme.startswith("lossy-") else None
        model = DiffusionModel(kind, mc_samples=3, rng_seed=seed, st_bounds=bounds)
        cfg = GreedyConfig(0.7, 2, T=T, R=R, model=model)
        ours = improved_greedy(coupled, cfg)
        theirs = coupled_lazy_greedy(coupled, cfg)
        assert (ours.users, ours.gains, ours.coverages) == (theirs.users, theirs.gains, theirs.coverages)


class TestLosslessSchemesMatchMultiplexOracle:
    """Under deterministic LT the four lossless couplings scale multiplex
    coverage exactly (criterion 1), so both greedies pick the users the
    lazy greedy picks on the multiplex itself, with gains times the
    scheme's per-user node count or weight."""

    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([0.3, 0.5, 0.7, 1.0]),
           st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4))
    def test_greedies_equal_multiplex_lazy_greedy(self, seed, beta, hops, T, R):
        network = random_network(seed, max_users=30)
        lazy = multiplex_lazy_greedy(network, beta, hops, T, R)
        eager = multiplex_lazy_greedy(network, beta, hops, T, 1)
        for scheme in ("clique", "star", "reduced-clique", "reduced-star"):
            coupled = couple(network, scheme)
            scale = coupled.graph.total_weight / len(coupled.user_of)
            cfg = GreedyConfig(beta, hops, T=T, R=R)
            for seed_set, (users, gains) in ((improved_greedy(coupled, cfg), lazy),
                                             (naive_greedy(coupled, cfg), eager)):
                assert seed_set.users == users
                assert [gain / scale for gain in seed_set.gains] == gains


class TestBruteForce:
    def test_two_isolated_users_need_two_seeds(self):
        network = MultiplexNetwork([make_layer(1, {}, {"a": 0.5, "b": 0.5})])
        seed_set = brute_force_optimal(network, 1.0, 2)
        assert sorted(seed_set.users) == ["a", "b"]

    def test_single_seed_when_cascade_reaches_target(self):
        layer = make_layer(
            1, {("a", "b"): 1.0, ("b", "c"): 1.0}, {"a": 0.5, "b": 0.5, "c": 0.5}
        )
        network = MultiplexNetwork([layer])
        seed_set = brute_force_optimal(network, 1.0, 2)
        assert seed_set.users == ["a"]

    def test_cap_enforced(self):
        from muxlci import SynthSpec, generate

        network = generate(SynthSpec(30, [(30, 0.05)], None, 113))
        with pytest.raises(ValueError, match="brute-force cap"):
            brute_force_optimal(network, 0.5, 2)

    def test_minimality_by_exhaustive_check(self):
        network = random_network(127, max_users=9)
        beta, hops = 0.7, 2
        optimum = brute_force_optimal(network, beta, hops)
        n = len(network.universe)
        import itertools

        for size in range(len(optimum.users)):
            for combo in itertools.combinations(sorted(network.universe), size):
                outcome = multiplex_lt_propagate(network, set(combo), hops)
                assert not meets_fraction(outcome.coverage_count, beta, n)

    @pytest.mark.parametrize("seed,beta,hops", [(127, 0.7, 2), (137, 0.6, 3), (151, 0.5, 1), (163, 0.9, 4)])
    def test_same_optimum_as_reference_kernel(self, monkeypatch, seed, beta, hops):
        import muxlci.solver

        network = random_network(seed, max_users=9)
        optimum = brute_force_optimal(network, beta, hops)
        monkeypatch.setattr(muxlci.solver, "multiplex_lt_propagate", reference_multiplex_lt_propagate)
        assert brute_force_optimal(network, beta, hops) == optimum

    @pytest.mark.parametrize("seed,beta,hops", [(3, 0.6, 2), (127, 0.7, 2), (163, 0.9, 4)])
    def test_record_is_prefix_shaped(self, seed, beta, hops):
        """Like a greedy record, the optimum logs each prefix's coverage
        out of the user count, so it is its own prefix at its fraction."""
        network = random_network(seed, max_users=10)
        optimum = brute_force_optimal(network, beta, hops)
        users = optimum.users
        assert optimum.total == len(network.universe)
        assert optimum.coverages == [multiplex_lt_propagate(network, set(users[:i]), hops).coverage_count
                                     for i in range(1, len(users) + 1)]
        assert optimum.gains == [b - a for a, b in zip([0.0] + optimum.coverages, optimum.coverages)]
        assert optimum.achieved_fraction == optimum.coverages[-1] / optimum.total
        assert optimum.prefix(optimum.achieved_fraction).users == users

    def test_greedy_never_beats_optimum(self):
        network = random_network(137, max_users=8)
        optimum = brute_force_optimal(network, 0.6, 2)
        coupled = couple(network, "clique")
        greedy = improved_greedy(coupled, GreedyConfig(0.6, 2))
        assert len(greedy.users) >= len(optimum.users)


class TestIlpExport:
    def test_single_node_program(self):
        coupled = flat_coupled(["v"], [], {"v": 0.5})
        buffer = io.StringIO()
        summary = export_ilp(coupled, GreedyConfig(1.0, 1), buffer)
        text = buffer.getvalue()
        assert summary == {"variables": 2, "constraints": 3, "nodes": 1, "rounds": 1}
        assert "Minimize" in text and "Binaries" in text and text.rstrip().endswith("End")
        c, matrix, lower, names = parse_lp(text)
        assert names == ["x_v_0", "x_v_1"]
        assert list(c) == [1.0, 0.0]

    def test_triangle_constraint_counts(self):
        names = ["a", "b", "c"]
        edges = [("a", "b", 0.6), ("b", "c", 0.6), ("c", "a", 0.6)]
        coupled = flat_coupled(names, edges, {n: 0.5 for n in names})
        buffer = io.StringIO()
        summary = export_ilp(coupled, GreedyConfig(1.0, 2), buffer)
        assert summary["variables"] == 9
        assert summary["constraints"] == 1 + 6 + 6
        text = buffer.getvalue()
        assert text.count("act_") == 6
        assert text.count("mono_") == 6
        assert text.count("cover:") == 1

    @pytest.mark.parametrize("seed,beta", [(139, 0.6), (140, 0.5), (141, 0.8)])
    def test_solved_program_matches_brute_force(self, seed, beta):
        # dual route: exhaustive search on the network vs an external
        # MILP solver on the exported program
        network = random_network(seed, max_users=8)
        optimum = brute_force_optimal(network, beta, 2)
        coupled = couple(network, "clique")
        buffer = io.StringIO()
        export_ilp(coupled, GreedyConfig(beta, 2), buffer)
        assert solve_lp_minimum(buffer.getvalue()) == len(optimum.users)

    def test_weight_mode_program_matches_brute_force(self):
        for seed in (143, 144):
            network = random_network(seed, max_users=8)
            optimum = brute_force_optimal(network, 0.6, 2)
            reduced = couple(network, "reduced-clique")
            buffer = io.StringIO()
            export_ilp(reduced, GreedyConfig(0.6, 2), buffer)
            assert solve_lp_minimum(buffer.getvalue()) == len(optimum.users)

    def test_colliding_sanitized_names_fall_back_to_indices(self):
        coupled = flat_coupled(
            ["a@g", "a_g"], [("a@g", "a_g", 1.0)], {"a@g": 0.5, "a_g": 0.5}
        )
        buffer = io.StringIO()
        export_ilp(coupled, GreedyConfig(1.0, 1), buffer)
        _, _, _, names = parse_lp(buffer.getvalue())
        assert names == ["x_n0_0", "x_n0_1", "x_n1_0", "x_n1_1"]

    def test_weight_mode_uses_node_weights(self, two_layer_toy):
        # the cover row is the greedy's coverage: node weights, rhs beta * total weight
        coupled = couple(two_layer_toy, "reduced-clique")
        buffer = io.StringIO()
        export_ilp(coupled, GreedyConfig(0.5, 1), buffer)
        _, matrix, lower, _ = parse_lp(buffer.getvalue())
        graph = coupled.graph
        # variables run node by node over rounds 0..2; the cover row reads round 2
        assert list(matrix.toarray()[0][2::3]) == graph.node_weight
        assert lower[0] == 0.5 * graph.total_weight
        assert 0.0 in graph.node_weight  # a user in every layer weighs 0 and drops out of the row

    def test_deterministic_output(self, four_user_three_layer):
        coupled = couple(four_user_three_layer, "clique")
        bufs = []
        for _ in range(2):
            buffer = io.StringIO()
            export_ilp(coupled, GreedyConfig(0.4, 2), buffer)
            bufs.append(buffer.getvalue())
        assert bufs[0] == bufs[1]


def test_config_validation():
    with pytest.raises(ValueError, match="beta"):
        GreedyConfig(0.0, 2)
    with pytest.raises(ValueError, match="^hops must be >= 1$"):
        GreedyConfig(0.5, 0)
    with pytest.raises(ValueError, match="^T must be >= 1$"):
        GreedyConfig(0.5, 2, T=0)
    with pytest.raises(ValueError, match="^R must be >= 1$"):
        GreedyConfig(0.5, 2, R=0)
    # deterministic linear threshold is a DiffusionModel too, and the default
    assert GreedyConfig(0.5, 2).model == DiffusionModel("linear_threshold")
    with pytest.raises(ValueError, match="^model must be a DiffusionModel, not None$"):
        GreedyConfig(0.5, 2, model=None)


@pytest.mark.parametrize("beta", [0.0, -0.2, 1.5, float("nan"), True, "0.5"])
def test_config_rejects_bad_beta(beta):
    # a bool is not a number here: True would otherwise solve at beta = 1
    with pytest.raises(ValueError, match=re.escape(f"beta {beta!r} is not a number in (0, 1]")):
        GreedyConfig(beta, 2)


@pytest.mark.parametrize("field, value", [
    ("hops", 2.5), ("hops", True), ("T", 2.5), ("T", "8"), ("R", 1.5), ("R", False),
])
def test_config_rejects_non_integer_counts(field, value):
    fields = {"hops": 2, "T": 8, "R": 3, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer, not {value!r}$"):
        GreedyConfig(0.5, **fields)

