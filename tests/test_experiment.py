import contextlib
import csv
import dataclasses
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import muxlci.experiment
from muxlci import (
    DiffusionModel,
    GreedyConfig,
    InfluenceGraph,
    couple,
    brute_force_optimal,
    improved_greedy,
    multiplex_lt_propagate,
)
from muxlci.cli import main
from muxlci.experiment import (
    CSV_FIELDS,
    ExperimentSpec,
    external_influence_fraction,
    only_baseline,
    run_experiment,
    seed_composition,
    solve_pipeline,
    union_baseline,
    write_rows_csv,
)

from conftest import DEPTH, half_weight_sync, make_layer, random_network
from oracles import reference_external_influence, reference_run_experiment


@pytest.fixture
def overlap_network():
    from muxlci import SynthSpec, generate

    return generate(SynthSpec(50, [(30, 0.12), (30, 0.12)], 0.5, 21))


class TestSolvePipeline:
    def test_lossless_replay_equals_coupled_fraction(self, overlap_network):
        cfg = GreedyConfig(0.5, 3)
        result = solve_pipeline(overlap_network, "clique", cfg)
        assert result["replayed_fraction"] == pytest.approx(result["coupled_fraction"], abs=1e-12)
        assert result["replayed_fraction"] >= 0.5 - 1e-9

    def test_reduced_replay_equals_weighted_fraction(self, overlap_network):
        cfg = GreedyConfig(0.5, 3)
        result = solve_pipeline(overlap_network, "reduced-star", cfg)
        assert result["replayed_fraction"] == pytest.approx(result["coupled_fraction"], abs=1e-9)

    def test_lossy_replay_at_least_target(self, overlap_network):
        cfg = GreedyConfig(0.5, 3)
        result = solve_pipeline(overlap_network, "lossy-easiness", cfg)
        assert result["replayed_fraction"] >= 0.5 - 1e-9
        assert result["replayed_fraction"] >= result["coupled_fraction"] - 1e-12

    def test_metadata_complete(self, overlap_network):
        result = solve_pipeline(overlap_network, "clique", GreedyConfig(0.4, 2))
        assert set(result) == {
            "scheme", "beta", "hops", "T", "R", "seed_users", "gains", "seed_size",
            "achieved_fraction", "coupled_fraction", "replayed_fraction", "replay_outcome",
            "wall_time_ms", "model", "network", "version", "replay_model", "target_in_expectation",
            "evaluations", "max_stale_gap",
        }

    def test_record_names_its_replay_model(self, overlap_network):
        # a greedy on a Monte Carlo mean meets its target in expectation;
        # every replay is deterministic linear threshold, and brute force
        # reads no model
        st_model = DiffusionModel("stochastic_threshold", mc_samples=5)
        for scheme, model, in_expectation in (("clique", st_model, True), ("clique", DiffusionModel(), False),
                                              ("direct", st_model, False)):
            network = random_network(151, max_users=8) if scheme == "direct" else overlap_network
            result = solve_pipeline(network, scheme, GreedyConfig(0.4, 2, model=model))
            assert result["replay_model"] == "linear_threshold"
            assert result["target_in_expectation"] is in_expectation

    def test_direct_uses_brute_force(self):
        network = random_network(151, max_users=8)
        result = solve_pipeline(network, "direct", GreedyConfig(0.6, 2))
        optimum = brute_force_optimal(network, 0.6, 2)
        assert result["seed_users"] == optimum.users
        assert result["gains"] == optimum.gains
        assert result["achieved_fraction"] == result["replayed_fraction"] == optimum.achieved_fraction
        assert result["coupled_fraction"] is None


class TestRecordedWork:
    """Every record carries the greedy's work from its SeedSet log:
    ``evaluations`` and ``max_stale_gap``."""

    def test_solve_record_reads_the_greedy_log(self, overlap_network):
        cfg = GreedyConfig(0.6, 2, T=3, R=2)
        seed_set = improved_greedy(couple(overlap_network, "clique"), cfg)
        result = solve_pipeline(overlap_network, "clique", cfg)
        assert result["evaluations"] == seed_set.evaluations
        assert result["evaluations"] == seed_set.init_evaluations + sum(
            it.evaluations + 2 for it in seed_set.iterations)
        assert result["max_stale_gap"] == seed_set.max_stale_gap == max(
            abs(it.stale - gain) for it, gain in zip(seed_set.iterations, seed_set.gains))

    def test_baselines_read_their_layers_logs(self, overlap_network):
        cfgs = [GreedyConfig(0.3, 2), GreedyConfig(0.6, 2)]
        memo = {}
        layers = [only_baseline(overlap_network, i, cfgs, memo) for i in (1, 2)]
        for row, *per_layer in zip(union_baseline(overlap_network, cfgs, memo), *layers):
            assert row["evaluations"] == sum(result["evaluations"] for result in per_layer)
            assert row["max_stale_gap"] == max(result["max_stale_gap"] for result in per_layer)
        for i, results in zip((1, 2), layers):
            alone = overlap_network.alone(i)
            for cfg, result in zip(cfgs, results):
                seed_set = improved_greedy(couple(alone, "lossy-average"), cfg)
                assert (result["evaluations"], result["max_stale_gap"]) == (
                    seed_set.evaluations, seed_set.max_stale_gap)

    def test_direct_leaves_both_empty(self):
        network = random_network(151, max_users=8)
        result = solve_pipeline(network, "direct", GreedyConfig(0.6, 2))
        assert result["evaluations"] is None and result["max_stale_gap"] is None
        spec = ExperimentSpec(schemes=["direct", "clique"], betas=[0.6], hops=2,
                              synth={"universe_size": 8, "layer_size": 6, "edge_prob": 0.3, "k": 2})
        direct, clique = run_experiment(spec)
        assert direct["status"] == clique["status"] == "ok"
        assert direct["evaluations"] == direct["max_stale_gap"] == direct["coupled_fraction"] == ""
        assert clique["evaluations"] > 0 and clique["max_stale_gap"] >= 0.0


class TestGuaranteeCheck:
    """Under deterministic LT every solve checks the scheme's promise:
    lossless replays equal the coupled fraction, lossy ones reach it."""

    def test_broken_lossless_sync_raises(self, overlap_network, monkeypatch):
        # the replay still meets beta, so only the equality check sees it
        monkeypatch.setattr(muxlci.experiment, "couple", half_weight_sync)
        with pytest.raises(RuntimeError, match=r"^pipeline soundness violated: lossless clique replayed fraction "
                                               r"0\.822\d* differs from coupled fraction 0\.511\d*$"):
            solve_pipeline(overlap_network, "clique", GreedyConfig(0.5, 3))

    def test_lossy_replay_below_coupled_raises(self, overlap_network, monkeypatch):
        def eased(network, scheme):
            # every coupled threshold at 1e-3: one seed floods the coupled
            # graph, but not the multiplex
            coupled = couple(network, scheme)
            ids = coupled.graph.node_ids
            edges = [(ids[iu], ids[iv], w) for iu, targets in enumerate(coupled.graph.out) for iv, w in targets]
            return dataclasses.replace(coupled, graph=InfluenceGraph(ids, edges, {u: 1e-3 for u in ids}))

        monkeypatch.setattr(muxlci.experiment, "couple", eased)
        with pytest.raises(RuntimeError, match=r"^pipeline soundness violated: lossy-average replayed fraction "
                                               r"0\.222\d* below coupled fraction 0\.955\d*$"):
            solve_pipeline(overlap_network, "lossy-average", GreedyConfig(0.2, 3))

    def test_stochastic_solve_is_not_checked(self, overlap_network, monkeypatch):
        monkeypatch.setattr(muxlci.experiment, "couple", half_weight_sync)
        model = DiffusionModel("independent_cascade", mc_samples=3, rng_seed=1)
        result = solve_pipeline(overlap_network, "clique", GreedyConfig(0.3, 3, model=model))
        assert result["coupled_fraction"] >= 0.3

    def test_broken_group_falls_back_to_error_rows(self, monkeypatch):
        monkeypatch.setattr(muxlci.experiment, "couple", half_weight_sync)
        spec = ExperimentSpec(schemes=["clique", "direct"], betas=[0.3, 0.5], hops=2,
                              synth={"universe_size": 12, "layer_size": 9, "edge_prob": 0.2, "k": 2})
        rows = run_experiment(spec)
        assert [(row["scheme"], row["status"]) for row in rows] == [
            ("clique", "error"), ("clique", "error"), ("direct", "ok"), ("direct", "ok")]
        assert all(row["error"].startswith("RuntimeError: pipeline soundness violated: lossless clique")
                   for row in rows[:2])


class TestBaselines:
    def test_union_pools_layer_solutions(self, overlap_network):
        cfg = GreedyConfig(0.5, 3)
        (result,) = union_baseline(overlap_network, [cfg], {})
        assert result["scheme"] == "union"
        assert result["seed_size"] >= 1
        assert len(set(result["seed_users"])) == result["seed_size"]

    def test_only_solves_single_layer(self, overlap_network):
        cfg = GreedyConfig(0.5, 3)
        (result,) = only_baseline(overlap_network, 1, [cfg], {})
        assert result["scheme"] == "only:1"
        layer = overlap_network.layer_by_index(1)
        replay = multiplex_lt_propagate(overlap_network, set(result["seed_users"]), 3)
        covered = len(replay.active.members & layer.nodes)
        assert covered >= 0.5 * len(layer.nodes) - 1e-9


class TestMetrics:
    def test_external_influence_zero_without_overlap(self):
        layer1 = make_layer(1, {("a", "b"): 1.0}, {"a": 0.5, "b": 0.5})
        layer2 = make_layer(2, {("c", "d"): 1.0}, {"c": 0.5, "d": 0.5})
        from muxlci import MultiplexNetwork

        network = MultiplexNetwork([layer1, layer2])
        full = multiplex_lt_propagate(network, {"a"}, 2)
        fraction, external, total = external_influence_fraction(network, {"a"}, 2, 1, full)
        assert fraction == 0.0 and external == 0

    def test_external_influence_detects_cross_layer_entry(self):
        # u is only reachable in layer 1 through x, which activates in layer 2
        from muxlci import MultiplexNetwork

        layer1 = make_layer(1, {("x", "u"): 1.0}, {"x": 0.9, "u": 0.5})
        layer2 = make_layer(2, {("s", "x"): 1.0}, {"s": 0.5, "x": 0.5})
        network = MultiplexNetwork([layer1, layer2])
        full = multiplex_lt_propagate(network, {"s"}, 3)
        fraction, external, total = external_influence_fraction(network, {"s"}, 3, 1, full)
        assert external == 2 and total == 2  # both x and u enter from outside
        assert fraction == 1.0
        # a seed in both layers: c enters layer 1 through layer 2, and d
        # follows it inside layer 1; the run of layer 1 alone reaches b only
        layer1 = make_layer(1, {("a", "b"): 1.0, ("c", "d"): 1.0}, dict.fromkeys("abcd", 0.5))
        layer2 = make_layer(2, {("a", "c"): 1.0}, dict.fromkeys("ac", 0.5))
        network = MultiplexNetwork([layer1, layer2])
        full = multiplex_lt_propagate(network, {"a"}, 3)
        assert external_influence_fraction(network, {"a"}, 3, 1, full) == (0.5, 2, 4)

    @pytest.mark.parametrize("seed", [4, 9, 23])
    def test_external_influence_reuses_given_outcome(self, seed):
        network = random_network(seed, max_layers=3)
        seeds = sorted(network.universe)[:3]
        full = multiplex_lt_propagate(network, set(seeds), 3)
        for layer in network.layers:
            index = layer.layer_index
            fraction, _, _ = external_influence_fraction(network, seeds, 3, index, full)
            assert fraction == reference_external_influence(network, seeds, 3, index)

    def test_seed_composition_counts(self, overlap_network):
        seeds = sorted(overlap_network.universe)[:4]
        replay = multiplex_lt_propagate(overlap_network, set(seeds), 2)
        comp = seed_composition(overlap_network, seeds, replay)
        share = len(set(seeds) & overlap_network.overlap) / 4
        assert comp["overlap_seed_fraction"] == pytest.approx(share)
        assert len(comp["per_layer_seed_counts"]) == 2


class TestRunExperiment:
    def test_rows_cover_cross_product(self, tmp_path):
        spec = ExperimentSpec(
            schemes=["clique", "lossy-average"],
            betas=[0.3, 0.5],
            hops=2,
            repetitions=2,
            base_seed=3,
            synth={"universe_size": 24, "layer_size": 18, "edge_prob": 0.1, "k": 2},
        )
        rows = run_experiment(spec)
        assert len(rows) == 2 * 2 * 2
        assert all(row["status"] == "ok" for row in rows)
        out = tmp_path / "rows.csv"
        write_rows_csv(rows, str(out), spec)
        header = out.read_text().splitlines()[0]
        assert header.startswith("sweep,sweep_value,repetition,scheme,beta")

    def test_failed_cell_marked_not_fatal(self):
        spec = ExperimentSpec(
            schemes=["clique", "direct"],  # brute force will refuse 30 users
            betas=[0.5],
            hops=2,
            repetitions=1,
            base_seed=3,
            synth={"universe_size": 30, "layer_size": 30, "edge_prob": 0.1, "k": 1},
        )
        ok, failed = run_experiment(spec)
        assert ok["status"] == "ok" and ok["error"] == ""
        assert failed["status"] == "error"
        # the row keeps the exception type ahead of its message
        assert failed["error"].startswith("ValueError: universe of 30 users exceeds the brute-force cap")

    def test_k_sweep_rebuilds_networks(self):
        spec = ExperimentSpec(
            schemes=["clique"],
            betas=[0.4],
            hops=2,
            repetitions=1,
            base_seed=5,
            synth={"universe_size": 30, "layer_size": 15, "edge_prob": 0.1},
            k_values=[2, 3],
        )
        rows = run_experiment(spec)
        assert [row["sweep_value"] for row in rows] == [2, 3]

    def test_overlap_sweep_varies_forced_fraction(self):
        spec = ExperimentSpec(
            schemes=["clique"],
            betas=[0.4],
            hops=2,
            repetitions=1,
            base_seed=8,
            synth={"universe_size": 60, "layer_size": 30, "edge_prob": 0.08, "k": 2},
            overlap_values=[0.2, 0.5, 0.8],
        )
        rows = run_experiment(spec)
        assert [row["sweep_value"] for row in rows] == [0.2, 0.5, 0.8]
        assert all(row["status"] == "ok" for row in rows)
        shares = [row["overlap_population_fraction"] for row in rows]
        assert shares == sorted(shares)

    def test_infeasible_sweep_value_raises_before_any_network(self, monkeypatch):
        from muxlci import experiment

        calls = []
        generate = experiment.generate
        monkeypatch.setattr(experiment, "generate", lambda recipe: calls.append(recipe) or generate(recipe))
        spec = ExperimentSpec(schemes=["clique"], betas=[0.4], hops=2,
                              synth={"universe_size": 40, "layer_size": 30, "edge_prob": 0.1, "k": 2},
                              overlap_values=[0.8, 0.2])
        with pytest.raises(ValueError, match="forced overlap infeasible: need 54 distinct users, universe has 40"):
            run_experiment(spec)
        assert calls == []

    def test_metadata_sidecar_written(self, tmp_path):
        spec = ExperimentSpec(
            schemes=["clique"],
            betas=[0.4],
            hops=2,
            repetitions=1,
            base_seed=5,
            synth={"universe_size": 20, "layer_size": 15, "edge_prob": 0.1, "k": 2},
        )
        rows = run_experiment(spec)
        out = tmp_path / "rows.csv"
        write_rows_csv(rows, str(out), spec=spec)
        meta = json.loads((tmp_path / "rows.csv.meta.json").read_text())
        assert meta["base_seed"] == 5
        assert meta["schemes"] == ["clique"]
        assert "version" in meta

    def test_path_spec_writes_the_sidecar_of_str_paths(self, tmp_path):
        layers, alias = [tmp_path / "l1.txt", tmp_path / "l2.txt"], tmp_path / "alias.tsv"
        sidecars = []
        for name, convert in (("path", Path), ("str", str)):
            spec = ExperimentSpec(schemes=["clique"], betas=[0.4], hops=2,
                                  layer_files=[convert(path) for path in layers], alias_file=convert(alias))
            out = tmp_path / f"{name}.csv"
            write_rows_csv([], str(out), spec)
            sidecars.append((tmp_path / f"{name}.csv.meta.json").read_bytes())
        assert sidecars[0] == sidecars[1]
        assert sidecars[1].decode() == json.dumps(muxlci.experiment.experiment_metadata(spec), indent=2,
                                                  sort_keys=True) + "\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "path.csv", "path.csv.meta.json", "str.csv", "str.csv.meta.json"]

    @pytest.mark.parametrize("fault", ["row", "sidecar"])
    def test_failed_write_keeps_the_old_table_and_sidecar(self, tmp_path, monkeypatch, fault):
        spec = ExperimentSpec(schemes=["clique"], betas=[0.4], hops=2,
                              synth={"universe_size": 20, "layer_size": 15, "edge_prob": 0.1, "k": 2})
        out = str(tmp_path / "rows.csv")
        write_rows_csv([dict.fromkeys(CSV_FIELDS, "old")], out, spec)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        rows = [dict.fromkeys(CSV_FIELDS, "new")]
        if fault == "row":
            rows.append({"unknown field": 1})
        else:
            monkeypatch.setattr(muxlci.experiment, "experiment_metadata", lambda spec: {"spec": object()})
        with pytest.raises((ValueError, TypeError)):
            write_rows_csv(rows, out, spec)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_json_round_trip_and_unknown_fields(self):
        text = json.dumps({
            "schemes": ["clique"], "betas": [0.4], "hops": 2,
            "synth": {"universe_size": 10, "layer_size": 8, "edge_prob": 0.1, "k": 1},
        })
        spec = ExperimentSpec.from_json(text)
        assert spec.schemes == ["clique"]
        with pytest.raises(ValueError, match="unknown experiment fields"):
            ExperimentSpec.from_json(json.dumps({"schemes": [], "betas": [], "bogus": 1,
                                                 "synth": {}}))

    @pytest.mark.parametrize("theta", ["1.5", "nan"])
    def test_invalid_layer_file_rejected_before_cells(self, tmp_path, capsys, theta):
        from muxlci.cli import main

        path = tmp_path / "layer.txt"
        path.write_text(f"# theta c {theta}\na c 0.8\nb c 0.8\n", encoding="utf-8")
        spec = ExperimentSpec(schemes=["clique"], betas=[0.5], hops=2,
                              base_seed=4, layer_files=[str(path)])
        with pytest.raises(ValueError, match="invalid network") as caught:
            run_experiment(spec)
        code = main(["couple", "--layer", str(path), "--scheme", "clique", "--seed", "4",
                     "--out-edges", str(tmp_path / "e.txt"), "--out-manifest", str(tmp_path / "m.csv")])
        assert code == 3
        assert capsys.readouterr().err == f"error: {caught.value}\n"

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentSpec(schemes=["clique"], betas=[0.5])
        with pytest.raises(ValueError, match="unknown scheme"):
            ExperimentSpec(schemes=["zigzag"], betas=[0.5],
                           synth={"universe_size": 10, "layer_size": 8, "edge_prob": 0.1, "k": 1})

    @pytest.mark.parametrize("fields,message", [
        ({"schemes": []}, "at least one value"),
        ({"betas": []}, "at least one value"),
        ({"betas": [0.5, 0.0]}, r"beta 0\.0 is not"),
        ({"betas": [-0.2]}, r"beta -0\.2 is not"),
        ({"betas": [1.5]}, r"beta 1\.5 is not"),
        ({"betas": [float("nan")]}, "beta nan is not"),
        ({"betas": ["0.5"]}, "beta '0.5' is not"),
        ({"hops": 0}, "hops must be >= 1"),
        ({"T": 0}, "T must be >= 1"),
        ({"R": 0}, "R must be >= 1"),
        ({"schemes": ["clique", "only:x"]}, "unknown scheme 'only:x'"),
        ({"target_layer": 5}, "target_layer: layer 5 is missing from a network of 2 layers"),
        ({"target_layer": 0}, "^target_layer must be >= 1$"),
        ({"target_layer": 3, "k_values": [3, 2]}, "target_layer: layer 3 is missing from a network of 2"),
        ({"schemes": ["clique", "only:3"]}, "only:3: layer 3 is missing"),
        ({"synth": {"universe_size": 10, "per_layer": [[8, 0.1]]}, "target_layer": 2},
         "target_layer: layer 2 is missing from a network of 1 layers"),
        ({"betas": [True]}, "beta True is not"),
        ({"synth": {"universe_size": 10, "per_layer": 5}}, r"^per_layer must be a list of .* pairs, not 5$"),
        ({"synth": {"universe_size": 10, "per_layer": [5]}}, r"^per_layer must be a list of .* pairs, not \[5\]$"),
        ({"synth": {"universe_size": 10, "per_layer": [[15]]}}, r"pairs, not \[\[15\]\]$"),
        ({"synth": {"universe_size": 10, "per_layer": [[8, 0.1, 2]]}}, r"pairs, not \[\[8, 0\.1, 2\]\]$"),
        ({"synth": None, "layer_files": [0]}, "^layer_files and alias_file must be paths, not 0$"),
        ({"synth": None, "layer_files": ["a.txt"], "alias_file": 5}, "must be paths, not 5$"),
        ({"beta_of_base": "false"}, "^beta_of_base must be true or false, not 'false'$"),
        ({"beta_of_base": 1}, "^beta_of_base must be true or false, not 1$"),
        ({"synth": None, "layer_files": ["a.txt"], "beta_of_base": True}, "^beta_of_base scales beta by"),
        ({"base_seed": "x"}, "^base_seed must be an integer, not 'x'$"),
        ({"base_seed": 1.5}, "^base_seed must be an integer, not 1.5$"),
        ({"base_seed": False}, "^base_seed must be an integer, not False$"),
        ({"alias_file": "aliases.txt"}, "^alias_file merges the users of layer_files, not of a synth network$"),
        ({"k_values": [2, 3], "overlap_values": [0.2, 0.9]},
         "^k_values and overlap_values are two sweeps: set one of them$"),
        ({"synth": {"universe_size": 10, "layer_size": 8, "edge_prob": 0.1, "k": 2, "overlap": 0.4}},
         r"^unknown synth fields: \['overlap'\]$"),
    ])
    def test_bad_sweep_rejected_before_any_cell(self, fields, message):
        spec = {"schemes": ["clique"], "betas": [0.5], "hops": 2,
                "synth": {"universe_size": 10, "layer_size": 8, "edge_prob": 0.1, "k": 2}, **fields}
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(**spec)

    @pytest.mark.parametrize("field, value", [
        ("hops", 2.5), ("T", 2.5), ("R", 1.5), ("repetitions", 1.5), ("repetitions", True), ("T", "8"),
    ])
    def test_non_integer_count_rejected_before_any_cell(self, field, value):
        spec = {"schemes": ["clique"], "betas": [0.5], "hops": 2,
                "synth": {"universe_size": 10, "layer_size": 8, "edge_prob": 0.1, "k": 2}, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, not {value!r}$"):
            ExperimentSpec(**spec)

    @pytest.mark.parametrize("model,message", [
        ({"kind": "bogus"}, "unknown diffusion model 'bogus'"),
        ({"kind": "independent_cascade", "samples": 5}, "unexpected keyword argument 'samples'"),
        ({"kind": "stochastic_threshold", "mc_samples": 0}, "mc_samples must be >= 1"),
        ({"kind": "independent_cascade", "mc_samples": "5"}, "^mc_samples must be an integer, not '5'$"),
        (["independent_cascade"], "must be a mapping"),
        ({"kind": "independent_cascade", "mc_samples": 2.5}, "^mc_samples must be an integer, not 2.5$"),
        ({"kind": "stochastic_threshold", "mc_samples": True}, "^mc_samples must be an integer, not True$"),
        ({"kind": "linear_threshold", "mc_samples": 0}, "^mc_samples must be >= 1$"),
        ({"kind": "independent_cascade", "rng_seed": "7"}, "^rng_seed must be an integer, not '7'$"),
        ({"kind": "stochastic_threshold", "rng_seed": 2.5}, "^rng_seed must be an integer, not 2.5$"),
        ({"kind": "independent_cascade", "rng_seed": None}, "^rng_seed must be an integer, not None$"),
        ({"kind": "linear_threshold", "rng_seed": True}, "^rng_seed must be an integer, not True$"),
        ({"kind": "stochastic_threshold", "st_bounds": 2.5}, r"^st_bounds must be a number in \(0, 1\], not 2\.5$"),
        ({"kind": "stochastic_threshold", "st_bounds": 0}, r"\(0, 1\], not 0$"),
        ({"kind": "stochastic_threshold", "st_bounds": "x"}, r"\(0, 1\], not 'x'$"),
        ({"kind": "stochastic_threshold", "st_bounds": True}, r"\(0, 1\], not True$"),
        ({"kind": "stochastic_threshold", "st_bounds": {}}, r"^st_bounds must be a number in \(0, 1\], not \{\}$"),
        ({"kind": "stochastic_threshold", "st_bounds": {"u0@1": 0.5}},
         r"^st_bounds must be a number in \(0, 1\], not \{'u0@1': 0\.5\}$"),
    ])
    def test_bad_model_rejected_at_spec_load(self, model, message):
        spec = {"schemes": ["clique"], "betas": [0.5], "hops": 2, "model": model,
                "synth": {"universe_size": 10, "layer_size": 8, "edge_prob": 0.1, "k": 2}}
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(**spec)

    @pytest.mark.parametrize("scheme", ["lossy-average", "lossy-easiness", "lossy-involvement"])
    def test_lossy_stochastic_threshold_without_bounds_rejected_at_spec_load(self, scheme):
        spec = {"schemes": ["clique", scheme], "betas": [0.5], "hops": 2,
                "model": {"kind": "stochastic_threshold", "mc_samples": 4},
                "synth": {"universe_size": 10, "layer_size": 8, "edge_prob": 0.1, "k": 2}}
        with pytest.raises(ValueError, match=f"{scheme!r} cannot run .*folds thresholds above 1"):
            ExperimentSpec(**spec)
        # explicit bounds, another model or a lossless scheme are fine
        ExperimentSpec(**{**spec, "model": {**spec["model"], "st_bounds": 0.5}})
        ExperimentSpec(**{**spec, "model": {"kind": "independent_cascade", "mc_samples": 4}})
        ExperimentSpec(**{**spec, "schemes": ["clique", "union", "only:2"]})

    def test_model_built_once_at_spec_load(self):
        spec = ExperimentSpec(schemes=["clique"], betas=[0.5], hops=2,
                              model={"kind": "independent_cascade", "mc_samples": 4, "rng_seed": 9},
                              synth={"universe_size": 10, "layer_size": 8, "edge_prob": 0.1, "k": 2})
        assert spec.diffusion_model == DiffusionModel("independent_cascade", mc_samples=4, rng_seed=9)
        lt = ExperimentSpec(schemes=["clique"], betas=[0.5], model={"kind": "linear_threshold"},
                            synth={"universe_size": 10, "layer_size": 8, "edge_prob": 0.1, "k": 2})
        assert lt.diffusion_model == DiffusionModel("linear_threshold")
        default = ExperimentSpec(schemes=["clique"], betas=[0.5],
                                 synth={"universe_size": 10, "layer_size": 8, "edge_prob": 0.1, "k": 2})
        assert default.diffusion_model == DiffusionModel()

    def test_target_layer_checked_against_layer_files(self, tmp_path):
        path = tmp_path / "layer.txt"
        path.write_text("a b 1.0\n", encoding="utf-8")
        ExperimentSpec(schemes=["clique"], betas=[0.5], layer_files=[str(path)])
        with pytest.raises(ValueError, match="target_layer: layer 2 is missing from a network of 1"):
            ExperimentSpec(schemes=["clique"], betas=[0.5], layer_files=[str(path)], target_layer=2)


def _untimed(rows):
    return [{key: value for key, value in row.items() if key != "wall_time_ms"} for row in rows]


TINY = {"universe_size": 11, "layer_size": 8, "edge_prob": 0.1}
SMALL = {"universe_size": 26, "layer_size": 18, "edge_prob": 0.06, "k": 2}


class TestSharedSolve:
    """Cells of one (sweep value, repetition, scheme) share a coupling
    and a greedy run; the rows equal those of solving every cell alone."""

    @pytest.mark.parametrize("fields", [
        # unsorted and repeated betas, beta of base, a k sweep, every scheme and baseline
        {"schemes": ["clique", "star", "reduced-clique", "reduced-star", "lossy-easiness",
                     "lossy-involvement", "lossy-average", "union", "only:2", "direct"],
         "betas": [0.6, 0.3, 0.6, 0.45], "hops": 2, "repetitions": 2, "base_seed": 12,
         "synth": TINY, "k_values": [3, 2], "beta_of_base": True},
        {"schemes": ["clique", "reduced-star", "lossy-involvement", "union", "only:2"],
         "betas": [0.5, 0.2, 0.5], "hops": 2, "base_seed": 5, "R": 1,
         "synth": SMALL, "model": {"kind": "independent_cascade", "mc_samples": 8, "rng_seed": 3}},
        # union and only:<i> couple each layer alone by lossy-average, which
        # keeps its thresholds in (0, 1]; the lossy schemes themselves are
        # rejected at spec load without st_bounds
        {"schemes": ["star", "reduced-clique", "union", "only:1"],
         "betas": [0.4, 0.7, 0.15], "hops": 2, "base_seed": 6,
         "synth": {**SMALL, "universe_size": 30}, "overlap_values": [0.4, 0.7],
         "model": {"kind": "stochastic_threshold", "mc_samples": 8, "rng_seed": 4}},
        # direct refuses a 30-user universe: those cells fail, the others do not
        {"schemes": ["direct", "clique"], "betas": [0.5, 0.3], "hops": 2, "base_seed": 3,
         "synth": {"universe_size": 30, "layer_size": 30, "edge_prob": 0.1, "k": 1}},
    ])
    def test_rows_match_cell_by_cell(self, fields):
        spec = ExperimentSpec(**fields)
        rows = run_experiment(spec)
        assert _untimed(rows) == _untimed(reference_run_experiment(spec))
        assert any(row["status"] == "ok" for row in rows)

    def test_failed_shared_solve_falls_back_to_cells(self, monkeypatch):
        from muxlci import experiment

        greedy = experiment.improved_greedy

        def refuses_high_targets(coupled, cfg):
            if cfg.beta > 0.5:
                raise ValueError(f"refused beta {cfg.beta}")
            return greedy(coupled, cfg)

        monkeypatch.setattr(experiment, "improved_greedy", refuses_high_targets)
        spec = ExperimentSpec(schemes=["clique", "union", "only:1"], betas=[0.3, 0.8, 0.5],
                              hops=2, base_seed=2, synth=SMALL)
        rows = run_experiment(spec)
        assert _untimed(rows) == _untimed(reference_run_experiment(spec))
        assert [row["status"] for row in rows] == ["ok", "error", "ok"] * 3
        assert rows[1]["error"] == "ValueError: refused beta 0.8"

    @staticmethod
    def count_solves(monkeypatch, names=("couple", "improved_greedy")):
        """Record every call run_experiment makes to the ``names`` of
        ``muxlci.experiment``: by default each coupling and greedy run."""
        from muxlci import experiment

        calls = []

        def counted(name):
            original = getattr(experiment, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(experiment, name, counted(name))
        return calls

    def test_one_coupling_and_greedy_per_group(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        spec = ExperimentSpec(schemes=["clique", "lossy-average", "union"], betas=[0.3, 0.6, 0.45],
                              hops=2, repetitions=2, base_seed=8, synth=SMALL)
        rows = run_experiment(spec)
        assert len(rows) == 18 and all(row["status"] == "ok" for row in rows)
        # per repetition: clique, lossy-average, and union's two layers
        assert calls.count("couple") == calls.count("improved_greedy") == 2 * 4

    def test_union_and_only_share_layer_solves(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        spec = ExperimentSpec(schemes=["only:2", "union", "clique", "only:1"], betas=[0.3, 0.6],
                              hops=2, repetitions=2, base_seed=8, synth=SMALL)
        rows = run_experiment(spec)
        assert len(rows) == 16 and all(row["status"] == "ok" for row in rows)
        # per repetition: clique, and one single-layer solve per layer
        assert calls.count("couple") == calls.count("improved_greedy") == 2 * 3
        monkeypatch.undo()
        assert _untimed(rows) == _untimed(reference_run_experiment(spec))

    def test_baselines_run_through_their_module_names(self, monkeypatch):
        # the names a caller, or a tracer, replaces on the module are the ones the sweep runs
        calls = self.count_solves(monkeypatch, names=("union_baseline", "only_baseline"))
        spec = ExperimentSpec(schemes=["only:2", "union", "clique", "only:1"], betas=[0.3, 0.6],
                              hops=2, repetitions=2, base_seed=8, synth=SMALL)
        rows = run_experiment(spec)
        assert len(rows) == 16 and all(row["status"] == "ok" for row in rows)
        # one call per baseline group, each for both betas
        assert calls == ["only_baseline", "union_baseline", "only_baseline"] * 2

    def test_shared_layer_solve_time_in_every_row(self, overlap_network):
        from muxlci import experiment

        cfgs = [GreedyConfig(beta, 2) for beta in (0.3, 0.6)]
        memo = {}
        union = experiment.union_baseline(overlap_network, cfgs, memo)
        only = experiment.only_baseline(overlap_network, 2, cfgs, memo)
        assert len(memo) == 2
        for i, cfg in enumerate(cfgs):
            layer_ms = {layer: results[i]["wall_time_ms"] for (layer, _), results in memo.items()}
            assert union[i]["beta"] == only[i]["beta"] == cfg.beta
            assert union[i]["wall_time_ms"] >= layer_ms[1] + layer_ms[2]
            assert only[i]["wall_time_ms"] >= layer_ms[2]

    def test_layer_solve_and_restricted_runs_share_one_network(self, monkeypatch):
        # the layer-1 baseline solve and every restricted run of target
        # layer 1 run on the one network of layer 1 alone
        from muxlci import experiment

        coupled, restricted, inside = [], [], []
        couple_, run = experiment.couple, experiment.multiplex_lt_propagate
        external = experiment.external_influence_fraction

        def coupling(network, scheme):
            coupled.append(network)
            return couple_(network, scheme)

        def multiplex_run(network, seeds, hops):
            if inside:
                restricted.append(network)
            return run(network, seeds, hops)

        def external_influence(*args):
            inside.append(True)
            try:
                return external(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(experiment, "couple", coupling)
        monkeypatch.setattr(experiment, "multiplex_lt_propagate", multiplex_run)
        monkeypatch.setattr(experiment, "external_influence_fraction", external_influence)
        spec = ExperimentSpec(schemes=["union", "only:1"], betas=[0.3, 0.6], hops=2, repetitions=2,
                              base_seed=8, synth=SMALL, target_layer=1)
        rows = run_experiment(spec)
        assert len(rows) == 8 and all(row["status"] == "ok" for row in rows)
        # union solves both layers of each of the two networks, once each
        assert len(coupled) == 4 and all(len(network.layers) == 1 for network in coupled)
        assert restricted
        for network in restricted:
            (solved,) = [sub for sub in coupled if sub.layers[0].nodes is network.layers[0].nodes]
            assert solved is network


class TestStochasticPipeline:
    def test_ic_model_runs_through_solve(self, overlap_network):
        model = DiffusionModel("independent_cascade", mc_samples=40, rng_seed=11)
        cfg = GreedyConfig(0.3, 2, model=model)
        result = solve_pipeline(overlap_network, "clique", cfg)
        assert result["model"]["kind"] == "independent_cascade"
        assert result["seed_size"] >= 1


TINY = {"universe_size": 6, "layer_size": 5, "edge_prob": 0.3, "k": 2}

# working configs on a 6-user universe, one per model
ODD_FIELD_BASES = [
    {"schemes": ["clique", "lossy-average", "union", "only:2", "direct"], "betas": [0.3, 0.6],
     "hops": 2, "T": 2, "R": 2, "synth": TINY},
    {"schemes": ["reduced-star", "lossy-easiness"], "betas": [0.5], "hops": 2, "synth": TINY,
     "model": {"kind": "stochastic_threshold", "mc_samples": 2, "rng_seed": 1, "st_bounds": 0.5}},
    {"schemes": ["star", "union"], "betas": [0.5], "hops": 3, "k_values": [1, 2],
     "synth": {**TINY, "layer_size": 4, "overlap_fraction": 0.5}, "model": {"kind": "independent_cascade", "mc_samples": 2}},
]

ODD_FIELD_PATHS = [
    *[(name,) for name in ("schemes", "betas", "hops", "T", "R", "repetitions", "base_seed", "synth",
                           "layer_files", "alias_file", "model", "k_values", "overlap_values",
                           "beta_of_base", "target_layer")],
    ("schemes", 0), ("betas", 0),
    *[("synth", name) for name in ("universe_size", "layer_size", "edge_prob", "k", "overlap_fraction", "per_layer")],
    *[("model", name) for name in ("kind", "mc_samples", "rng_seed", "st_bounds")],
]

# integers stay small so that no odd value asks for a large network or run
ODD_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2, max_value=8), st.floats(), st.text(max_size=4),
    st.sampled_from(["clique", "reduced-clique", "lossy-involvement", "union", "direct", "only:0", "only:1",
                     "only:3", "only:", "linear_threshold", "independent_cascade", "stochastic_threshold",
                     "0.5", "2", "layer.txt"]),
)
ODD_JSON = st.recursive(
    ODD_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["universe_size", "layer_size", "edge_prob", "k", "per_layer", "kind", "mc_samples",
                         "st_bounds"]) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


class TestOddConfigValues:
    """One field of a working config set to an odd JSON value either
    fails at load or runs clean: ``muxlci experiment`` exits 3 before
    the first cell, or 0 with no error row, and never with a traceback."""

    @settings(max_examples=150 * DEPTH)
    @given(st.sampled_from(ODD_FIELD_BASES), st.sampled_from(ODD_FIELD_PATHS), ODD_JSON)
    @example(ODD_FIELD_BASES[0], ("k_values",), [[]])
    @example(ODD_FIELD_BASES[0], ("overlap_values",), [0.5, {}])
    @example(ODD_FIELD_BASES[1], ("betas",), [1])
    def test_one_odd_field_fails_at_load_or_runs_clean(self, base, path, value):
        config = json.loads(json.dumps(base))
        target = config
        for key in path[:-1]:
            target = target.setdefault(key, {})
        target[path[-1]] = value
        with tempfile.TemporaryDirectory() as tmp:
            config_path, out = os.path.join(tmp, "exp.json"), os.path.join(tmp, "rows.csv")
            with open(config_path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["experiment", "--config", config_path, "--out", out])
            assert code in (0, 3), err.getvalue()
            if code == 3:
                assert not os.path.exists(out)
                return
            with open(out, encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
        assert rows and [row["error"] for row in rows if row["status"] != "ok"] == []
