import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from muxlci.cli import main

ROOT = Path(__file__).resolve().parent.parent


def src_path():
    """PYTHONPATH for a subprocess that imports the package from this tree."""
    return os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def layer_files(tmp_path):
    one = write(tmp_path / "l1.txt", "a b 0.7\nc b 0.3\nb c 1.0\na d 1.0\n")
    two = write(tmp_path / "l2.txt", "b c 0.5\ne c 0.5\nc e 1.0\n")
    return [one, two]


def test_generate_preset_writes_layers_and_echo(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--preset", "small-ilp", "--seed", "4", "--out", str(out)]) == 0
    files = sorted(os.listdir(out))
    assert files == ["layer1.txt", "layer2.txt", "network.json"]
    echo = json.loads((out / "network.json").read_text())
    assert echo["preset"] == "small-ilp"
    assert echo["users"] == 100


def test_generate_custom_recipe(tmp_path):
    out = tmp_path / "gen2"
    code = main([
        "generate", "--universe", "30", "--layer", "20:0.1", "--layer", "15:0.05",
        "--overlap", "0.4", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    echo = json.loads((out / "network.json").read_text())
    assert echo["per_layer"] == [[20, 0.1], [15, 0.05]]


def test_couple_writes_manifest_with_expected_node_count(tmp_path, layer_files, capsys):
    edges = tmp_path / "coupled.txt"
    manifest = tmp_path / "manifest.csv"
    code = main([
        "couple", "--layer", layer_files[0], "--layer", layer_files[1],
        "--scheme", "clique", "--seed", "1",
        "--out-edges", str(edges), "--out-manifest", str(manifest),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    # 5 users, 2 layers
    assert summary["nodes"] == (2 + 1) * 5 == 15
    assert len(manifest.read_text().splitlines()) == 16


def test_simulate_multiplex_with_trace(tmp_path, layer_files, capsys):
    seeds = write(tmp_path / "seeds.txt", "a\n")
    trace = tmp_path / "trace.csv"
    code = main([
        "simulate", "--layer", layer_files[0], "--layer", layer_files[1],
        "--seeds-file", seeds, "--hops", "3", "--seed", "1",
        "--trace-out", str(trace),
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["coverage_count"] >= 1
    assert trace.read_text().splitlines()[0] == "hop,node_id,node_kind"


def test_simulate_empty_seed_file_gives_zero_coverage(tmp_path, layer_files, capsys):
    seeds = write(tmp_path / "seeds.txt", "# none\n")
    code = main([
        "simulate", "--layer", layer_files[0], "--layer", layer_files[1],
        "--seeds-file", seeds, "--hops", "2", "--seed", "1",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["coverage_count"] == 0


def test_simulate_coupled_graph_stochastic(tmp_path, layer_files, capsys):
    edges = tmp_path / "coupled.txt"
    manifest = tmp_path / "manifest.csv"
    main([
        "couple", "--layer", layer_files[0], "--layer", layer_files[1],
        "--scheme", "clique", "--seed", "1", "--model", "ic",
        "--out-edges", str(edges), "--out-manifest", str(manifest),
    ])
    capsys.readouterr()
    seeds = write(tmp_path / "seeds.txt", "a@g\n")
    trace = tmp_path / "ctrace.csv"
    code = main([
        "simulate", "--coupled-edges", str(edges), "--coupled-manifest", str(manifest),
        "--seeds-file", seeds, "--hops", "4", "--model", "ic",
        "--mc-samples", "50", "--seed", "9", "--trace-out", str(trace),
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["coverage_count"] >= 1.0
    kinds = {line.split(",")[2] for line in trace.read_text().splitlines()[1:]}
    assert "gateway" in kinds


def test_simulate_unknown_coupled_node_exit_code(tmp_path, layer_files, capsys):
    edges = tmp_path / "coupled.txt"
    manifest = tmp_path / "manifest.csv"
    main([
        "couple", "--layer", layer_files[0], "--layer", layer_files[1],
        "--scheme", "lossy-average", "--seed", "1",
        "--out-edges", str(edges), "--out-manifest", str(manifest),
    ])
    capsys.readouterr()
    with open(edges, "a", encoding="utf-8") as handle:
        handle.write("a zz 0.5\n")
    bad_line = len(edges.read_text().splitlines())
    seeds = write(tmp_path / "seeds.txt", "a\n")
    code = main([
        "simulate", "--coupled-edges", str(edges), "--coupled-manifest", str(manifest),
        "--seeds-file", seeds, "--hops", "2",
    ])
    assert code == 3
    assert f"line {bad_line}: node 'zz' is not in the manifest" in capsys.readouterr().err


def test_simulate_unparsable_edge_weight_exit_code(tmp_path, layer_files, capsys):
    edges = tmp_path / "coupled.txt"
    manifest = tmp_path / "manifest.csv"
    main([
        "couple", "--layer", layer_files[0], "--layer", layer_files[1],
        "--scheme", "reduced-star", "--seed", "1",
        "--out-edges", str(edges), "--out-manifest", str(manifest),
    ])
    capsys.readouterr()
    with open(edges, "a", encoding="utf-8") as handle:
        handle.write("a@u b@1 x\n")
    bad_line = len(edges.read_text().splitlines())
    seeds = write(tmp_path / "seeds.txt", "a@u\n")
    code = main([
        "simulate", "--coupled-edges", str(edges), "--coupled-manifest", str(manifest),
        "--seeds-file", seeds, "--hops", "2",
    ])
    assert code == 3
    assert f"line {bad_line}: weight 'x' is not a number" in capsys.readouterr().err


def test_simulate_short_manifest_row_exit_code(tmp_path, layer_files, capsys):
    edges = tmp_path / "coupled.txt"
    manifest = tmp_path / "manifest.csv"
    main([
        "couple", "--layer", layer_files[0], "--layer", layer_files[1],
        "--scheme", "clique", "--seed", "1",
        "--out-edges", str(edges), "--out-manifest", str(manifest),
    ])
    capsys.readouterr()
    rows = manifest.read_text().splitlines()
    rows[2] = rows[2].rsplit(",", 1)[0]
    manifest.write_text("\n".join(rows) + "\n")
    seeds = write(tmp_path / "seeds.txt", "a@g\n")
    code = main([
        "simulate", "--coupled-edges", str(edges), "--coupled-manifest", str(manifest),
        "--seeds-file", seeds, "--hops", "2",
    ])
    assert code == 3
    node = rows[2].split(",")[0]
    assert f"manifest line 3, node {node!r}: expected 6 fields, got 5" in capsys.readouterr().err


def coupled_files(tmp_path, layer_files, scheme):
    edges = tmp_path / "coupled.txt"
    manifest = tmp_path / "manifest.csv"
    assert main([
        "couple", "--layer", layer_files[0], "--layer", layer_files[1],
        "--scheme", scheme, "--seed", "1",
        "--out-edges", str(edges), "--out-manifest", str(manifest),
    ]) == 0
    return edges, manifest


def simulate_coupled(edges, manifest, seeds):
    return main([
        "simulate", "--coupled-edges", str(edges), "--coupled-manifest", str(manifest),
        "--seeds-file", seeds, "--hops", "2",
    ])


def test_simulate_duplicate_manifest_node_exit_code(tmp_path, layer_files, capsys):
    edges, manifest = coupled_files(tmp_path, layer_files, "star")
    capsys.readouterr()
    rows = manifest.read_text().splitlines()
    rows.append(rows[3])
    manifest.write_text("\n".join(rows) + "\n")
    seeds = write(tmp_path / "seeds.txt", "a@g\n")
    assert simulate_coupled(edges, manifest, seeds) == 3
    node = rows[3].split(",")[0]
    assert f"manifest line {len(rows)}, node {node!r}: duplicate node id" in capsys.readouterr().err


def test_simulate_self_loop_exit_code(tmp_path, layer_files, capsys):
    edges, manifest = coupled_files(tmp_path, layer_files, "reduced-clique")
    capsys.readouterr()
    with open(edges, "a", encoding="utf-8") as handle:
        handle.write("b@1 b@1 0.5\n")
    bad_line = len(edges.read_text().splitlines())
    seeds = write(tmp_path / "seeds.txt", "a@u\n")
    assert simulate_coupled(edges, manifest, seeds) == 3
    assert f"line {bad_line}: self-loop on 'b@1'" in capsys.readouterr().err


def test_simulate_duplicate_edge_exit_code(tmp_path, layer_files, capsys):
    edges, manifest = coupled_files(tmp_path, layer_files, "lossy-easiness")
    capsys.readouterr()
    first = edges.read_text().splitlines()[0]
    with open(edges, "a", encoding="utf-8") as handle:
        handle.write(first + "\n")
    src, dst, _ = first.split()
    seeds = write(tmp_path / "seeds.txt", "a\n")
    assert simulate_coupled(edges, manifest, seeds) == 3
    assert f"duplicate edge {src!r}->{dst!r}" in capsys.readouterr().err


def test_involvement_files_independent_of_hash_seed(tmp_path):
    """Involvement multipliers sum over each closed neighborhood in a
    fixed order, so the coupled files and the 0-1 program are the same
    bytes under any PYTHONHASHSEED."""
    net = tmp_path / "net"
    assert main(["generate", "--preset", "small-ilp", "--seed", "4", "--out", str(net)]) == 0
    layers = ["--layer", str(net / "layer1.txt"), "--layer", str(net / "layer2.txt")]
    written = {}
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        out.mkdir()
        for argv in (
            ["couple", *layers, "--scheme", "lossy-involvement", "--out-edges", str(out / "edges.txt"),
             "--out-manifest", str(out / "manifest.csv"), "--out", str(out / "summary.json")],
            ["export-ilp", *layers, "--scheme", "lossy-involvement", "--out", str(out / "program.lp")],
        ):
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from muxlci.cli import main; sys.exit(main(sys.argv[1:]))",
                 *argv],
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src_path()},
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
        written[hash_seed] = {name: (out / name).read_bytes()
                              for name in ("edges.txt", "manifest.csv", "program.lp")}
    assert written["1"] == written["2"]


def test_solve_emits_complete_result(tmp_path, layer_files):
    out = tmp_path / "result.json"
    code = main([
        "solve", "--layer", layer_files[0], "--layer", layer_files[1],
        "--scheme", "star", "--beta", "0.6", "--hops", "3",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    result = json.loads(out.read_text())
    assert result["replayed_fraction"] >= 0.6 - 1e-9
    assert result["scheme"] == "star"
    for key in ("seed_users", "gains", "T", "R", "rng_seed", "version"):
        assert key in result


def test_solve_rejects_unknown_scheme(layer_files, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--layer", layer_files[0], "--scheme", "hexagon"])
    assert exc.value.code == 2


def test_solve_has_no_solver_option(layer_files, capsys):
    # the pipeline always runs the lazy greedy; --R 1 gives the plain greedy
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--layer", layer_files[0], "--solver", "naive"])
    assert exc.value.code == 2


def test_solve_rejects_lossy_stochastic_threshold_before_coupling(tmp_path, layer_files, capsys, monkeypatch):
    # lossy couplings fold thresholds above 1, which cannot bound stochastic thresholds
    import muxlci.experiment

    def refuse(*args, **kwargs):
        raise AssertionError("coupled a scheme the model cannot run")

    monkeypatch.setattr(muxlci.experiment, "couple", refuse)
    code = main([
        "solve", "--layer", layer_files[0], "--layer", layer_files[1],
        "--scheme", "lossy-average", "--model", "st", "--mc-samples", "5",
        "--beta", "0.4", "--hops", "3", "--out", str(tmp_path / "result.json"),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "'lossy-average' cannot run the stochastic threshold model without st_bounds" in err
    assert "folds thresholds above 1" in err
    assert not (tmp_path / "result.json").exists()


def test_export_ilp_writes_program(tmp_path, layer_files, capsys):
    out = tmp_path / "model.lp"
    code = main([
        "export-ilp", "--layer", layer_files[0], "--layer", layer_files[1],
        "--scheme", "clique", "--beta", "0.4", "--hops", "2",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[1] == "Minimize"
    assert text.rstrip().endswith("End")
    summary = json.loads(capsys.readouterr().out)
    assert summary["variables"] == 15 * 5  # (k+1)*n nodes, 2d+1 rounds


def test_experiment_from_config(tmp_path, capsys):
    config = {
        "schemes": ["clique", "union"],
        "betas": [0.4],
        "hops": 2,
        "repetitions": 1,
        "base_seed": 6,
        "synth": {"universe_size": 20, "layer_size": 15, "edge_prob": 0.12, "k": 2},
    }
    config_path = write(tmp_path / "exp.json", json.dumps(config))
    out = tmp_path / "rows.csv"
    code = main(["experiment", "--config", config_path, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3  # header + 2 cells
    assert "clique" in lines[1]


@pytest.mark.parametrize("sweep", [{"k_values": [2, 5]}, {"overlap_values": [0.2, 0.6]}])
def test_experiment_rejects_sweep_over_layer_files(tmp_path, layer_files, capsys, sweep):
    # the sweep would label rows with values it never applied to the file network
    config = {"schemes": ["clique"], "betas": [0.4], "hops": 2, "layer_files": layer_files, **sweep}
    config_path = write(tmp_path / "exp.json", json.dumps(config))
    out = tmp_path / "rows.csv"
    code = main(["experiment", "--config", config_path, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: k_values and overlap_values sweep a synth network, not layer_files\n")
    assert not out.exists()


@pytest.mark.parametrize("fields,message", [
    ({"target_layer": 5}, "target_layer: layer 5 is missing from a network of 2 layers in this sweep"),
    ({"betas": []}, "schemes and betas must each list at least one value"),
    ({"betas": [0.4, float("nan")]}, "beta nan is not a number in (0, 1]"),
    ({"hops": 0}, "hops must be >= 1"),
])
def test_experiment_rejects_bad_sweep(tmp_path, capsys, fields, message):
    config = {"schemes": ["clique"], "betas": [0.4], "hops": 2,
              "synth": {"universe_size": 20, "layer_size": 15, "edge_prob": 0.12, "k": 2}, **fields}
    config_path = write(tmp_path / "exp.json", json.dumps(config))
    out = tmp_path / "rows.csv"
    code = main(["experiment", "--config", config_path, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_experiment_rejects_solver_field(tmp_path, capsys):
    config = {"schemes": ["clique"], "betas": [0.4], "hops": 2, "solver": "naive",
              "synth": {"universe_size": 20, "layer_size": 15, "edge_prob": 0.12, "k": 2}}
    config_path = write(tmp_path / "exp.json", json.dumps(config))
    out = tmp_path / "rows.csv"
    code = main(["experiment", "--config", config_path, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "error: unknown experiment fields: ['solver']\n"
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("hops", 2.5), ("T", 2.5), ("R", 1.5), ("repetitions", 1.5)])
def test_experiment_rejects_non_integer_count(tmp_path, capsys, field, value):
    config = {"schemes": ["clique"], "betas": [0.4], "hops": 2,
              "synth": {"universe_size": 20, "layer_size": 15, "edge_prob": 0.12, "k": 2}, field: value}
    config_path = write(tmp_path / "exp.json", json.dumps(config))
    out = tmp_path / "rows.csv"
    code = main(["experiment", "--config", config_path, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {field} must be an integer, not {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("model,message", [
    ({"kind": "bogus"}, "unknown diffusion model 'bogus'"),
    ({"kind": "independent_cascade", "samples": 5},
     "model {'kind': 'independent_cascade', 'samples': 5}: "
     "DiffusionModel.__init__() got an unexpected keyword argument 'samples'"),
])
def test_experiment_rejects_bad_model(tmp_path, capsys, model, message):
    config = {"schemes": ["clique"], "betas": [0.4], "hops": 2, "model": model,
              "synth": {"universe_size": 20, "layer_size": 15, "edge_prob": 0.12, "k": 2}}
    config_path = write(tmp_path / "exp.json", json.dumps(config))
    out = tmp_path / "rows.csv"
    code = main(["experiment", "--config", config_path, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_alias_file_merges_users_across_layers(tmp_path, capsys):
    one = write(tmp_path / "fsq.txt", "fsq_1 fsq_2 1.0\n")
    two = write(tmp_path / "tw.txt", "tw_9 tw_8 1.0\n")
    alias = write(tmp_path / "alias.tsv", "fsq_1\ttw_9\tperson1\n")
    edges = tmp_path / "c.txt"
    manifest = tmp_path / "m.csv"
    code = main([
        "couple", "--layer", one, "--layer", two, "--alias", alias,
        "--scheme", "clique", "--seed", "1",
        "--out-edges", str(edges), "--out-manifest", str(manifest),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    # fsq_1 and tw_9 collapse into person1: 3 distinct users, k=2
    assert summary["users"] == 3
    assert summary["nodes"] == 9
    assert "person1,person1" not in manifest.read_text()  # ids stay canonical
    assert "person1" in manifest.read_text()


def test_solve_defaults_are_beta_08_hops_4():
    from muxlci.cli import build_parser

    args = build_parser().parse_args(["solve", "--layer", "x.txt"])
    assert args.beta == 0.8 and args.hops == 4


def test_parse_error_exit_code(tmp_path):
    bad = write(tmp_path / "bad.txt", "a a 0.5\n")
    code = main(["solve", "--layer", bad, "--scheme", "clique"])
    assert code == 2


def test_missing_file_exit_code(tmp_path):
    code = main(["solve", "--layer", str(tmp_path / "nope.txt"), "--scheme", "clique"])
    assert code == 4


def test_value_error_exit_code(tmp_path):
    seeds = write(tmp_path / "seeds.txt", "ghost\n")
    layer = write(tmp_path / "l.txt", "a b 1.0\n")
    code = main([
        "simulate", "--layer", layer, "--seeds-file", seeds, "--hops", "1", "--seed", "0",
    ])
    assert code == 3


@pytest.mark.parametrize("script", sorted(path.name for path in (ROOT / "scripts").glob("*.py")))
def test_script_help_runs(script):
    # a script that imports a removed name fails here, not at its next study run
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--help"], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": src_path()}, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
