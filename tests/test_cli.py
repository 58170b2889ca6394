import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from muxlci import DiffusionModel, ic_propagate, lt_propagate, write_trace
from muxlci.cli import main

from conftest import count_rule_book, half_weight_sync
from oracles import reference_read_coupled

ROOT = Path(__file__).resolve().parent.parent


def test_solve_exits_5_on_a_broken_lossless_coupling(tmp_path, capsys, monkeypatch):
    import muxlci.experiment

    net = tmp_path / "net"
    assert main(["generate", "--universe", "50", "--layer", "30:0.12", "--layer", "30:0.12",
                 "--overlap", "0.5", "--seed", "21", "--out", str(net)]) == 0
    monkeypatch.setattr(muxlci.experiment, "couple", half_weight_sync)
    out = tmp_path / "result.json"
    code = main(["solve", "--layer", str(net / "layer1.txt"), "--layer", str(net / "layer2.txt"),
                 "--scheme", "clique", "--beta", "0.5", "--hops", "3", "--out", str(out)])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: pipeline soundness violated: lossless clique replayed fraction ")
    assert not out.exists()


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


@pytest.mark.parametrize("recipe", ["10:0.5:3", "abc", "10:x"])
def test_generate_names_a_malformed_layer_recipe(tmp_path, recipe, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--layer", recipe, "--out", str(out)]) == 3
    assert f"--layer {recipe!r}: expected SIZE:PROB" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--layer", "10:0.5"], ["--universe", "7"], ["--overlap", "0.3"],
                                   ["--layer", "10:0.5", "--universe", "7"]])
def test_generate_preset_rejects_recipe_flags(tmp_path, flags, capsys):
    out = tmp_path / "gen"
    assert main(["generate", "--preset", "small-ilp", *flags, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "--preset small-ilp fixes the recipe" in err
    assert all(flag in err for flag in flags if flag.startswith("--"))
    assert not out.exists()


def test_generate_rejects_overlap_of_one_layer(tmp_path, capsys):
    """One layer has no pair to overlap, so --overlap would be echoed but unused."""
    out = tmp_path / "gen"
    assert main(["generate", "--layer", "10:0.1", "--overlap", "0.5", "--universe", "20", "--out", str(out)]) == 3
    assert "--overlap sets the overlap between layers" in capsys.readouterr().err
    assert not out.exists()


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


def reference_trace(edges, manifest, propagate):
    """The trace ``write_trace`` writes for ``propagate(graph)`` on the
    coupled files read by the two-pass reference reader, whose kinds are
    a dict of NodeKinds."""
    graph, kinds, _ = reference_read_coupled(
        edges.read_text().splitlines(), manifest.read_text().splitlines())
    buf = io.StringIO()
    write_trace(propagate(graph), buf, kinds)
    return buf.getvalue()


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
    model = DiffusionModel("independent_cascade", mc_samples=50, rng_seed=9)
    expected = reference_trace(edges, manifest, lambda graph: ic_propagate(graph, {"a@g"}, 4, model))
    assert trace.read_text() == expected
    kinds = {line.split(",")[2] for line in expected.splitlines()[1:]}
    assert {"gateway", "representative"} <= kinds


@pytest.mark.parametrize("scheme, seed", [("star", "c@g"), ("reduced-clique", "c@u"), ("lossy-average", "c")])
def test_simulate_coupled_trace_names_each_node_kind(tmp_path, layer_files, capsys, scheme, seed):
    """Each trace row carries its own node's kind from the manifest: the
    node_kind column equals the one written from the reference reader's
    NodeKind dict, so a node labelled with a neighbour's kind fails."""
    edges, manifest = tmp_path / "coupled.txt", tmp_path / "manifest.csv"
    assert main([
        "couple", "--layer", layer_files[0], "--layer", layer_files[1], "--scheme", scheme,
        "--out-edges", str(edges), "--out-manifest", str(manifest),
    ]) == 0
    trace = tmp_path / "trace.csv"
    assert main([
        "simulate", "--coupled-edges", str(edges), "--coupled-manifest", str(manifest),
        "--seeds-file", write(tmp_path / "seeds.txt", seed + "\n"), "--hops", "6",
        "--trace-out", str(trace),
    ]) == 0
    capsys.readouterr()
    assert trace.read_text() == reference_trace(edges, manifest, lambda graph: lt_propagate(graph, {seed}, 6))
    assert len(trace.read_text().splitlines()) > 2


@pytest.mark.parametrize("scheme", ["reduced-clique", "reduced-star"])
def test_simulate_reduced_coupling_reports_the_multiplex_fraction(tmp_path, scheme, capsys):
    """A reduced coupling weighs each user once over its vertices, so its
    coverage fraction is weight over total weight, not vertices over
    vertices, and equals the multiplex run's."""
    net = tmp_path / "net"
    assert main(["generate", "--universe", "70", "--layer", "30:0.08", "--layer", "30:0.08",
                 "--layer", "30:0.08", "--overlap", "0.4", "--seed", "3", "--out", str(net)]) == 0
    layers = [arg for i in (1, 2, 3) for arg in ("--layer", str(net / f"layer{i}.txt"))]
    edges, manifest, summary = tmp_path / "c.edges", tmp_path / "c.csv", tmp_path / "c.json"
    assert main(["couple", *layers, "--scheme", scheme, "--out-edges", str(edges),
                 "--out-manifest", str(manifest), "--out", str(summary)]) == 0
    info = json.loads(summary.read_text())
    with open(manifest, encoding="utf-8", newline="") as handle:
        node_of = {row["user_id"]: row["node_id"] for row in csv.DictReader(handle)
                   if row["kind"] in ("gateway", "user")}
    users = sorted(node_of)[::5]
    write(tmp_path / "users.txt", "\n".join(users) + "\n")
    write(tmp_path / "nodes.txt", "\n".join(node_of[u] for u in users) + "\n")
    capsys.readouterr()
    assert main(["simulate", *layers, "--seeds-file", str(tmp_path / "users.txt"), "--hops", "2"]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert main(["simulate", "--coupled-edges", str(edges), "--coupled-manifest", str(manifest),
                 "--seeds-file", str(tmp_path / "nodes.txt"), "--hops", str(2 * info["hop_scale"])]) == 0
    coupled = json.loads(capsys.readouterr().out)
    assert coupled["coverage_fraction"] == direct["coverage_fraction"]
    # vertices over vertices would read otherwise
    assert coupled["coverage_count"] / info["nodes"] != direct["coverage_fraction"]


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


def test_simulate_unknown_manifest_kind_exit_code(tmp_path, layer_files, capsys):
    edges, manifest = coupled_files(tmp_path, layer_files, "clique")
    capsys.readouterr()
    rows = manifest.read_text().splitlines()
    fields = rows[1].split(",")
    assert fields[1] == "gateway"
    fields[1] = "gatway"
    rows[1] = ",".join(fields)
    manifest.write_text("\n".join(rows) + "\n")
    seeds = write(tmp_path / "seeds.txt", "a@g\n")
    trace = tmp_path / "trace.csv"
    assert main([
        "simulate", "--coupled-edges", str(edges), "--coupled-manifest", str(manifest),
        "--seeds-file", seeds, "--hops", "2", "--trace-out", str(trace),
    ]) == 3
    assert f"manifest line 2, node {fields[0]!r}: unknown kind 'gatway'" in capsys.readouterr().err
    assert not trace.exists()


@pytest.mark.parametrize("flags, named", [
    (["--layer", "no-such-layer.txt"], "--layer"),
    (["--alias", "no-such-alias.tsv"], "--alias"),
    (["--layer", "no-such-layer.txt", "--alias", "no-such-alias.tsv"], "--layer and --alias"),
])
def test_simulate_rejects_layer_flags_with_coupled_graph(tmp_path, layer_files, capsys, flags, named):
    edges, manifest = coupled_files(tmp_path, layer_files, "clique")
    capsys.readouterr()
    seeds = write(tmp_path / "seeds.txt", "a@g\n")
    out = tmp_path / "out.json"
    assert main([
        "simulate", "--coupled-edges", str(edges), "--coupled-manifest", str(manifest),
        "--seeds-file", seeds, "--hops", "2", "--out", str(out), *flags,
    ]) == 3
    assert capsys.readouterr().err == f"error: {named} cannot be given with --coupled-edges\n"
    assert not out.exists()


def test_simulate_empty_manifest_exit_code(tmp_path, capsys):
    edges = write(tmp_path / "coupled.txt", "")
    manifest = write(tmp_path / "manifest.csv", "")
    seeds = write(tmp_path / "seeds.txt", "a@g\n")
    assert simulate_coupled(edges, manifest, seeds) == 3
    assert capsys.readouterr().err == (
        "error: manifest is empty: missing the header 'node_id,kind,user_id,layer,threshold,weight'\n")


@pytest.mark.parametrize("command", ["solve", "solve-direct", "export-ilp", "experiment"])
def test_network_without_users_exit_code(tmp_path, capsys, command):
    empty = write(tmp_path / "empty.txt", "")
    out = str(tmp_path / "out")
    argv = {
        "solve": ["solve", "--layer", empty, "--beta", "0.5"],
        "solve-direct": ["solve", "--layer", empty, "--beta", "0.5", "--scheme", "direct"],
        "export-ilp": ["export-ilp", "--layer", empty, "--beta", "0.5", "--out", out],
        "experiment": ["experiment", "--out", out, "--config", write(
            tmp_path / "exp.json", json.dumps({"schemes": ["clique"], "betas": [0.5], "layer_files": [empty]}))],
    }[command]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: invalid network:\n  network has no users\n"
    assert not os.path.exists(out)


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


# every scheme under every model, one record per line without its wall time
SOLVE_EVERY_SCHEME = """
import contextlib, io, json, sys
from muxlci.cli import COUPLING_SCHEMES, main
layers = [arg for path in sys.argv[1:] for arg in ("--layer", path)]
for scheme in COUPLING_SCHEMES:
    for model in ("lt", "ic", "st"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", *layers, "--scheme", scheme, "--model", model, "--mc-samples", "10",
                         "--beta", "0.5", "--hops", "3", "--seed", "7"])
        record = json.loads(out.getvalue()) if code == 0 else {}
        record.pop("wall_time_ms", None)
        print(scheme, model, code, repr(err.getvalue()), json.dumps(record, sort_keys=True))
"""


def test_solve_independent_of_hash_seed(tmp_path):
    """Every scheme and model solves to the same records, exit codes and
    errors under any PYTHONHASHSEED."""
    net = tmp_path / "net"
    assert main(["generate", "--universe", "50", "--layer", "35:0.06", "--layer", "35:0.06",
                 "--overlap", "0.6", "--seed", "11", "--out", str(net)]) == 0
    printed = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", SOLVE_EVERY_SCHEME, str(net / "layer1.txt"), str(net / "layer2.txt")],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src_path()},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        printed.append(done.stdout)
    assert len(printed[0].splitlines()) == 21
    assert printed[0] == printed[1]


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


@pytest.mark.parametrize("scheme", ["lossy-average", "lossy-easiness", "lossy-involvement"])
def test_couple_rejects_lossy_stochastic_threshold_before_coupling(tmp_path, layer_files, capsys, monkeypatch,
                                                                   scheme):
    # the coupled files would carry thresholds above 1, which simulate --model st then refuses
    import muxlci.cli

    def refuse(*args, **kwargs):
        raise AssertionError("coupled a scheme the model cannot run")

    monkeypatch.setattr(muxlci.cli, "couple", refuse)
    edges, manifest, summary = tmp_path / "coupled.txt", tmp_path / "manifest.csv", tmp_path / "summary.json"
    code = main([
        "couple", "--layer", layer_files[0], "--layer", layer_files[1], "--scheme", scheme, "--model", "st",
        "--out-edges", str(edges), "--out-manifest", str(manifest), "--out", str(summary),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{scheme!r} cannot run the stochastic threshold model without st_bounds" in err
    assert "folds thresholds above 1" in err
    assert not any(path.exists() for path in (edges, manifest, summary))


@pytest.mark.parametrize("command", ["solve", "couple", "simulate", "export-ilp"])
@pytest.mark.parametrize("model", ["lt", "ic", "st"])
def test_mc_samples_below_one_exits_3_under_every_model(tmp_path, layer_files, capsys, command, model):
    # every command builds the same DiffusionModel, so the sample count is
    # checked even where the model does not sample
    seeds = write(tmp_path / "seeds.txt", "a\n")
    extra = {
        "solve": [],
        "couple": ["--scheme", "clique", "--out-edges", str(tmp_path / "e.txt"),
                   "--out-manifest", str(tmp_path / "m.csv")],
        "simulate": ["--seeds-file", seeds, "--hops", "2"],
        "export-ilp": [],
    }[command]
    out = tmp_path / "out.json"
    code = main([command, "--layer", layer_files[0], "--layer", layer_files[1], *extra,
                 "--model", model, "--mc-samples", "0", "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "error: mc_samples must be >= 1\n"
    assert sorted(os.listdir(tmp_path)) == ["l1.txt", "l2.txt", "seeds.txt"]


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
    ({"betas": 0.5}, "betas must be a list, not 0.5"),
    ({"schemes": "clique"}, "schemes must be a list, not 'clique'"),
    ({"schemes": [1]}, "schemes must be strings, not 1"),
    ({"k_values": 3}, "k_values must be a list, not 3"),
    ({"overlap_values": "0.2"}, "overlap_values must be a list, not '0.2'"),
    ({"synth": None, "layer_files": "layer.txt"}, "layer_files must be a list, not 'layer.txt'"),
    ({"synth": 5}, "synth must be a mapping, not 5"),
    ({"target_layer": "1"}, "target_layer must be an integer, not '1'"),
    ({"synth": {"universe_size": 20, "per_layer": 5}},
     "per_layer must be a list of [layer_size, edge_prob] pairs, not 5"),
    ({"synth": {"universe_size": 20, "per_layer": [5]}},
     "per_layer must be a list of [layer_size, edge_prob] pairs, not [5]"),
    ({"synth": {"universe_size": 20, "per_layer": [[15]]}},
     "per_layer must be a list of [layer_size, edge_prob] pairs, not [[15]]"),
    ({"synth": None, "layer_files": [0]}, "layer_files and alias_file must be paths, not 0"),
    ({"alias_file": 5}, "layer_files and alias_file must be paths, not 5"),
    ({"beta_of_base": "false"}, "beta_of_base must be true or false, not 'false'"),
    ({"synth": None, "layer_files": ["layer.txt"], "beta_of_base": True},
     "beta_of_base scales beta by a synth universe_size, not layer_files"),
    ({"base_seed": "x"}, "base_seed must be an integer, not 'x'"),
    ({"base_seed": 1.5}, "base_seed must be an integer, not 1.5"),
    ({"alias_file": "aliases.txt"}, "alias_file merges the users of layer_files, not of a synth network"),
    ({"k_values": [2, 3], "overlap_values": [0.2, 0.9]}, "k_values and overlap_values are two sweeps: set one of them"),
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


@pytest.mark.parametrize("fields,message", [
    ({}, "no output path: pass --out or set 'out' in the config"),
    ({"out": 5}, "out must be a path, not 5"),
], ids=["no-out", "non-path-out"])
def test_experiment_without_an_output_path_runs_no_cell(tmp_path, capsys, monkeypatch, fields, message):
    """Exit 3 before the first cell, writing no file: not the table, and
    not the temporary file of its atomic write in the working directory."""
    import muxlci.cli

    config = {"schemes": ["clique"], "betas": [0.4], "hops": 2,
              "synth": {"universe_size": 20, "layer_size": 15, "edge_prob": 0.12, "k": 2}, **fields}
    config_path = write(tmp_path / "exp.json", json.dumps(config))
    runs = []
    monkeypatch.setattr(muxlci.cli, "run_experiment", lambda spec: runs.append(spec) or [])
    monkeypatch.chdir(tmp_path)
    assert main(["experiment", "--config", config_path]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert runs == []
    assert [path.name for path in tmp_path.iterdir()] == ["exp.json"]


def test_experiment_output_in_a_missing_directory_runs_no_cell(tmp_path, capsys, monkeypatch):
    """Exit 3 before the first cell, naming the given path, and write no file."""
    import muxlci.cli

    config = {"schemes": ["clique"], "betas": [0.4], "hops": 2,
              "synth": {"universe_size": 20, "layer_size": 15, "edge_prob": 0.12, "k": 2}}
    config_path = write(tmp_path / "exp.json", json.dumps(config))
    runs = []
    monkeypatch.setattr(muxlci.cli, "run_experiment", lambda spec: runs.append(spec) or [])
    monkeypatch.chdir(tmp_path)
    assert main(["experiment", "--config", config_path, "--out", "missing/rows.csv"]) == 3
    assert capsys.readouterr().err == "error: cannot write missing/rows.csv: its directory does not exist\n"
    assert runs == []
    assert [path.name for path in tmp_path.iterdir()] == ["exp.json"]


def test_experiment_rejects_solver_field(tmp_path, capsys):
    config = {"schemes": ["clique"], "betas": [0.4], "hops": 2, "solver": "naive",
              "synth": {"universe_size": 20, "layer_size": 15, "edge_prob": 0.12, "k": 2}}
    config_path = write(tmp_path / "exp.json", json.dumps(config))
    out = tmp_path / "rows.csv"
    code = main(["experiment", "--config", config_path, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == "error: unknown experiment fields: ['solver']\n"
    assert not out.exists()


@pytest.mark.parametrize("document", ["[]", "5", "null", '"x"'])
def test_experiment_rejects_config_that_is_not_an_object(tmp_path, capsys, document):
    config_path = write(tmp_path / "exp.json", document)
    out = tmp_path / "rows.csv"
    code = main(["experiment", "--config", config_path, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: an experiment config must be a JSON object, not {json.loads(document)!r}\n"
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
    ({"kind": "independent_cascade", "mc_samples": 2.5}, "mc_samples must be an integer, not 2.5"),
    ({"kind": "stochastic_threshold", "mc_samples": True}, "mc_samples must be an integer, not True"),
    ({"kind": "independent_cascade", "mc_samples": "5"}, "mc_samples must be an integer, not '5'"),
    ({"kind": "independent_cascade", "rng_seed": "7"}, "rng_seed must be an integer, not '7'"),
    ({"kind": "stochastic_threshold", "rng_seed": 2.5}, "rng_seed must be an integer, not 2.5"),
    ({"kind": "independent_cascade", "rng_seed": None}, "rng_seed must be an integer, not None"),
    ({"kind": "linear_threshold", "rng_seed": True}, "rng_seed must be an integer, not True"),
    *[({"kind": "stochastic_threshold", "st_bounds": bounds}, f"st_bounds must be a number in (0, 1], not {bounds!r}")
      for bounds in (2.5, 0, "x", True, {}, {"u0@1": 0.5})],
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


SYNTH = {"universe_size": 20, "layer_size": 15, "edge_prob": 0.12, "k": 2}


def synth_without(name):
    return {key: value for key, value in SYNTH.items() if key != name}


@pytest.mark.parametrize("synth, fields, message", [
    (synth_without("k"), {}, "synth needs 'k'"),
    (synth_without("universe_size"), {}, "synth needs 'universe_size'"),
    (synth_without("layer_size"), {}, "synth needs 'layer_size'"),
    (synth_without("edge_prob"), {}, "synth needs 'edge_prob'"),
    ({**SYNTH, "k": "2"}, {}, "k must be an integer, not '2'"),
    ({**SYNTH, "universe_size": 20.0}, {}, "universe_size must be an integer, not 20.0"),
    ({**SYNTH, "layer_size": "15"}, {}, "layer_size must be an integer, not '15'"),
    ({"universe_size": 20, "per_layer": [[15, 0.1], [7.5, 0.1]]}, {}, "layer_size must be an integer, not 7.5"),
    ({**SYNTH, "edge_prob": "0.12"}, {}, "edge_prob must be a number, not '0.12'"),
    ({**SYNTH, "edge_prob": True}, {}, "edge_prob must be a number, not True"),
    ({**SYNTH, "overlap_fraction": "0.4"}, {}, "overlap_fraction must be a number, not '0.4'"),
    (synth_without("k"), {"k_values": [2, "3"]}, "k_values entry must be an integer, not '3'"),
    ({**SYNTH, "universe_size": 30}, {"overlap_values": [0.2, None]},
     "overlap_values entry must be a number, not None"),
    (SYNTH, {"overlap_values": [False]}, "overlap_values entry must be a number, not False"),
    (synth_without("k"), {"k_values": [[2]]}, "k_values entry must be an integer, not [2]"),
    (SYNTH, {"overlap_values": [0.2, {}]}, "overlap_values entry must be a number, not {}"),
])
def test_experiment_rejects_bad_synth_recipe(tmp_path, capsys, synth, fields, message):
    config = {"schemes": ["clique"], "betas": [0.4], "hops": 2, "synth": synth, **fields}
    config_path = write(tmp_path / "exp.json", json.dumps(config))
    out = tmp_path / "rows.csv"
    code = main(["experiment", "--config", config_path, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_layer_file_error_names_the_file_in_solve_and_experiment(tmp_path, capsys):
    good = write(tmp_path / "l1.txt", "a b 0.5\n")
    bad = write(tmp_path / "l2.txt", "a b 0.5\nb b 0.5\n")
    expected = f"error: {bad}: line 2: self-loop on 'b'\n"
    assert main(["solve", "--layer", good, "--layer", bad]) == 2
    assert capsys.readouterr().err == expected
    config = write(tmp_path / "exp.json",
                   json.dumps({"schemes": ["clique"], "betas": [0.4], "layer_files": [good, bad]}))
    assert main(["experiment", "--config", config, "--out", str(tmp_path / "rows.csv")]) == 2
    assert capsys.readouterr().err == expected


def test_alias_file_error_names_the_file(tmp_path, capsys):
    layer = write(tmp_path / "l1.txt", "a b 0.5\n")
    alias = write(tmp_path / "alias.tsv", "# ids\na\tb\n")
    assert main(["solve", "--layer", layer, "--alias", alias]) == 2
    assert capsys.readouterr().err == f"error: {alias}: line 2: expected three tab-separated ids\n"


def test_alias_file_mapping_an_id_twice_exit_code(tmp_path, capsys):
    layer = write(tmp_path / "l1.txt", "a b 0.5\n")
    alias = write(tmp_path / "alias.tsv", "a\tb\tX\na\tc\tY\n")
    assert main(["solve", "--layer", layer, "--alias", alias]) == 2
    assert capsys.readouterr().err == f"error: {alias}: line 2: 'a' maps to 'X' above and to 'Y' here\n"


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


@pytest.mark.parametrize("command", [
    ["simulate", "--hops", "2"],
    ["solve", "--T", "2"],
    ["couple", "--scheme", "star"],
])
def test_each_layer_checked_once_per_command(tmp_path, layer_files, monkeypatch, capsys, command):
    """load_network validates each layer; the coupling and the multiplex
    sweep that follow do not run the layer rule book again."""
    seeds = write(tmp_path / "seeds.txt", "b\n")
    paths = {"simulate": ["--seeds-file", seeds],
             "couple": ["--out-edges", str(tmp_path / "e.txt"), "--out-manifest", str(tmp_path / "m.csv")]}
    checked = count_rule_book(monkeypatch)
    layers = [f for path in layer_files for f in ("--layer", path)]
    assert main([*command, *layers, *paths.get(command[0], []), "--out", str(tmp_path / "out.json")]) == 0
    assert checked == [1, 2]


def test_parser_is_built_once():
    from muxlci.cli import build_parser

    assert build_parser() is build_parser()


def same_as_fresh_parser(argv):
    """Check that the process's one parser reads ``argv`` as a parser
    built for this call alone does."""
    from muxlci.cli import build_parser

    assert build_parser().parse_args(argv) == build_parser.__wrapped__().parse_args(argv)


def test_repeated_layer_lists_do_not_pile_up(tmp_path, layer_files, capsys):
    # --layer appends to a default list; each call must start from an empty one
    for i, recipes in enumerate([["20:0.1", "15:0.05"], ["12:0.2"], ["10:0.1"] * 3]):
        out = tmp_path / f"gen{i}"
        argv = ["generate", "--universe", "30", *(f for r in recipes for f in ("--layer", r)), "--out", str(out)]
        same_as_fresh_parser(argv)
        assert main(argv) == 0
        echo = json.loads((out / "network.json").read_text())
        assert echo["per_layer"] == [[int(r.split(":")[0]), float(r.split(":")[1])] for r in recipes]
    assert main(["generate", "--universe", "30", "--out", str(tmp_path / "none")]) == 3
    assert "need --layer" in capsys.readouterr().err
    for i, layers in enumerate([layer_files, layer_files[:1], layer_files[::-1]]):
        summary = tmp_path / f"couple{i}.json"
        argv = ["couple", *(f for path in layers for f in ("--layer", path)), "--scheme", "clique",
                "--out-edges", str(tmp_path / "e.txt"), "--out-manifest", str(tmp_path / "m.csv"),
                "--out", str(summary)]
        same_as_fresh_parser(argv)
        assert main(argv) == 0
        assert json.loads(summary.read_text())["k"] == len(layers)


def test_failed_parse_is_followed_by_a_clean_call(tmp_path, capsys):
    out = tmp_path / "gen"
    for bad in (["generate", "--layer", "20:0.1", "--universe", "many", "--out", str(out)],
                ["generate", "--layer", "20:0.1"],
                ["solve", "--beta", "0.5"],
                ["nosuchcommand"]):
        with pytest.raises(SystemExit) as raised:
            main(bad)
        assert raised.value.code == 2
    assert not out.exists()
    argv = ["generate", "--universe", "30", "--layer", "12:0.2", "--out", str(out)]
    same_as_fresh_parser(argv)
    assert main(argv) == 0
    assert json.loads((out / "network.json").read_text())["per_layer"] == [[12, 0.2]]


def test_solve_defaults_hold_after_other_calls(tmp_path, layer_files, capsys):
    layers = [f for path in layer_files for f in ("--layer", path)]
    argv = ["solve", *layers, "--beta", "0.5", "--hops", "2", "--T", "2", "--out", str(tmp_path / "s.json")]
    same_as_fresh_parser(argv)
    assert main(argv) == 0
    assert json.loads((tmp_path / "s.json").read_text())["beta"] == 0.5
    with pytest.raises(SystemExit):
        main(["solve", *layers, "--beta", "high"])
    test_solve_defaults_are_beta_08_hops_4()


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


STUDIES = {
    "reproduce_trends.py": (
        ["--repetitions", "1", "--out", "trends"],
        [f"trends/{name}{suffix}" for name in ("layer_count_sweep.csv", "overlap_bias.csv", "union_vs_coupled.csv")
         for suffix in ("", ".meta.json")]),
    "coupling_scheme_comparison.py": (
        # a universe of 30 is too small for the forced overlap at this layer size
        ["--repetitions", "1", "--universe", "40", "--layer-size", "20", "--out", "cmp/schemes.csv"],
        ["cmp/schemes.csv", "cmp/schemes.csv.meta.json"]),
    "optimality_gap_study.py": (
        ["--instances", "1", "--universe", "12", "--layer-size", "8", "--out", "gap/gaps.csv"],
        ["gap/gaps.csv"]),
}


@pytest.mark.parametrize("script", sorted(STUDIES))
def test_study_runs_end_to_end(tmp_path, script):
    # each study at a small size, into a directory it has to create
    import csv

    argv, written = STUDIES[script]
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src_path()}, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*") if path.is_file()) == sorted(written)
    for name in written:
        if name.endswith(".csv"):
            with open(tmp_path / name, encoding="utf-8", newline="") as handle:
                rows = list(csv.DictReader(handle))
            assert rows and all(row.get("status", "ok") == "ok" for row in rows), name
