"""Every reader takes any bytes: edits of a valid file either load or
raise the reader's documented error naming a line, whatever loads
round-trips through its writer to equal state, and through the CLI each
edit exits 0, 2 or 3, never with a traceback."""

import io
import json
import re
from types import SimpleNamespace

from hypothesis import given, strategies as st

from muxlci.cli import main
from muxlci.coupling import couple, read_coupled, write_coupled
from muxlci.experiment import SYNTH_FIELDS, ExperimentSpec
from muxlci.network import LayerFormatError, _parse_file, load_alias_map, load_layer, serialize_layer

from conftest import random_network

INSERTED = ("\ufeff", "\u200b", "\r", "\x00", "\t")
NUMBERS = ("nan", "inf", "1e400", "-0.0", "0_5")
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e-?\d+)?(?![\w.])")
EDITS = ("insert", "duplicate line", "drop line", "duplicate field", "drop field", "number")
CLI_EXITS = (0, 2, 3)

LAYER = "# a layer\n# theta a 0.5\n# theta b 0.25\na b 0.5\nb c 0.75\nc a\n"
ALIAS = "# per-layer ids\na1\ta2\ta\nc1\tc2\tc\n"
ALIASED_LAYERS = ("a1 b 0.5\nb c1 0.5\n# theta a1 0.5\n", "a2 c2 0.5\n")
CONFIG = json.dumps({"schemes": ["clique"], "betas": [0.5], "hops": 2, "repetitions": 1, "base_seed": 3,
                     "synth": {"universe_size": 10, "layer_size": 7, "edge_prob": 0.3, "k": 2}}, indent=1)


def _coupled_files():
    coupled = couple(random_network(5, max_users=6, max_layers=2), "clique")
    edges, manifest = io.StringIO(), io.StringIO()
    write_coupled(coupled, edges, manifest)
    return edges.getvalue(), manifest.getvalue(), sorted(coupled.user_of)[0]


EDGES, MANIFEST, COUPLED_SEED = _coupled_files()


@st.composite
def edits_of(draw, text, sep):
    """``text`` after one to three edits, each of one line: an inserted
    BOM, U+200B, CR, NUL or tab; the line duplicated or dropped; one of
    its ``sep``-separated fields duplicated or dropped; or one of its
    numbers replaced by nan, inf, 1e400, -0.0 or 0_5."""
    lines = text.splitlines(keepends=True)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        edit = draw(st.sampled_from(EDITS))
        if edit == "insert":
            at = draw(st.integers(0, len(line)))
            lines[i] = line[:at] + draw(st.sampled_from(INSERTED)) + line[at:]
        elif edit == "duplicate line":
            lines.insert(i, line)
        elif edit == "drop line":
            del lines[i]
        elif edit == "number":
            spans = [match.span() for match in NUMBER.finditer(line)]
            if spans:
                start, end = draw(st.sampled_from(spans))
                lines[i] = line[:start] + draw(st.sampled_from(NUMBERS)) + line[end:]
        else:
            body = line.rstrip("\r\n")
            fields = body.split(sep)
            j = draw(st.integers(0, len(fields) - 1))
            if edit == "duplicate field":
                fields.insert(j, fields[j])
            else:
                del fields[j]
            lines[i] = sep.join(fields) + line[len(body):]
    return "".join(lines)


def write(directory, name, text):
    path = directory / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def names_its_line(exc, path):
    return exc.line_no is not None and str(exc).startswith(f"{path}: line {exc.line_no}: ")


def layer_state(layer):
    """Everything a layer holds, floats by repr, so a nan equals itself."""
    return (layer.layer_index, layer.nodes, {edge: repr(w) for edge, w in layer.edges.items()},
            {user: repr(theta) for user, theta in layer.thresholds.items()})


def coupled_state(graph, kinds, user_of):
    return (graph.node_ids, list(map(repr, graph.theta)), list(map(repr, graph.node_weight)),
            [sorted((iv, repr(w)) for iv, w in targets) for targets in graph.out],
            [kinds[node] for node in graph.node_ids], user_of)


def round_trip(layer):
    assert layer_state(load_layer(io.StringIO(serialize_layer(layer)), layer.layer_index)) == layer_state(layer)


def run_cli(directory, argv, seeds="a\n"):
    argv = [*argv, "--seeds-file", write(directory, "seeds.txt", seeds), "--hops", "2",
            "--out", str(directory / "out.json")]
    assert main(["simulate", *argv]) in CLI_EXITS


@given(edits_of(LAYER, " "))
def test_layer_file_loads_or_names_its_line(tmp_path_factory, text):
    directory = tmp_path_factory.mktemp("layer")
    path = write(directory, "layer.txt", text)
    try:
        layer = _parse_file(path, load_layer, 1)
    except LayerFormatError as exc:
        assert names_its_line(exc, path), exc
    else:
        round_trip(layer)
    run_cli(directory, ["--layer", path])


@given(edits_of(ALIAS, "\t"))
def test_alias_file_loads_or_names_its_line(tmp_path_factory, text):
    directory = tmp_path_factory.mktemp("alias")
    path = write(directory, "alias.txt", text)
    layers = [write(directory, f"layer{i}.txt", layer) for i, layer in enumerate(ALIASED_LAYERS, start=1)]
    try:
        aliases = _parse_file(path, load_alias_map)
    except LayerFormatError as exc:
        assert names_its_line(exc, path), exc
    else:
        # every id maps to a canonical id, which is its own
        assert not set(aliases.values()) & set(aliases)
        for i, layer in enumerate(layers, start=1):
            round_trip(_parse_file(layer, load_layer, i, aliases))
    run_cli(directory, ["--layer", layers[0], "--layer", layers[1], "--alias", path])


COUPLED_FAULT = re.compile(r"(manifest )?line \d+|duplicate edge |unexpected manifest header|manifest is empty")


@given(st.booleans(), edits_of(EDGES, " "), edits_of(MANIFEST, ","))
def test_coupled_files_load_or_name_their_line(tmp_path_factory, edit_edges, edges, manifest):
    directory = tmp_path_factory.mktemp("coupled")
    edges_path = write(directory, "edges.txt", edges if edit_edges else EDGES)
    manifest_path = write(directory, "manifest.csv", MANIFEST if edit_edges else manifest)
    try:
        rows = _parse_file(manifest_path, list, newline="")
        loaded = _parse_file(edges_path, read_coupled, rows)
    except ValueError as exc:
        assert not isinstance(exc, LayerFormatError), exc  # every byte is UTF-8
        assert COUPLED_FAULT.match(str(exc)), exc
    else:
        graph, kinds, user_of = loaded
        out_edges, out_manifest = io.StringIO(), io.StringIO()
        write_coupled(SimpleNamespace(graph=graph, kinds=kinds), out_edges, out_manifest)
        again = read_coupled(io.StringIO(out_edges.getvalue()), out_manifest.getvalue().splitlines(keepends=True))
        assert coupled_state(*again) == coupled_state(*loaded)
    run_cli(directory, ["--coupled-edges", edges_path, "--coupled-manifest", manifest_path], f"{COUPLED_SEED}\n")


# a spec or synth field by name, "betas" also as "beta"
CONFIG_FIELD = re.compile(r"\b(%s)s?\b" % "|".join(
    re.escape(name.removesuffix("s")) for name in [*ExperimentSpec.__dataclass_fields__, *SYNTH_FIELDS]))


def names_its_field(exc, text):
    """Whether a config fault names a field of the spec or of its synth
    recipe, or by its repr a key of the config that is neither."""
    data = json.loads(text)
    synth = data.get("synth")
    keys = [*data, *(synth if isinstance(synth, dict) else ())]
    return CONFIG_FIELD.search(str(exc)) is not None or any(repr(key) in str(exc) for key in keys)


@given(edits_of(CONFIG, " "))
def test_experiment_config_loads_or_raises_value_error(tmp_path_factory, text):
    directory = tmp_path_factory.mktemp("config")
    path = write(directory, "config.json", text)
    try:
        ExperimentSpec.from_json(_parse_file(path, "".join))
    except json.JSONDecodeError as exc:
        assert f"line {exc.lineno} " in str(exc), exc
    except ValueError as exc:
        assert names_its_field(exc, text), exc
    assert main(["experiment", "--config", path, "--out", str(directory / "table.csv")]) in CLI_EXITS
