"""Command-line front end.

Subcommands: generate | couple | simulate | solve | export-ilp | experiment.
All outputs are UTF-8 with LF newlines and deterministic ordering; run
metadata (seeds, solver parameters, code version) is embedded in every
result so runs can be reproduced bit-identically.  A command's output
files are replaced together, once every one is complete, and a failed
command leaves each file as it was.  An I/O error names the path given
on the command line.

Exit codes: 0 ok, 2 input format error, 3 invalid value/configuration,
4 I/O error, 5 pipeline soundness violation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys

from . import __version__
from .coupling import COUPLING_SCHEMES, couple, read_coupled, write_coupled
from .diffusion import (
    DiffusionModel,
    INDEPENDENT_CASCADE,
    LINEAR_THRESHOLD,
    STOCHASTIC_THRESHOLD,
    ic_propagate,
    lt_propagate,
    multiplex_lt_propagate,
    st_propagate,
    write_trace,
)
from .experiment import ExperimentSpec, _model_record, run_experiment, solve_pipeline, write_rows_csv
from .generator import SynthSpec, generate, small_ilp_instance
# muxbench spans.bindings wraps load_layer_file and validate here; test_benchmark_selftest fails without them
from .network import (  # noqa: F401
    LayerFormatError, _parse_file, _replacing, load_layer_file, load_network, serialize_layer, validate)
from .solver import GreedyConfig, export_ilp

MODEL_NAMES = {
    "lt": LINEAR_THRESHOLD,
    "st": STOCHASTIC_THRESHOLD,
    "ic": INDEPENDENT_CASCADE,
    LINEAR_THRESHOLD: LINEAR_THRESHOLD,
    STOCHASTIC_THRESHOLD: STOCHASTIC_THRESHOLD,
    INDEPENDENT_CASCADE: INDEPENDENT_CASCADE,
}

# users of a generated network when --universe is not given
DEFAULT_UNIVERSE = 100


@contextlib.contextmanager
def _writing(payload, path, *paths):
    """Handles on ``paths``, whose files are replaced together with the
    JSON ``payload`` at ``path`` (``_replacing``); when ``path`` is None
    or "-", the JSON goes to stdout once the files are in place."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    to_stdout = path in (None, "-")
    with _replacing(*paths, *([] if to_stdout else [path])) as handles:
        yield handles[:len(paths)]
        if not to_stdout:
            handles[-1].write(text)
    if to_stdout:
        sys.stdout.write(text)


def _write_json(payload, path):
    with _writing(payload, path):
        pass


def _read_seeds(lines):
    seeds = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        seeds.extend(line.split())
    return seeds


def _diffusion_model(args):
    return DiffusionModel(kind=MODEL_NAMES[args.model], mc_samples=args.mc_samples, rng_seed=args.seed)


def _layer_recipe(item):
    """(size, prob) of a ``--layer SIZE:PROB`` recipe."""
    try:
        size, prob = item.split(":")
        return int(size), float(prob)
    except ValueError:
        raise ValueError(f"--layer {item!r}: expected SIZE:PROB, an int and a number") from None


def cmd_generate(args):
    if args.preset == "small-ilp":
        given = [flag for flag, value in (("--layer", args.layer_spec), ("--universe", args.universe),
                                          ("--overlap", args.overlap)) if value not in (None, [])]
        if given:
            raise ValueError(f"--preset small-ilp fixes the recipe; drop {', '.join(given)}")
        network = small_ilp_instance(args.seed)
        echo = {"preset": "small-ilp", "rng_seed": args.seed}
    else:
        if not args.layer_spec:
            raise ValueError("need --layer SIZE:PROB (repeatable) or --preset small-ilp")
        per_layer = [_layer_recipe(item) for item in args.layer_spec]
        if args.overlap is not None and len(per_layer) == 1:
            raise ValueError("--overlap sets the overlap between layers; one --layer has none")
        universe = DEFAULT_UNIVERSE if args.universe is None else args.universe
        spec = SynthSpec(universe, per_layer, args.overlap, args.seed)
        network = generate(spec)
        echo = dataclasses.asdict(spec)
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, f"layer{layer.layer_index}.txt") for layer in network.layers]
    echo["version"] = __version__
    echo["layer_files"] = paths
    echo["users"] = len(network.universe)
    echo["layer_stats"] = [
        {"layer": layer.layer_index, "nodes": len(layer.nodes),
         "edges": len(layer.edges), "avg_degree": round(layer.average_degree(), 4)}
        for layer in network.layers
    ]
    with _writing(echo, os.path.join(args.out, "network.json"), *paths) as handles:
        for layer, handle in zip(network.layers, handles):
            handle.write(serialize_layer(layer))
    return 0


def cmd_couple(args):
    network, normalized = load_network(args.layer, args.alias, args.seed)
    coupled = couple(network, args.scheme)
    summary = {
        "scheme": coupled.scheme,
        "hop_scale": coupled.hop_scale,
        "nodes": len(coupled.graph),
        "edges": sum(len(t) for t in coupled.graph.out),
        "users": len(coupled.user_of),
        "k": coupled.k,
        "normalized_layers": normalized,
        "rng_seed": args.seed,
        "version": __version__,
    }
    with _writing(summary, args.out, args.out_edges, args.out_manifest) as (edges, manifest):
        write_coupled(coupled, edges, manifest)
    return 0


def cmd_simulate(args):
    model = _diffusion_model(args)
    seeds = _parse_file(args.seeds_file, _read_seeds)
    kinds = None
    if bool(args.coupled_edges) != bool(args.coupled_manifest):
        raise ValueError("--coupled-edges and --coupled-manifest go together")
    if args.coupled_edges:
        ignored = [flag for flag, given in (("--layer", args.layer), ("--alias", args.alias)) if given]
        if ignored:
            raise ValueError(f"{' and '.join(ignored)} cannot be given with --coupled-edges")
        manifest = _parse_file(args.coupled_manifest, list, newline="")
        graph, kinds, _ = _parse_file(args.coupled_edges, read_coupled, manifest)
        if model.kind == LINEAR_THRESHOLD:
            outcome = lt_propagate(graph, seeds, args.hops)
        elif model.kind == INDEPENDENT_CASCADE:
            outcome = ic_propagate(graph, seeds, args.hops, model)
        else:
            outcome = st_propagate(graph, seeds, args.hops, model)
        # node weights: a reduced coupling counts each user once, not each vertex
        covered, total = outcome.coverage_weight, graph.total_weight
    else:
        if model.kind != LINEAR_THRESHOLD:
            raise ValueError("stochastic models need a coupled graph (--coupled-edges)")
        network, _ = load_network(args.layer, args.alias, args.seed)
        outcome = multiplex_lt_propagate(network, seeds, args.hops)
        covered, total = outcome.coverage_count, len(network.universe)
    record = {
        "seeds": sorted(seeds),
        "hops": args.hops,
        "model": _model_record(model),
        "coverage_count": outcome.coverage_count,
        "coverage_weight": outcome.coverage_weight,
        "coverage_fraction": covered / total if total else 0.0,
        "hops_used": outcome.hops_used,
        "rng_seed": args.seed,
        "version": __version__,
    }
    with _writing(record, args.out, *([args.trace_out] if args.trace_out else [])) as traces:
        for handle in traces:
            write_trace(outcome, handle, kinds)
    return 0


def cmd_solve(args):
    model = _diffusion_model(args)
    network, normalized = load_network(args.layer, args.alias, args.seed)
    cfg = GreedyConfig(args.beta, args.hops, args.T, args.R, model=model)
    result = solve_pipeline(network, args.scheme, cfg)
    result.pop("replay_outcome")
    result["rng_seed"] = args.seed
    result["normalized_layers"] = normalized
    _write_json(result, args.out)
    return 0


def cmd_export_ilp(args):
    network, normalized = load_network(args.layer, args.alias, args.seed)
    coupled = couple(network, args.scheme)
    cfg = GreedyConfig(args.beta, args.hops)
    with _replacing(args.out) as (handle,):
        summary = export_ilp(coupled, cfg, handle)
    summary.update({"scheme": coupled.scheme, "out": args.out, "normalized_layers": normalized,
                    "rng_seed": args.seed, "version": __version__})
    _write_json(summary, None)
    return 0


def cmd_experiment(args):
    spec = ExperimentSpec.from_json(_parse_file(args.config, "".join))
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"cannot write {args.out}: its directory does not exist")
    rows = run_experiment(spec)
    write_rows_csv(rows, args.out, spec=spec)
    failed = sum(1 for row in rows if row["status"] != "ok")
    print(f"{len(rows)} cells -> {args.out} ({failed} failed)")
    return 0


def _add_network_args(parser, layers_required=True):
    parser.add_argument("--layer", action="append", default=[], required=layers_required,
                        help="layer edge-list file, repeat per layer in order")
    parser.add_argument("--alias", help="tab-separated alias file remapping user ids")
    parser.add_argument("--seed", type=int, default=0, help="seed of the weight, threshold and model draws")


def _add_model_args(parser):
    parser.add_argument("--model", choices=sorted(set(MODEL_NAMES)), default="lt")
    parser.add_argument("--mc-samples", type=int, default=1000, dest="mc_samples")


@functools.cache
def build_parser():
    """The one argument parser of this process, built on first use.

    Parsing keeps no state in the parser: each call fills a new namespace,
    and argparse copies a repeated option's default list before appending
    to it.  A namespace without that option holds the default list
    itself, so no command may change a list it is given.
    """
    parser = argparse.ArgumentParser(prog="muxlci", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"muxlci {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a multiplex network")
    p.add_argument("--preset", choices=["small-ilp"], default=None)
    p.add_argument("--universe", type=int, default=None, help=f"number of users (default {DEFAULT_UNIVERSE})")
    p.add_argument("--layer", action="append", default=[], dest="layer_spec",
                   metavar="SIZE:PROB", help="layer recipe, repeatable")
    p.add_argument("--overlap", type=float, default=None,
                   help="forced pairwise overlap fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("couple", help="build a coupled network from layer files")
    _add_network_args(p)
    p.add_argument("--scheme", choices=COUPLING_SCHEMES, required=True)
    p.add_argument("--out-edges", required=True, dest="out_edges")
    p.add_argument("--out-manifest", required=True, dest="out_manifest")
    p.add_argument("--out", default=None, help="summary JSON path (default: stdout)")
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("simulate", help="run diffusion from a seed file")
    _add_network_args(p, layers_required=False)
    p.add_argument("--coupled-edges", dest="coupled_edges")
    p.add_argument("--coupled-manifest", dest="coupled_manifest")
    p.add_argument("--seeds-file", required=True, dest="seeds_file")
    p.add_argument("--hops", type=int, required=True)
    _add_model_args(p)
    p.add_argument("--trace-out", dest="trace_out")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="select a minimum seed set")
    _add_network_args(p)
    p.add_argument("--scheme", choices=list(COUPLING_SCHEMES) + ["direct"], default="clique")
    p.add_argument("--beta", type=float, default=0.8)
    p.add_argument("--hops", type=int, default=4)
    p.add_argument("--T", type=int, default=8)
    p.add_argument("--R", type=int, default=3)
    _add_model_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("export-ilp", help="write the 0-1 program for a coupled network")
    _add_network_args(p)
    p.add_argument("--scheme", choices=COUPLING_SCHEMES, default="clique")
    p.add_argument("--beta", type=float, default=0.8)
    p.add_argument("--hops", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_ilp)

    p = sub.add_parser("experiment", help="run a sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="CSV table path; its .meta.json sidecar goes beside it")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LayerFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
