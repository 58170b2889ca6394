"""Command-line front end.

Subcommands: generate | couple | simulate | solve | export-ilp | experiment.
All outputs are UTF-8 with LF newlines and deterministic ordering; run
metadata (seeds, solver parameters, code version) is embedded in every
result so runs can be reproduced bit-identically.

Exit codes: 0 ok, 2 input format error, 3 invalid value/configuration,
4 I/O error, 5 pipeline soundness violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .coupling import COUPLING_SCHEMES, check_scheme_model, couple, read_coupled, write_coupled
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
from .experiment import ExperimentSpec, run_experiment, solve_pipeline, write_rows_csv
from .generator import SynthSpec, generate, small_ilp_instance, spec_echo
# muxbench spans.bindings wraps load_layer_file and validate here; test_benchmark_selftest fails without them
from .network import LayerFormatError, load_layer_file, load_network, serialize_layer, validate  # noqa: F401
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


def _write_json(payload, path):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _read_seeds(path):
    seeds = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
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
        echo = spec_echo(spec)
    os.makedirs(args.out, exist_ok=True)
    paths = []
    for layer in network.layers:
        path = os.path.join(args.out, f"layer{layer.layer_index}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize_layer(layer))
        paths.append(path)
    echo["version"] = __version__
    echo["layer_files"] = paths
    echo["users"] = len(network.universe)
    echo["layer_stats"] = [
        {"layer": layer.layer_index, "nodes": len(layer.nodes),
         "edges": len(layer.edges), "avg_degree": round(layer.average_degree(), 4)}
        for layer in network.layers
    ]
    _write_json(echo, os.path.join(args.out, "network.json"))
    return 0


def cmd_couple(args):
    model = _diffusion_model(args)
    check_scheme_model(args.scheme, model)
    network, normalized = load_network(args.layer, args.alias, args.seed)
    coupled = couple(network, args.scheme, model_kind=model.kind)
    with open(args.out_edges, "w", encoding="utf-8") as edges, \
         open(args.out_manifest, "w", encoding="utf-8", newline="") as manifest:
        write_coupled(coupled, edges, manifest)
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
    _write_json(summary, args.out)
    return 0


def cmd_simulate(args):
    model = _diffusion_model(args)
    seeds = _read_seeds(args.seeds_file)
    kinds = None
    if bool(args.coupled_edges) != bool(args.coupled_manifest):
        raise ValueError("--coupled-edges and --coupled-manifest go together")
    if args.coupled_edges:
        ignored = [flag for flag, given in (("--layer", args.layer), ("--alias", args.alias)) if given]
        if ignored:
            raise ValueError(f"{' and '.join(ignored)} cannot be given with --coupled-edges")
        with open(args.coupled_edges, encoding="utf-8") as edges, \
             open(args.coupled_manifest, encoding="utf-8", newline="") as manifest:
            graph, kinds, _ = read_coupled(edges, manifest)
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
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8", newline="") as handle:
            write_trace(outcome, handle, kinds)
    _write_json({
        "seeds": sorted(seeds),
        "hops": args.hops,
        "model": args.model,
        "coverage_count": outcome.coverage_count,
        "coverage_weight": outcome.coverage_weight,
        "coverage_fraction": covered / total if total else 0.0,
        "hops_used": outcome.hops_used,
        "rng_seed": args.seed,
        "version": __version__,
    }, args.out)
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
    model = _diffusion_model(args)
    network, _ = load_network(args.layer, args.alias, args.seed)
    coupled = couple(network, args.scheme, model_kind=model.kind)
    cfg = GreedyConfig(args.beta, args.hops)
    with open(args.out, "w", encoding="utf-8") as handle:
        summary = export_ilp(coupled, cfg, handle)
    summary.update({"scheme": coupled.scheme, "out": args.out, "version": __version__})
    _write_json(summary, None)
    return 0


def cmd_experiment(args):
    with open(args.config, encoding="utf-8") as handle:
        spec = ExperimentSpec.from_json(handle.read())
    out = args.out or spec.out
    if not out:
        raise ValueError("no output path: pass --out or set 'out' in the config")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"cannot write {out}: its directory does not exist")
    rows = run_experiment(spec)
    write_rows_csv(rows, out, spec=spec)
    failed = sum(1 for row in rows if row["status"] != "ok")
    print(f"{len(rows)} cells -> {out} ({failed} failed)")
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
    _add_model_args(p)
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
    _add_model_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_ilp)

    p = sub.add_parser("experiment", help="run a sweep from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
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
