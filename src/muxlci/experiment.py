"""End-to-end solve pipeline and the sweep experiment harness.

``solve_pipeline`` runs the full chain for one configuration: couple the
network, select seeds on the coupled graph, map them back to users, and
replay them with the direct multiplex simulator.  The replayed fraction
must reach the target; for lossless couplings it equals the coupled
fraction, for lossy ones it may only exceed it.

``run_experiment`` executes a cross-product of (sweep value x scheme x
beta x repetition) cells and emits one CSV row per cell with seed-set
composition metrics; cells that differ only in beta share one coupling
and one greedy run.  Besides the coupling schemes it supports three
baselines: "union" (solve each layer separately and take the union of
the seed sets), "only:<i>" (solve layer i alone), and "direct"
(brute-force optimum on the multiplex, small universes only).
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace

from . import __version__
from .coupling import COUPLING_SCHEMES, check_scheme_model, couple
from .diffusion import (
    DiffusionModel, LINEAR_THRESHOLD, multiplex_lt_propagate, require_beta, require_count, require_int,
    require_number,
)
from .generator import SynthSpec, generate
from .network import _replacing, load_network, subseed
from .solver import FRACTION_EPS, GreedyConfig, brute_force_optimal, improved_greedy, meets_fraction

BASELINE_SCHEMES = ("union", "direct")
SYNTH_FIELDS = ("universe_size", "layer_size", "edge_prob", "k", "overlap_fraction", "per_layer")


def _model_record(model):
    record = {"kind": model.kind}
    if model.kind != LINEAR_THRESHOLD:
        record["mc_samples"] = model.mc_samples
        record["rng_seed"] = model.rng_seed
    return record


def _network_record(network):
    return {
        "k": network.k,
        "users": len(network.universe),
        "layer_sizes": [len(layer.nodes) for layer in network.layers],
        "overlapping_users": len(network.overlap),
    }


def _result(network, cfg, scheme, users, gains, coupled_fraction, shared_ms):
    """Replay ``users`` on the multiplex and build the JSON-ready result
    record shared by the pipeline and the baselines.

    ``coupled_fraction`` is the fraction a coupled solve reached (None
    for "direct" and "union", which have no coupled graph); it is also
    the record's ``achieved_fraction``, which is the replayed fraction
    otherwise.  ``wall_time_ms`` is ``shared_ms`` plus the replay's own
    time.
    """
    started = time.perf_counter()
    replay = multiplex_lt_propagate(network, set(users), cfg.hops)
    replayed_fraction = replay.coverage_count / len(network.universe)
    return {
        "scheme": scheme,
        "beta": cfg.beta,
        "hops": cfg.hops,
        "T": cfg.T,
        "R": cfg.R,
        "seed_users": list(users),
        "gains": list(gains),
        "seed_size": len(users),
        "achieved_fraction": replayed_fraction if coupled_fraction is None else coupled_fraction,
        "coupled_fraction": coupled_fraction,
        "replayed_fraction": replayed_fraction,
        "replay_outcome": replay,
        "wall_time_ms": shared_ms + _ms_since(started),
        "model": _model_record(cfg.model),
        "network": _network_record(network),
        "version": __version__,
    }


def _ms_since(started):
    return (time.perf_counter() - started) * 1000.0


def _pipeline_results(network, scheme, cfgs):
    """Solve one scheme for configs that differ only in beta.

    The greedy reads beta only in its stop test, and its Monte Carlo
    seeds follow the iteration counter, so one coupling and one greedy
    run at the largest beta hold every smaller beta's run as a prefix
    (``SeedSet.prefix``).  Brute force ("direct") is not prefix-shaped
    and searches once per config.

    Returns one result record per config (``_result``), whose
    ``wall_time_ms`` is the shared coupling and solve time plus its own
    replay.  Under deterministic linear threshold each replay is checked
    against its target, which a coupling or the brute force promises,
    and against the coupled fraction: a lossless coupling preserves the
    diffusion, so the two are equal, and a lossy one is sound, so the
    replay reaches at least as far.  RuntimeError names a violation.
    """
    started = time.perf_counter()
    kind = cfgs[0].model.kind
    if scheme == "direct":
        seed_sets = [brute_force_optimal(network, cfg.beta, cfg.hops) for cfg in cfgs]
    else:
        coupled = couple(network, scheme)
        full = improved_greedy(coupled, replace(cfgs[0], beta=max(cfg.beta for cfg in cfgs)))
        seed_sets = [full.prefix(cfg.beta) for cfg in cfgs]
    shared_ms = _ms_since(started)
    results = []
    for cfg, seed_set in zip(cfgs, seed_sets):
        coupled_fraction = None if scheme == "direct" else seed_set.achieved_fraction
        result = _result(network, cfg, scheme, seed_set.users, seed_set.gains, coupled_fraction, shared_ms)
        if kind == LINEAR_THRESHOLD:
            _check_guarantee(scheme, cfg.beta, coupled_fraction, result["replayed_fraction"])
        results.append(result)
    return results


def _check_guarantee(scheme, beta, coupled, replayed):
    """Raise RuntimeError unless a deterministic-LT replay meets ``beta``
    and matches the coupled fraction as the scheme promises (equal when
    lossless, at least it when lossy), with FRACTION_EPS slack."""
    if not meets_fraction(replayed, beta, 1.0):
        raise RuntimeError(f"pipeline soundness violated: replayed fraction {replayed:.6f} below target {beta}")
    if coupled is None:
        return
    if scheme.startswith("lossy-"):
        if replayed < coupled - FRACTION_EPS:
            raise RuntimeError(f"pipeline soundness violated: {scheme} replayed fraction {replayed!r}"
                               f" below coupled fraction {coupled!r}")
    elif abs(replayed - coupled) > FRACTION_EPS:
        raise RuntimeError(f"pipeline soundness violated: lossless {scheme} replayed fraction {replayed!r}"
                           f" differs from coupled fraction {coupled!r}")


def solve_pipeline(network, scheme, cfg):
    """Couple, solve with the lazy greedy, map seeds through F, and
    replay on the multiplex.

    Returns a JSON-ready result dict with both the coupled-graph
    fraction and the replayed direct-multiplex fraction.  The greedy
    counts coverage by node weight; every node weighs 1 off the reduced
    couplings, where that is the node count.  "direct" searches the
    multiplex by brute force instead.  Raises ValueError before coupling
    for a scheme the model cannot run (see
    :func:`~muxlci.coupling.check_scheme_model`), and RuntimeError if the
    replayed fraction misses the target or breaks the scheme's promise
    (which a correct coupling cannot produce).
    """
    check_scheme_model(scheme, cfg.model)
    (result,) = _pipeline_results(network, scheme, [cfg])
    return result


def _layer_results(network, layer_index, cfgs, memo):
    """One layer's own lossy-average results on ``network.alone`` for
    configs that differ only in beta (see ``_pipeline_results``).

    ``memo`` keeps them under (layer index, betas), so the "union" and
    "only:<i>" cells of one network share one solve per layer; it must
    not outlive the network or mix configs that differ in anything but
    beta.
    """
    key = (layer_index, tuple(cfg.beta for cfg in cfgs))
    if key not in memo:
        memo[key] = _pipeline_results(network.alone(layer_index), "lossy-average", cfgs)
    return memo[key]


def union_baseline(network, cfgs, memo):
    """Per config, the union of each layer's own lossy-average seeds,
    replayed on the multiplex.  ``cfgs`` differ only in beta; each layer
    is solved once for all of them through ``memo``, under the contract
    of ``_layer_results``, and that time counts in every row.  One
    config alone is ``[cfg]`` with a fresh ``{}``."""
    per_layer = [_layer_results(network, layer.layer_index, cfgs, memo) for layer in network.layers]
    results = []
    for cfg, layer_results in zip(cfgs, zip(*per_layer)):
        pooled = list(dict.fromkeys(user for result in layer_results for user in result["seed_users"]))
        shared_ms = sum(result["wall_time_ms"] for result in layer_results)
        results.append(_result(network, cfg, "union", pooled, [], None, shared_ms))
    return results


def only_baseline(network, layer_index, cfgs, memo):
    """Per config, one layer's own lossy-average seeds (target: beta of
    that layer's node count) replayed on the full multiplex; ``cfgs``
    and ``memo`` as in :func:`union_baseline`."""
    return [
        _result(network, cfg, f"only:{layer_index}", result["seed_users"], result["gains"],
                result["coupled_fraction"], result["wall_time_ms"])
        for cfg, result in zip(cfgs, _layer_results(network, layer_index, cfgs, memo))
    ]


def external_influence_fraction(network, seeds, hops, target_layer_index, full):
    """Share of the target layer's activations that vanish when
    cross-layer propagation is disabled.

    The restricted run is the target layer alone (``network.alone``)
    from its seeds; activations present in the full multiplex run but
    not in the restricted one were only reachable through influence
    entering via overlapping users.  ``full`` is the full run's outcome
    (``multiplex_lt_propagate`` of the same seeds and hops).
    """
    layer = network.layer_by_index(target_layer_index)
    in_target = full.active.members & layer.nodes
    if not in_target:
        return 0.0, 0, 0
    local_seeds = set(seeds) & layer.nodes
    restricted = multiplex_lt_propagate(network.alone(target_layer_index), local_seeds, hops)
    external = in_target - restricted.active.members
    return len(external) / len(in_target), len(external), len(in_target)


def seed_composition(network, seeds, replay_outcome):
    """Overlap share and per-layer counts for a seed set and its cascade."""
    overlap = network.overlap
    seeds = list(seeds)
    active = replay_outcome.active.members
    per_layer_seeds = [len(set(seeds) & layer.nodes) for layer in network.layers]
    per_layer_active = [len(active & layer.nodes) for layer in network.layers]
    overlap_share = (len(set(seeds) & overlap) / len(seeds)) if seeds else 0.0
    population_share = len(overlap) / len(network.universe) if network.universe else 0.0
    return {
        "overlap_seed_fraction": overlap_share,
        "overlap_population_fraction": population_share,
        "per_layer_seed_counts": per_layer_seeds,
        "per_layer_influenced_counts": per_layer_active,
    }


def _check_layer(label, index, layers):
    """Raise unless layer ``index`` exists in every network of the sweep,
    whose smallest has ``layers`` layers numbered from 1 (None: unknown)."""
    if layers is not None and not 1 <= index <= layers:
        raise ValueError(f"{label}: layer {index} is missing from a network of {layers} layers in this sweep")


@dataclass
class ExperimentSpec:
    """Declarative sweep configuration.

    Exactly one network source: ``layer_files`` (paths in layer order)
    or ``synth`` (uniform recipe: universe_size, layer_size, edge_prob,
    k, optional overlap_fraction; or an explicit per_layer list).
    Optional sweeps regenerate a ``synth`` network per value (combined
    with ``layer_files`` or with each other they raise ValueError):
    ``k_values`` sweeps the layer count, ``overlap_values`` the forced
    overlap fraction.  With ``beta_of_base`` the coverage target is beta
    times the universe *base* size instead of the realized union,
    matching fixed-audience protocols.  Every cell but "direct" runs the
    lazy greedy with ``T`` and ``R``; ``R = 1`` re-evaluates every
    candidate in every iteration, which is the plain greedy.  The spec
    holds what reproduces the table, not where it goes: the table's
    path is ``muxlci experiment --out``, and a config naming ``out`` is
    refused as an unknown field.

    A sweep that could only fail cell by cell raises ValueError before
    its first network.  The spec raises at load for a list field
    (``schemes``, ``betas``, ``k_values``, ``overlap_values``,
    ``layer_files``) that is not a list, a scheme that is not a string,
    a layer file or ``alias_file`` that is not a path, an
    ``alias_file`` without ``layer_files``, a ``synth`` that is not a
    mapping, has a key outside ``SYNTH_FIELDS`` or whose ``per_layer``
    is not a list of pairs, a
    ``beta_of_base`` that is not a bool or is set with ``layer_files``,
    a ``base_seed`` that is not an integer, no schemes or betas, a beta
    outside (0, 1], ``hops``, ``T``, ``R``, ``repetitions`` or
    ``target_layer`` not an integer or below 1, a ``model`` record that
    does not build a DiffusionModel (so an ``st_bounds`` that is not one
    number in (0, 1] or None), a lossy scheme under a stochastic-threshold
    model without ``st_bounds``
    (:func:`~muxlci.coupling.check_scheme_model`), or a ``target_layer``
    or ``only:<i>`` layer that some network of the sweep lacks.  The
    model is built here once, as the DiffusionModel ``diffusion_model``
    (deterministic linear threshold when ``model`` is None), and every
    cell uses it.  :func:`run_experiment` raises for the rest of the
    recipe, and for a bad sweep entry, before it generates the first
    network: a missing or ill-typed ``synth`` field, a ``k_values``
    sweep over a ``per_layer`` recipe, or a forced overlap the
    universe cannot hold (:class:`~muxlci.generator.SynthSpec`).
    """

    schemes: list
    betas: list
    hops: int = 4
    T: int = 8
    R: int = 3
    repetitions: int = 1
    base_seed: int = 0
    synth: dict = None
    layer_files: list = None
    alias_file: str = None
    model: dict = None
    k_values: list = None
    overlap_values: list = None
    beta_of_base: bool = False
    target_layer: int = 1

    def __post_init__(self):
        for name in ("schemes", "betas", "k_values", "overlap_values", "layer_files"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, (list, tuple)):
                raise ValueError(f"{name} must be a list, not {value!r}")
        if self.synth is not None:
            if not isinstance(self.synth, dict):
                raise ValueError(f"synth must be a mapping, not {self.synth!r}")
            unknown = self.synth.keys() - set(SYNTH_FIELDS)
            if unknown:
                raise ValueError(f"unknown synth fields: {sorted(unknown, key=str)}")
        if (self.synth is None) == (self.layer_files is None):
            raise ValueError("specify exactly one of synth or layer_files")
        if self.layer_files is not None and (self.k_values or self.overlap_values):
            raise ValueError("k_values and overlap_values sweep a synth network, not layer_files")
        if self.k_values and self.overlap_values:
            raise ValueError("k_values and overlap_values are two sweeps: set one of them")
        for path in [*(self.layer_files or ()), self.alias_file]:
            if path is not None and not isinstance(path, (str, os.PathLike)):
                raise ValueError(f"layer_files and alias_file must be paths, not {path!r}")
        if self.alias_file is not None and self.layer_files is None:
            raise ValueError("alias_file merges the users of layer_files, not of a synth network")
        if not isinstance(self.beta_of_base, bool):
            raise ValueError(f"beta_of_base must be true or false, not {self.beta_of_base!r}")
        if self.beta_of_base and self.layer_files is not None:
            raise ValueError("beta_of_base scales beta by a synth universe_size, not layer_files")
        require_int("base_seed", self.base_seed)
        if not self.schemes or not self.betas:
            raise ValueError("schemes and betas must each list at least one value")
        for beta in self.betas:
            require_beta(beta)
        for name in ("hops", "T", "R", "repetitions", "target_layer"):
            require_count(name, getattr(self, name))
        self.diffusion_model = _diffusion_model(self)
        layers = self._fewest_layers()
        _check_layer("target_layer", self.target_layer, layers)
        for scheme in self.schemes:
            if not isinstance(scheme, str):
                raise ValueError(f"schemes must be strings, not {scheme!r}")
            if scheme in COUPLING_SCHEMES or scheme in BASELINE_SCHEMES:
                check_scheme_model(scheme, self.diffusion_model)
                continue
            if scheme.startswith("only:") and scheme[5:].isdigit():
                _check_layer(scheme, int(scheme[5:]), layers)
                continue
            raise ValueError(f"unknown scheme {scheme!r}")

    def _fewest_layers(self):
        """Layer count of the smallest network the sweep builds, or None
        if the recipe does not say; raises ValueError for a ``per_layer``
        that is not a list of pairs."""
        if self.layer_files is not None:
            return len(self.layer_files)
        if "per_layer" in self.synth:
            per_layer = self.synth["per_layer"]
            pair = (list, tuple)
            if not isinstance(per_layer, pair) or not all(isinstance(e, pair) and len(e) == 2 for e in per_layer):
                raise ValueError(f"per_layer must be a list of [layer_size, edge_prob] pairs, not {per_layer!r}")
            return len(per_layer)
        if self.k_values:
            return min(self.k_values) if all(isinstance(k, int) for k in self.k_values) else None
        k = self.synth.get("k")
        return k if isinstance(k, int) else None

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"an experiment config must be a JSON object, not {data!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown experiment fields: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise ValueError(f"missing experiment fields: {missing}")
        return cls(**data)


def _diffusion_model(spec):
    """The spec's DiffusionModel; raises ValueError on a bad ``model`` record."""
    try:
        model = DiffusionModel(**(spec.model if spec.model is not None else {}))
    except TypeError as exc:
        raise ValueError(f"model {spec.model!r}: {exc}") from None
    return model


def _sweep(spec):
    """The sweep's networks in order: one (axis name, axis value,
    SynthSpec with rng_seed 0) per sweep value, or a single (None, None,
    None) for ``layer_files``.  ValueError names a bad sweep entry or
    recipe field, or an infeasible recipe, before any network is built."""
    if spec.layer_files is not None:
        return [(None, None, None)]
    recipe = spec.synth
    if spec.k_values:
        for value in spec.k_values:
            require_count("k_values entry", value)
        if "per_layer" in recipe:
            raise ValueError("k_values sweep needs a uniform synth recipe")
        axis = [("k", value) for value in spec.k_values]
    elif spec.overlap_values:
        for value in spec.overlap_values:
            require_number("overlap_values entry", value)
        axis = [("overlap", value) for value in spec.overlap_values]
    else:
        axis = [(None, None)]
    sweep = []
    for axis_name, axis_value in axis:
        try:
            if "per_layer" in recipe:
                per_layer = [tuple(entry) for entry in recipe["per_layer"]]
            else:
                k = axis_value if axis_name == "k" else recipe["k"]
                require_count("k", k)
                per_layer = [(recipe["layer_size"], recipe["edge_prob"])] * k
            universe_size = recipe["universe_size"]
        except KeyError as missing:
            raise ValueError(f"synth needs {missing.args[0]!r}") from None
        overlap = axis_value if axis_name == "overlap" else recipe.get("overlap_fraction")
        sweep.append((axis_name, axis_value, SynthSpec(universe_size, per_layer, overlap)))
    return sweep


def _results(network, scheme, cfgs, memo):
    if scheme == "union":
        return union_baseline(network, cfgs, memo)
    if scheme.startswith("only:"):
        return only_baseline(network, int(scheme[5:]), cfgs, memo)
    return _pipeline_results(network, scheme, cfgs)


def _row(spec, network, head, result):
    """The ok row of one result; ``head`` holds its label columns and beta."""
    composition = seed_composition(network, result["seed_users"], result["replay_outcome"])
    external, _, _ = external_influence_fraction(
        network, result["seed_users"], spec.hops, spec.target_layer, result["replay_outcome"]
    )
    return {
        **head,
        "effective_beta": result["beta"],
        "seed_size": result["seed_size"],
        "wall_time_ms": round(result["wall_time_ms"], 3),
        "coupled_fraction": "" if result["coupled_fraction"] is None else result["coupled_fraction"],
        "replayed_fraction": result["replayed_fraction"],
        "overlap_seed_fraction": composition["overlap_seed_fraction"],
        "overlap_population_fraction": composition["overlap_population_fraction"],
        "per_layer_seed_counts": ";".join(map(str, composition["per_layer_seed_counts"])),
        "per_layer_influenced_counts": ";".join(map(str, composition["per_layer_influenced_counts"])),
        "external_influence_fraction": external,
        "seed_users": ";".join(result["seed_users"]),
        "status": "ok",
        "error": "",
    }


def _group_rows(spec, network, label, betas, memo):
    """Rows of one scheme on one network for ``betas``, solved together;
    if anything raises, each beta is solved alone.  ``label`` holds the
    rows' sweep, sweep_value, repetition and scheme columns, and
    ``memo`` the network's single-layer results (``_layer_results``)."""
    try:
        cfgs = []
        for beta in betas:
            if spec.beta_of_base:
                beta = min(1.0, beta * spec.synth["universe_size"] / len(network.universe))
            cfgs.append(GreedyConfig(beta, spec.hops, spec.T, spec.R, model=spec.diffusion_model))
        results = _results(network, label["scheme"], cfgs, memo)
        return [_row(spec, network, {**label, "beta": beta}, result) for beta, result in zip(betas, results)]
    except Exception as exc:  # mark the row, keep the sweep going
        if len(betas) > 1:
            return [row for beta in betas for row in _group_rows(spec, network, label, [beta], memo)]
        return [{**dict.fromkeys(CSV_FIELDS, ""), **label, "beta": betas[0],
                 "status": "error", "error": f"{type(exc).__name__}: {exc}"}]


CSV_FIELDS = [
    "sweep", "sweep_value", "repetition", "scheme", "beta", "effective_beta",
    "seed_size", "wall_time_ms", "coupled_fraction", "replayed_fraction",
    "overlap_seed_fraction", "overlap_population_fraction",
    "per_layer_seed_counts", "per_layer_influenced_counts",
    "external_influence_fraction", "seed_users", "status", "error",
]


def run_experiment(spec):
    """Run every cell of the sweep; failed cells become marked rows.

    Returns the list of row dicts in deterministic cell order: by sweep
    value, then repetition, then scheme, then beta.  A bad recipe, sweep
    entry or layer file raises before the first network is built
    (:func:`_sweep`) instead of marking cells.  Each synth network is
    generated when the loop reaches it, from a sub-seed of
    ``base_seed``, so the table is reproducible from the spec alone.  A
    failed cell's ``error`` reads "<exception type>: <message>".

    The cells of one (sweep value, repetition, scheme) share one
    coupling and one greedy run, at their largest effective beta; each
    beta takes the shortest prefix of that selection that meets it,
    which is the seed set a run at that beta alone returns.  Every row
    still gets its own replay and soundness check, and its
    ``wall_time_ms`` counts the shared coupling and greedy time plus
    that replay, so the shared time appears in each row of the group.
    "direct" cells are solved one at a time, and so is every cell of a
    group in which anything raises, so a failing cell fails no other.
    The "union" and "only:<i>" groups of one network share one
    single-layer solve per layer, whose time likewise appears in every
    row of both.
    """
    sweep = _sweep(spec)
    if spec.layer_files is not None:
        file_network, _ = load_network(spec.layer_files, spec.alias_file, spec.base_seed)
    rows = []
    for axis_name, axis_value, recipe in sweep:
        for repetition in range(spec.repetitions):
            seed = subseed(spec.base_seed, f"net/{axis_value}/{repetition}")
            network = file_network if recipe is None else generate(replace(recipe, rng_seed=seed))
            memo = {}
            for scheme in spec.schemes:
                label = {"sweep": axis_name or "", "sweep_value": "" if axis_value is None else axis_value,
                         "repetition": repetition, "scheme": scheme}
                for betas in [[beta] for beta in spec.betas] if scheme == "direct" else [spec.betas]:
                    rows.extend(_group_rows(spec, network, label, betas, memo))
    return rows


def experiment_metadata(spec):
    """Everything needed to regenerate an experiment table bit-identically."""
    return {**asdict(spec), "version": __version__}


def write_rows_csv(rows, path, spec):
    """Write experiment rows as CSV, plus a .meta.json sidecar carrying
    the spec's full configuration (layer and alias paths as strings).
    The two files are replaced together, so a spec that cannot be
    recorded changes neither."""
    with _replacing(path, f"{path}.meta.json") as (table, sidecar):
        writer = csv.DictWriter(table, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        sidecar.write(json.dumps(experiment_metadata(spec), indent=2, sort_keys=True, default=os.fspath) + "\n")
