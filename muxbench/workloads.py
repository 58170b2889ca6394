"""The four workloads: inputs made from a seed, the op list, and output checks.

Every workload drives only the package's public API and ``muxlci.cli.main``,
always through the module attribute (``mx.experiment.solve_pipeline``, not a
name imported once), so that the tracer's wrappers see the calls.

A workload object has

* ``params``: the sizes; the recorded references are only valid for these;
* ``PASS_S``: seconds one untraced pass of the op list took, calibration
  included, on the commit the benchmark was tuned on (a 2-vCPU Intel Xeon
  virtual machine); run.py derives a fixed pass count from it;
* ``setup(seed, workdir)``: builds the inputs and returns a state object;
* ``ops(state)``: the op list, ``[(op name, thunk)]``, run in order;
* ``check(state, outputs)``: ``{op name: (problems, record, seed count)}``
  for every op that returned.  ``record`` is what the reference file holds
  for the op (None for stochastic ops, which are checked only by
  properties that do not depend on the random stream).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random

FRACTION_EPS = 1e-9
LOSSLESS = ("clique", "star", "reduced-clique", "reduced-star")
ALL_SCHEMES = LOSSLESS + ("lossy-easiness", "lossy-involvement", "lossy-average")


def derive(seed, label):
    """Child seed for a named input stream of a workload seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _seed_problems(seeds, universe):
    problems = []
    if len(set(seeds)) != len(seeds):
        problems.append("seed list has duplicates")
    unknown = [s for s in seeds if s not in universe]
    if unknown:
        problems.append(f"seeds outside the universe: {unknown[:3]}")
    if not seeds:
        problems.append("empty seed list")
    return problems


def _pipeline_problems(result, universe, beta, scheme, replay_check):
    problems = _seed_problems(result["seed_users"], universe)
    coupled, replayed = result["coupled_fraction"], result["replayed_fraction"]
    if coupled < beta - FRACTION_EPS:
        problems.append(f"coupled fraction {coupled} below beta {beta}")
    if replay_check:
        if replayed < beta - FRACTION_EPS:
            problems.append(f"replayed fraction {replayed} below beta {beta}")
        if scheme in LOSSLESS and abs(coupled - replayed) > FRACTION_EPS:
            problems.append(f"lossless scheme: coupled {coupled} != replayed {replayed}")
        if scheme not in LOSSLESS and replayed < coupled - FRACTION_EPS:
            problems.append(f"lossy scheme: replayed {replayed} < coupled {coupled}")
    return problems


class _Workload:
    def __init__(self, mx):
        self.mx, self.params = mx, self.PARAMS


class _Networks(_Workload):
    """Shared by the two greedy workloads: m generated two-layer networks."""

    def _generate(self, seed):
        p = self.params
        layer = (p["layer_size"], p["in_degree"] / (p["layer_size"] - 1))
        mx = self.mx
        return [
            mx.generator.generate(mx.generator.SynthSpec(
                p["universe"], [layer, layer], p["overlap"], derive(seed, f"{self.name}/net/{j}")))
            for j in range(p["networks"])
        ]


class LtGreedy(_Networks):
    """Deterministic-LT solve_pipeline; one op solves one network under every scheme.

    An op per network rather than per solve keeps op_s_p50 away from the
    gaps between the schemes' different costs.
    """

    name = "lt-greedy"
    PASS_S = 7.0
    PARAMS = {"networks": 40, "universe": 138, "layer_size": 85, "in_degree": 1.6,
              "overlap": 0.4, "beta": 0.6, "hops": 4, "T": 8, "R": 3,
              "schemes": ["clique", "star", "reduced-clique", "lossy-average"]}

    def setup(self, seed, workdir):
        return {"networks": self._generate(seed)}

    def ops(self, state):
        p, mx = self.params, self.mx
        cfg = mx.solver.GreedyConfig(p["beta"], p["hops"], p["T"], p["R"])
        return [(f"net{j}", lambda net=net: {
                    scheme: mx.experiment.solve_pipeline(net, scheme, cfg) for scheme in p["schemes"]})
                for j, net in enumerate(state["networks"])]

    def check(self, state, outputs):
        beta = self.params["beta"]
        checked = {}
        for j, net in enumerate(state["networks"]):
            results = outputs.get(f"net{j}")
            if results is None:
                continue
            problems, record, seeds = [], {}, 0
            for scheme, result in results.items():
                graph = self.mx.coupling.couple(net, scheme).graph
                record[scheme] = {
                    "seeds": list(result["seed_users"]),
                    "gains": list(result["gains"]),
                    "vertices": len(graph),
                    "edges": sum(len(t) for t in graph.out),
                }
                problems += [f"{scheme}: {problem}" for problem in
                             _pipeline_problems(result, net.universe, beta, scheme, True)]
                seeds += len(result["seed_users"])
            checked[f"net{j}"] = (problems, record, seeds)
        return checked


class McGreedy(_Networks):
    """Monte Carlo greedy: IC on clique, stochastic threshold on reduced-clique."""

    name = "mc-greedy"
    PASS_S = 8.5
    PARAMS = {"networks": 24, "universe": 100, "layer_size": 62, "in_degree": 2.4,
              "overlap": 0.4, "beta": 0.4, "hops": 3, "T": 8, "R": 3, "mc_samples": 20,
              "runs": [["independent_cascade", "clique"], ["stochastic_threshold", "reduced-clique"]]}

    def setup(self, seed, workdir):
        return {"networks": self._generate(seed), "seed": seed}

    def ops(self, state):
        p, mx = self.params, self.mx
        ops = []
        for j, net in enumerate(state["networks"]):
            for kind, scheme in p["runs"]:
                model = mx.diffusion.DiffusionModel(
                    kind=kind, mc_samples=p["mc_samples"],
                    rng_seed=derive(state["seed"], f"{self.name}/rng/{j}/{kind}"))
                cfg = mx.solver.GreedyConfig(p["beta"], p["hops"], p["T"], p["R"], model=model)
                ops.append((f"net{j}/{kind}/{scheme}", lambda net=net, scheme=scheme, cfg=cfg:
                            mx.experiment.solve_pipeline(net, scheme, cfg)))
        return ops

    def check(self, state, outputs):
        beta = self.params["beta"]
        checked = {}
        for j, net in enumerate(state["networks"]):
            for kind, scheme in self.params["runs"]:
                name = f"net{j}/{kind}/{scheme}"
                if name in outputs:
                    result = outputs[name]
                    problems = _pipeline_problems(result, net.universe, beta, scheme, False)
                    checked[name] = (problems, None, len(result["seed_users"]))
        return checked


def _read_layer_file(path):
    """(nodes, edge count) of a layer file, parsed here, not by the package."""
    nodes, edges = set(), 0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "#":
                if parts[1:2] == ["theta"]:
                    nodes.add(parts[2])
                continue
            nodes.update(parts[:2])
            edges += 1
    return nodes, edges


def _expected_size(scheme, n, k, sum_nodes, sum_edges):
    """Coupled (vertices, edges) of the lossless schemes; None for lossy ones."""
    return {
        "clique": ((k + 1) * n, sum_edges + n * k * (k + 1)),
        "star": ((k + 2) * n, sum_edges + 2 * n * (k + 1)),
        "reduced-clique": (sum_nodes + n, None),
        "reduced-star": (sum_nodes + 2 * n, None),
    }.get(scheme)


class CoupleSimulate(_Workload):
    """The CLI write and read paths: couple every scheme, then simulate."""

    name = "couple-simulate"
    PASS_S = 5.0
    PARAMS = {"universe": 1800, "layers": 3, "layer_size": 800, "in_degree": 2.4,
              "overlap": 0.4, "hops": 4, "seed_sizes": [8, 32, 64, 128]}

    def _main(self, argv):
        code = self.mx.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"muxlci {argv[0]} exited with {code}")

    def setup(self, seed, workdir):
        p = self.params
        netdir = os.path.join(workdir, "net")
        argv = ["generate", "--universe", str(p["universe"]), "--overlap", str(p["overlap"]),
                "--seed", str(derive(seed, f"{self.name}/net")), "--out", netdir]
        for _ in range(p["layers"]):
            argv += ["--layer", f"{p['layer_size']}:{p['in_degree'] / (p['layer_size'] - 1)!r}"]
        self._main(argv)
        layers = [os.path.join(netdir, f"layer{i}.txt") for i in range(1, p["layers"] + 1)]
        parsed = [_read_layer_file(path) for path in layers]
        universe = sorted(set().union(*(nodes for nodes, _ in parsed)))
        rng = random.Random(derive(seed, f"{self.name}/seeds"))
        seed_sets = [rng.sample(universe, size) for size in p["seed_sizes"]]
        seed_files = []
        for f, users in enumerate(seed_sets):
            path = os.path.join(workdir, f"seeds{f}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(users) + "\n")
            seed_files.append(path)
        return {
            "workdir": workdir, "layers": layers, "seed_sets": seed_sets, "seed_files": seed_files,
            "n": len(universe), "sum_nodes": sum(len(nodes) for nodes, _ in parsed),
            "sum_edges": sum(edges for _, edges in parsed),
        }

    def _paths(self, state, scheme):
        base = os.path.join(state["workdir"], scheme)
        return base + ".edges", base + ".csv", base + ".json"

    def _layer_args(self, state):
        args = []
        for path in state["layers"]:
            args += ["--layer", path]
        return args

    def _couple(self, state, scheme):
        edges, manifest, summary = self._paths(state, scheme)
        self._main(["couple", *self._layer_args(state), "--scheme", scheme, "--seed", "1",
                    "--out-edges", edges, "--out-manifest", manifest, "--out", summary])
        with open(summary, encoding="utf-8") as handle:
            info = json.load(handle)
        # coupled seed files, named through the manifest the op wrote
        node_of = {}
        with open(manifest, encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                if row["kind"] in ("gateway", "user"):
                    node_of[row["user_id"]] = row["node_id"]
        for f, users in enumerate(state["seed_sets"]):
            with open(f"{edges}.seeds{f}", "w", encoding="utf-8") as handle:
                handle.write("\n".join(node_of[u] for u in users) + "\n")
        return info

    def _simulate(self, state, scheme, f, hops):
        out = os.path.join(state["workdir"], f"sim-{scheme}-{f}.json")
        if scheme == "multiplex":
            argv = ["simulate", *self._layer_args(state), "--seeds-file", state["seed_files"][f]]
        else:
            edges, manifest, _ = self._paths(state, scheme)
            argv = ["simulate", "--coupled-edges", edges, "--coupled-manifest", manifest,
                    "--seeds-file", f"{edges}.seeds{f}"]
        self._main(argv + ["--hops", str(hops), "--out", out])
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)

    def ops(self, state):
        d = self.params["hops"]
        files = range(len(state["seed_files"]))
        infos = {}
        ops = []
        for scheme in ALL_SCHEMES:
            def couple(scheme=scheme):
                infos[scheme] = self._couple(state, scheme)
                return infos[scheme]
            ops.append((f"couple/{scheme}", couple))
            for f in files:
                ops.append((f"simulate/{scheme}/{f}", lambda scheme=scheme, f=f:
                            self._simulate(state, scheme, f, infos[scheme]["hop_scale"] * d)))
        for f in files:
            ops.append((f"simulate/multiplex/{f}", lambda f=f: self._simulate(state, "multiplex", f, d)))
        return ops

    def check(self, state, outputs):
        checked = {}
        k, n = self.params["layers"], state["n"]
        files = range(len(state["seed_files"]))
        for scheme in ALL_SCHEMES:
            name = f"couple/{scheme}"
            if name in outputs:
                info = outputs[name]
                problems = []
                expected = _expected_size(scheme, n, k, state["sum_nodes"], state["sum_edges"])
                if scheme.startswith("lossy") and info["nodes"] != n:
                    problems.append(f"lossy coupling has {info['nodes']} vertices, not {n}")
                if expected and info["nodes"] != expected[0]:
                    problems.append(f"{info['nodes']} vertices, expected {expected[0]}")
                if expected and expected[1] is not None and info["edges"] != expected[1]:
                    problems.append(f"{info['edges']} edges, expected {expected[1]}")
                checked[name] = (problems, [info["nodes"], info["edges"]], 0)
        for f in files:
            direct = outputs.get(f"simulate/multiplex/{f}")
            if direct is not None:
                problems = []
                if not len(state["seed_sets"][f]) <= direct["coverage_count"] <= n:
                    problems.append(f"multiplex coverage {direct['coverage_count']} out of range")
                checked[f"simulate/multiplex/{f}"] = (
                    problems, [direct["coverage_count"]], len(state["seed_sets"][f]))
            for scheme in ALL_SCHEMES:
                name = f"simulate/{scheme}/{f}"
                if name not in outputs:
                    continue
                out = outputs[name]
                problems = []
                if direct is None:
                    problems.append("no multiplex run to compare with")
                else:
                    users = direct["coverage_count"]
                    count, weight = out["coverage_count"], out["coverage_weight"]
                    if scheme == "clique" and count != (k + 1) * users:
                        problems.append(f"clique coverage {count} != (k+1) * {users}")
                    if scheme == "star" and count != (k + 2) * users:
                        problems.append(f"star coverage {count} != (k+2) * {users}")
                    if scheme.startswith("reduced") and abs(weight - k * users) > FRACTION_EPS:
                        problems.append(f"{scheme} weighted coverage {weight} != k * {users}")
                    if scheme.startswith("lossy") and count > users:
                        problems.append(f"lossy coverage {count} exceeds multiplex {users}")
                checked[name] = (problems, [out["coverage_count"], out["coverage_weight"]],
                                 len(state["seed_sets"][f]))
        return checked


class Sweep(_Workload):
    """run_experiment over every scheme and two baselines.

    jobs stays at its default of 1: with the two-thread pool the same op
    list spread 10-15 % from run to run on a 2-vCPU host, against 6-7 %
    serially, too much for the bound, and the pool was slower anyway.
    """

    name = "sweep"
    PASS_S = 8.5
    PARAMS = {"sweeps": 40, "universe_size": 60, "layer_size": 37, "edge_prob": 0.0667, "k": 2,
              "overlap_fraction": 0.4, "betas": [0.3, 0.6], "repetitions": 2, "hops": 4,
              "schemes": list(ALL_SCHEMES) + ["union", "only:1"]}

    def _spec(self, base_seed):
        p = self.params
        synth = {key: p[key] for key in ("universe_size", "layer_size", "edge_prob", "k",
                                          "overlap_fraction")}
        text = json.dumps({"schemes": p["schemes"], "betas": p["betas"], "hops": p["hops"],
                           "repetitions": p["repetitions"], "base_seed": base_seed, "synth": synth})
        return self.mx.experiment.ExperimentSpec.from_json(text)

    def setup(self, seed, workdir):
        return {"specs": [self._spec(derive(seed, f"{self.name}/{j}"))
                          for j in range(self.params["sweeps"])]}

    def ops(self, state):
        return [(f"sweep{j}", lambda spec=spec: self.mx.experiment.run_experiment(spec))
                for j, spec in enumerate(state["specs"])]

    def check(self, state, outputs):
        p = self.params
        expected_rows = len(p["schemes"]) * len(p["betas"]) * p["repetitions"]
        checked = {}
        for j, spec in enumerate(state["specs"]):
            name = f"sweep{j}"
            if name not in outputs:
                continue
            rows = outputs[name]
            problems = []
            if len(rows) != expected_rows:
                problems.append(f"{len(rows)} rows, expected {expected_rows}")
            for row in rows:
                tag = f"{row['scheme']} beta={row['beta']} rep={row['repetition']}"
                if row["status"] != "ok":
                    problems.append(f"{tag}: {row['error']}")
                    continue
                seeds = row["seed_users"].split(";")
                if len(set(seeds)) != len(seeds) or len(seeds) != row["seed_size"]:
                    problems.append(f"{tag}: malformed seed list")
                if row["scheme"] in ALL_SCHEMES and row["replayed_fraction"] < row["effective_beta"] - FRACTION_EPS:
                    problems.append(f"{tag}: replayed fraction below beta")
            record = [[row["scheme"], row["beta"], row["repetition"], row["seed_users"]] for row in rows]
            seeds_total = sum(row["seed_size"] for row in rows if row["status"] == "ok")
            checked[name] = (problems, record, seeds_total)
        return checked


WORKLOADS = {cls.name: cls for cls in (LtGreedy, McGreedy, CoupleSimulate, Sweep)}
