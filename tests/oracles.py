"""Independent reference implementations used only as test oracles.

Deliberately written straight-line (full rescans per round, no
incremental bookkeeping) so they share no code path with the engines
they check.  The ``reference_*`` functions are the exception: they keep
earlier forms of fast paths, against which the package must agree
exactly: the alias renaming as a second pass over a parsed layer, the
eager linear-threshold kernels on the coupled graph and on
the multiplex (sum each touched node's hop total, test it afterwards,
build id sets at once), the independent cascade loop written out in
full (a set of the hop's hits, sorted at the end of the hop),
stochastic-threshold bounds resolved and thresholds drawn afresh on
every call (and checked against any bars the engine passes), the three separate lossless coupling builders (full clique,
full star, reduced) that ``couple()`` now builds in one function, and
the experiment loop that solves every cell on its own instead of once
per (sweep value, repetition, scheme) and measures external influence
on a standalone single-layer copy of the target layer, the two-pass
coupled-file reader that collects id triples and dicts and hands them to
the ``InfluenceGraph`` constructor, the coupled-file writer that
collects every edge as an id triple and sorts the whole list, and the
weight and threshold fills that draw one scalar per unset value
(redrawing a zero weight) and copy every layer in two passes, where the
package draws one block per layer in one pass and shares what it leaves
unchanged, and the network check that sorts every edge and node of a
layer and checks each rule in its own pass, where ``validate`` scans a
layer once and sorts only the violations.
``seed_nodes`` and ``active_users`` map users to and from a coupled
graph's nodes under F for the tests.
"""

import csv
import heapq
import math
import random
from collections import defaultdict
from dataclasses import replace

import numpy as np

from muxlci.coupling import (
    DUMMY,
    GATEWAY,
    INTERMEDIATE,
    REPRESENTATIVE,
    USER_VERTEX,
    CoupledNetwork,
    NodeKind,
)
from muxlci.diffusion import (
    INDEPENDENT_CASCADE,
    LINEAR_THRESHOLD,
    STOCHASTIC_THRESHOLD,
    ActiveSet,
    DiffusionOutcome,
    InfluenceGraph,
    _outcome,
    _seed_indices,
    ic_propagate,
    lt_propagate,
    multiplex_lt_propagate,
    st_propagate,
)
from muxlci.solver import SeedSet, meets_fraction
from muxlci.network import (
    IN_SUM_TOL, WEIGHT_EPS, LayerFormatError, LayerGraph, MultiplexNetwork, _require_complete, subseed,
)

TOL = 1e-12


def reference_load_layer(lines, layer_index):
    """Layer-file parser that strips, tests for a comment and splits each
    line in turn, and adds each user to the node set as its line is read.
    It renames no id: :func:`reference_apply_aliases` does that after."""

    def number(token, line_no):
        try:
            return float(token)
        except ValueError:
            raise LayerFormatError(f"not a number: {token!r}", line_no) from None

    nodes, edges, thresholds = set(), {}, {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["theta"]:
                if len(parts) != 3:
                    raise LayerFormatError("expected '# theta <user> <value>'", line_no)
                user, theta = parts[1], number(parts[2], line_no)
                if user in thresholds and thresholds[user] != theta:
                    raise LayerFormatError(
                        f"threshold of {user!r} is {thresholds[user]} above and {theta} here", line_no)
                nodes.add(user)
                thresholds[user] = theta
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise LayerFormatError(f"expected 'src dst [weight]', got {line!r}", line_no)
        src, dst = parts[0], parts[1]
        if src == dst:
            raise LayerFormatError(f"self-loop on {src!r}", line_no)
        if (src, dst) in edges:
            raise LayerFormatError(f"duplicate edge {src!r} -> {dst!r}", line_no)
        weight = None
        if len(parts) == 3:
            weight = number(parts[2], line_no)
            if not 0.0 <= weight <= 1.0:
                raise LayerFormatError(f"weight {weight} outside [0, 1]", line_no)
        nodes.add(src)
        nodes.add(dst)
        edges[(src, dst)] = weight
    return LayerGraph(layer_index, nodes, edges, thresholds)


def reference_apply_aliases(layer, mapping):
    """A parsed layer renamed through an alias map in a second pass,
    rejecting merges that would create self-loops, duplicate edges or two
    thresholds for one user, where ``load_layer`` renames each id as it
    reads it."""
    rename = lambda u: mapping.get(u, u)
    nodes = {rename(u) for u in layer.nodes}
    edges = {}
    for (src, dst), weight in layer.edges.items():
        key = (rename(src), rename(dst))
        if key[0] == key[1]:
            raise ValueError(f"aliasing {src!r}->{dst!r} creates a self-loop on {key[0]!r}")
        if key in edges:
            raise ValueError(f"aliasing creates duplicate edge {key[0]!r}->{key[1]!r}")
        edges[key] = weight
    thresholds = {}
    for user, theta in layer.thresholds.items():
        target = rename(user)
        if target in thresholds and thresholds[target] != theta:
            raise ValueError(f"aliasing merges conflicting thresholds for {target!r}")
        thresholds[target] = theta
    return LayerGraph(layer.layer_index, nodes, edges, thresholds)


def reference_normalize_incoming_weights(layer, rng_seed):
    """Scalar form of the normalize step of ``network.prepare_network``:
    a new layer with its edges in sorted order, one ``uniform(0, 1)``
    call per unset weight, redrawn while it is 0.0, then each in-weight
    divided by its node's sum."""
    rng = np.random.default_rng(rng_seed)
    edges = {}
    for key in sorted(layer.edges):
        weight = layer.edges[key]
        if weight is None:
            weight = float(rng.uniform(0.0, 1.0))
            while weight == 0.0:
                weight = float(rng.uniform(0.0, 1.0))
        edges[key] = weight
    in_sums = defaultdict(float)
    for (_, dst), weight in edges.items():
        in_sums[dst] += weight
    for (src, dst) in edges:
        total = in_sums[dst]
        if total > 0.0:
            edges[(src, dst)] /= total
    return LayerGraph(layer.layer_index, set(layer.nodes), edges, dict(layer.thresholds))


def reference_fill_missing_thresholds(network, rng_seed):
    """Scalar form of the threshold step of ``network.prepare_network``:
    a new network, layers in order, nodes in sorted order, one
    ``1 - random()`` per missing threshold."""
    rng = np.random.default_rng(rng_seed)
    layers = []
    for layer in network.layers:
        thresholds = dict(layer.thresholds)
        for user in sorted(layer.nodes):
            if user not in thresholds:
                thresholds[user] = float(1.0 - rng.random())
        layers.append(LayerGraph(layer.layer_index, set(layer.nodes), dict(layer.edges), thresholds))
    return MultiplexNetwork(layers)


def reference_prepare_network(layers, rng_seed):
    """``network.prepare_network`` as two passes that copy every layer:
    the scalar normalize on each layer with an unset weight or an
    in-weight sum above ``1 + IN_SUM_TOL``, from stream
    ``weights/<layer index>``, then the scalar threshold fill over the
    whole network from stream ``thresholds``."""
    prepared, normalized = [], []
    for layer in layers:
        in_sums = defaultdict(float)
        for (_, dst), weight in layer.edges.items():
            if weight is not None:
                in_sums[dst] += weight
        if None in layer.edges.values() or any(total > 1.0 + IN_SUM_TOL for total in in_sums.values()):
            layer = reference_normalize_incoming_weights(layer, subseed(rng_seed, f"weights/{layer.layer_index}"))
            normalized.append(layer.layer_index)
        prepared.append(layer)
    return reference_fill_missing_thresholds(MultiplexNetwork(prepared), subseed(rng_seed, "thresholds")), normalized


def id_problem(node):
    """Why a whitespace-split, '#'-commented line cannot carry ``node``,
    or why it would print like another id."""
    if not node:
        return "is empty"
    if any(char.isspace() for char in node):
        return "holds whitespace"
    if node.startswith("#"):
        return "starts with '#'"
    for char in node:
        if not char.isprintable():
            return f"holds a non-printable character U+{ord(char):04X}"
    return None


def reference_validate(network):
    """``network.validate`` in its sort-everything form.  Per layer: the
    structural faults (endpoint, unset or non-finite weight, node id no
    file can carry, missing or non-finite threshold) sorted by message; then over the sorted edges a
    self-loop and a negative or above-1 weight; over the sorted nodes a
    non-positive or above-1 threshold; the sorted unknown threshold
    nodes; the sorted in-weight sums above 1.  Then the universe."""
    finite = lambda value: value is not None and math.isfinite(value)
    report = []
    indices = [layer.layer_index for layer in network.layers]
    if indices != list(range(1, len(network.layers) + 1)):
        report.append(f"layer indices {indices} are not 1..{len(network.layers)}")
    for layer in network.layers:
        tag = f"layer {layer.layer_index}"
        structural = []
        for (src, dst), weight in layer.edges.items():
            if src not in layer.nodes or dst not in layer.nodes:
                structural.append(f"{tag}: edge {src!r}->{dst!r} endpoint outside node set")
            if weight is None:
                structural.append(f"{tag}: edge {src!r}->{dst!r} has unset weight")
            elif not math.isfinite(weight):
                structural.append(f"{tag}: edge {src!r}->{dst!r} weight {weight} is not finite")
        for user in layer.nodes:
            problem = id_problem(user)
            if problem:
                structural.append(f"{tag}: node id {user!r} {problem}")
            theta = layer.thresholds.get(user)
            if theta is None:
                structural.append(f"{tag}: node {user!r} missing threshold")
            elif not math.isfinite(theta):
                structural.append(f"{tag}: node {user!r} threshold {theta} is not finite")
        report.extend(sorted(structural))
        for (src, dst), weight in sorted(layer.edges.items()):
            if src == dst:
                report.append(f"{tag}: self-loop on {src!r}")
            if finite(weight) and weight < 0.0:
                report.append(f"{tag}: edge {src!r}->{dst!r} weight {weight} is negative")
            elif finite(weight) and weight > 1.0 + WEIGHT_EPS:
                report.append(f"{tag}: edge {src!r}->{dst!r} weight {weight} outside [0, 1]")
        for user in sorted(layer.nodes):
            theta = layer.thresholds.get(user)
            if finite(theta) and theta <= 0.0:
                report.append(f"{tag}: node {user!r} non-positive threshold")
            elif finite(theta) and theta > 1.0 + WEIGHT_EPS:
                report.append(f"{tag}: node {user!r} threshold {theta} exceeds 1")
        for user in sorted(set(layer.thresholds) - layer.nodes):
            report.append(f"{tag}: threshold for unknown node {user!r}")
        in_sums = defaultdict(float)
        for (_, dst), weight in layer.edges.items():
            if weight is not None:
                in_sums[dst] += weight
        for node, total in sorted(in_sums.items()):
            if total > 1.0 + IN_SUM_TOL:
                report.append(f"{tag}: node {node!r} in-weight sum exceeds 1 ({total:.6f})")
    if set().union(*(layer.nodes for layer in network.layers)) != network.universe:
        report.append("universe is not the union of the layer node sets")
    if not network.universe:
        report.append("network has no users")
    return report


def naive_multiplex_lt(network, seeds, hops):
    """Hop-by-hop multiplex linear-threshold recomputation from scratch."""
    active = set(seeds)
    trace = [set(seeds)]
    for _ in range(hops):
        newly = set()
        for layer in network.layers:
            for user in layer.nodes:
                if user in active:
                    continue
                total = 0.0
                for (src, dst), weight in layer.edges.items():
                    if dst == user and src in active:
                        total += weight
                if total >= layer.thresholds[user] - TOL:
                    newly.add(user)
        if not newly:
            break
        active |= newly
        trace.append(newly)
    return active, trace


def naive_graph_lt(graph, seeds, hops):
    """Straight-line linear threshold on an InfluenceGraph."""
    active = set(seeds)
    for _ in range(hops):
        newly = set()
        for node in graph.node_ids:
            if node in active:
                continue
            i = graph.index[node]
            total = 0.0
            for ju, targets in enumerate(graph.out):
                for jv, weight in targets:
                    if jv == i and graph.node_ids[ju] in active:
                        total += weight
            if total >= graph.theta[i] - TOL:
                newly.add(node)
        if not newly:
            break
        active |= newly
    return active


def bfs_reachable(graph, seeds, hops):
    """Nodes reachable from the seeds within a hop budget."""
    frontier = {graph.index[s] for s in seeds}
    seen = set(frontier)
    for _ in range(hops):
        frontier = {
            v for u in frontier for (v, _) in graph.out[u] if v not in seen
        }
        if not frontier:
            break
        seen |= frontier
    return {graph.node_ids[i] for i in seen}


def naive_multiplex_ic_mean(network, seeds, hops, samples, seed):
    """Monte Carlo mean coverage of independent cascades run directly on
    the multiplex: each active user attempts each layer edge once."""
    rng = random.Random(seed)
    total = 0.0
    adjacency = []
    for layer in network.layers:
        adj = {}
        for (src, dst), weight in sorted(layer.edges.items()):
            adj.setdefault(src, []).append((dst, weight))
        adjacency.append(adj)
    for _ in range(samples):
        active = set(seeds)
        frontier = sorted(active)
        for _ in range(hops):
            newly = set()
            for adj in adjacency:
                for user in frontier:
                    for (dst, weight) in adj.get(user, ()):
                        if dst not in active and rng.random() < weight:
                            newly.add(dst)
            if not newly:
                break
            active |= newly
            frontier = sorted(newly)
        total += len(active)
    return total / samples


def naive_multiplex_st_mean(network, seeds, hops, samples, seed):
    """Monte Carlo mean coverage of stochastic-threshold diffusion run
    directly on the multiplex: thresholds drawn uniformly from
    (0, stored bound] per sample, then plain multiplex LT."""
    from muxlci.network import LayerGraph, MultiplexNetwork

    rng = random.Random(seed)
    total = 0.0
    for _ in range(samples):
        layers = []
        for layer in network.layers:
            thresholds = {
                user: (1.0 - rng.random()) * layer.thresholds[user]
                for user in sorted(layer.nodes)
            }
            layers.append(LayerGraph(layer.layer_index, set(layer.nodes), dict(layer.edges), thresholds))
        active, _ = naive_multiplex_lt(MultiplexNetwork(layers), seeds, hops)
        total += len(active)
    return total / samples


def naive_easiness(network, user, layer_index, floor):
    """Easiness multiplier by a full edge scan for one (user, layer)."""
    layer = network.layer_by_index(layer_index)
    total = 0.0
    for (src, dst), weight in layer.edges.items():
        if dst == user:
            total += weight
    if total <= 0.0:
        return floor
    return total / layer.thresholds[user]


def naive_involvement(network, user, layer_index, floor):
    """Involvement multiplier by a full edge scan for one (user, layer).

    The closed neighborhood is an insertion-ordered dict (the user, then
    its neighbors in edge order), so the sum does not follow string
    hashing."""
    layer = network.layer_by_index(layer_index)
    hood = {user: None}
    for (src, dst) in layer.edges:
        if src == user:
            hood[dst] = None
        elif dst == user:
            hood[src] = None
    total = 0.0
    seen_edge = False
    adjacency = layer.out_adjacency()
    for x in hood:
        for y, weight in adjacency.get(x, ()):
            if y in hood:
                total += weight / layer.thresholds[y]
                seen_edge = True
    if not seen_edge or total <= 0.0:
        return floor
    return total


def naive_lossy_fold(network, alpha):
    """Lossy thresholds and positive folded edges from a multiplier
    function alpha(user, layer_index), summed in layer order."""
    thresholds = {}
    for user in sorted(network.universe):
        total = 0.0
        for layer in network.layers:
            if user in layer.nodes:
                total += alpha(user, layer.layer_index) * layer.thresholds[user]
        thresholds[user] = total
    folded = {}
    for layer in network.layers:
        for (src, dst), weight in layer.edges.items():
            folded[(src, dst)] = folded.get((src, dst), 0.0) + alpha(dst, layer.layer_index) * weight
    edges = {(src, dst, w) for (src, dst), w in folded.items() if w > 0.0}
    return thresholds, edges


def reference_outcome(graph, per_hop_idx, hops_used):
    """Eager outcome: id sets read at once, weight summed hop by hop in
    each hop's index order (the order ``diffusion._tally`` adds them in,
    so a non-integral weight sum does not follow set iteration order)."""
    active = ActiveSet.from_indices(per_hop_idx, graph.node_ids)
    weight = sum(graph.node_weight[i] for hop in per_hop_idx for i in hop)
    return DiffusionOutcome(active, float(len(active.members)), weight, hops_used)


def reference_multiplex_lt_propagate(network, seeds, hops):
    """Multiplex linear threshold on id dicts: each hop sums every
    layer's frontier edges into per-layer running sums, then tests each
    touched (layer, user) against that layer's threshold."""
    if hops < 0:
        raise ValueError("hop budget must be >= 0")
    unknown = set(seeds) - network.universe
    if unknown:
        raise ValueError(f"unknown seed users: {sorted(unknown)!r}")
    layers = [(layer.out_adjacency(), layer.thresholds) for layer in network.layers]
    active = set(seeds)
    per_hop = [set(seeds)]
    received = [defaultdict(float) for _ in layers]
    frontier = sorted(active)
    hops_used = 0
    for t in range(1, hops + 1):
        touched = set()
        for li, (adjacency, _) in enumerate(layers):
            sums = received[li]
            for u in frontier:
                for v, w in adjacency.get(u, ()):
                    if v not in active:
                        sums[v] += w
                        touched.add((li, v))
        newly = set()
        for li, v in touched:
            if received[li][v] >= layers[li][1][v] - WEIGHT_EPS:
                newly.add(v)
        if not newly:
            break
        active |= newly
        per_hop.append(newly)
        frontier = sorted(newly)
        hops_used = t
    users = tuple(sorted(network.universe))
    position = {u: i for i, u in enumerate(users)}
    per_hop_idx = [sorted(position[u] for u in hop) for hop in per_hop]
    count = float(len(active))
    return DiffusionOutcome(ActiveSet.from_indices(per_hop_idx, users), count, count, hops_used)


def reference_lt_rounds(graph, seed_idx, hops, theta):
    """Linear-threshold sweep that sums every touched node's hop total
    first and tests it against its threshold afterwards."""
    active = bytearray(len(graph.node_ids))
    received = [0.0] * len(graph.node_ids)
    for i in seed_idx:
        active[i] = 1
    per_hop = [list(seed_idx)]
    frontier = seed_idx
    hops_used = 0
    for t in range(1, hops + 1):
        touched = set()
        for u in frontier:
            for v, w in graph.out[u]:
                if not active[v]:
                    received[v] += w
                    touched.add(v)
        newly = sorted(v for v in touched if received[v] >= theta[v] - WEIGHT_EPS)
        if not newly:
            break
        for v in newly:
            active[v] = 1
        per_hop.append(newly)
        frontier = newly
        hops_used = t
    return per_hop, hops_used


def reference_lt_propagate(graph, seeds, hops):
    """Deterministic linear threshold through the reference sweep."""
    seed_idx = _seed_indices(graph, seeds)
    per_hop, hops_used = reference_lt_rounds(graph, seed_idx, hops, graph.theta)
    return reference_outcome(graph, per_hop, hops_used)


def reference_resolve_bounds(graph, st_bounds):
    if st_bounds is None:
        bounds = list(graph.theta)
    else:
        bounds = [float(st_bounds)] * len(graph.node_ids)
    for u, b in zip(graph.node_ids, bounds):
        if not 0.0 < b <= 1.0:
            raise ValueError(f"stochastic threshold bound for {u!r} outside (0, 1]: {b}")
    return bounds


def reference_st_propagate(graph, seeds, hops, model, bars=None):
    """Stochastic threshold through the reference sweep, drawing the
    same thresholds from the same rng stream as the engine.  ``bars``,
    the engine's drawn bars if given, must equal the thresholds drawn
    here less WEIGHT_EPS."""
    seed_idx = _seed_indices(graph, seeds)
    bounds = reference_resolve_bounds(graph, model.st_bounds)
    rng = random.Random(model.rng_seed)
    count_total = 0.0
    weight_total = 0.0
    last = None
    if bars is not None:
        assert len(bars) == model.mc_samples
    for sample in range(model.mc_samples):
        theta = [(1.0 - rng.random()) * b for b in bounds]
        if bars is not None:
            assert bars[sample] == [t - WEIGHT_EPS for t in theta]
        per_hop, hops_used = reference_lt_rounds(graph, seed_idx, hops, theta)
        count_total += len({i for hop in per_hop for i in hop})
        # hop by hop in index order, as the engine adds a non-integral sum
        weight_total += reference_tally(graph, per_hop)[1]
        last = (per_hop, hops_used)
    outcome = reference_outcome(graph, last[0], last[1])
    outcome.coverage_count = count_total / model.mc_samples
    outcome.coverage_weight = weight_total / model.mc_samples
    return outcome


def reference_tally(graph, per_hop_idx):
    weight = graph.node_weight
    return sum(map(len, per_hop_idx)), sum(weight[i] for hop in per_hop_idx for i in hop)


def reference_ic_single(graph, seed_idx, hops, rng):
    active = bytearray(len(graph.node_ids))
    for i in seed_idx:
        active[i] = 1
    per_hop = [list(seed_idx)]
    frontier = seed_idx
    hops_used = 0
    for t in range(1, hops + 1):
        newly = set()
        for u in frontier:
            for v, w in graph.out[u]:
                if not active[v] and rng.random() < w:
                    newly.add(v)
        if not newly:
            break
        newly = sorted(newly)
        for v in newly:
            active[v] = 1
        per_hop.append(newly)
        frontier = newly
        hops_used = t
    return per_hop, hops_used


def reference_ic_propagate(graph, seeds, hops, model):
    """Independent-cascade diffusion, averaged over Monte Carlo samples.

    Each newly active node attempts each out-edge exactly once, with
    success probability equal to the edge weight; the cascade is
    truncated after ``hops`` rounds.  Deterministic under the model's
    rng seed.
    """
    if model.kind != INDEPENDENT_CASCADE:
        raise ValueError("model.kind must be independent_cascade")
    if hops < 0:
        raise ValueError("hop budget must be >= 0")
    seed_idx = _seed_indices(graph, seeds)
    rng = random.Random(model.rng_seed)
    count_total = 0.0
    weight_total = 0.0
    last = None
    for _ in range(model.mc_samples):
        per_hop, hops_used = reference_ic_single(graph, seed_idx, hops, rng)
        count, weight = reference_tally(graph, per_hop)
        count_total += count
        weight_total += weight
        last = (per_hop, hops_used)
    outcome = _outcome(graph, last[0], last[1])
    outcome.coverage_count = count_total / model.mc_samples
    outcome.coverage_weight = weight_total / model.mc_samples
    return outcome


def _gateway(user):
    return user + "@g"


def _rep(user, layer_index):
    return f"{user}@{layer_index}"


def _hub(user):
    return user + "@s"


def _user_vertex(user):
    return user + "@u"


def reference_couple_clique_lossless(network):
    """Clique lossless coupling; hop scale 2.

    Sizes: (k+1)*n vertices and sum(|E_i|) + n*k*(k+1) edges for n users
    and k layers.  Seeds map to gateways.  Every synchronization edge
    weighs 1, at least any threshold, so one active sibling is enough.
    """
    _require_complete(network.layers)
    k = network.k
    users = sorted(network.universe)
    nodes, thresholds, kinds, node_weight = [], {}, {}, {}
    user_of = {}
    edges = []
    for user in users:
        gateway = _gateway(user)
        nodes.append(gateway)
        thresholds[gateway] = 1.0
        kinds[gateway] = NodeKind(GATEWAY, user)
        node_weight[gateway] = 1.0
        user_of[gateway] = user
        ring = [gateway]
        for layer in network.layers:
            rep = _rep(user, layer.layer_index)
            nodes.append(rep)
            node_weight[rep] = 1.0
            if user in layer.nodes:
                thresholds[rep] = layer.thresholds[user]
                kinds[rep] = NodeKind(REPRESENTATIVE, user, layer.layer_index)
            else:
                thresholds[rep] = 1.0
                kinds[rep] = NodeKind(DUMMY, user, layer.layer_index)
            ring.append(rep)
        for src in ring:
            for dst in ring:
                if src != dst:
                    edges.append((src, dst, 1.0))
    for layer in network.layers:
        for (src, dst) in sorted(layer.edges):
            edges.append((_gateway(src), _rep(dst, layer.layer_index), layer.edges[(src, dst)]))
    graph = InfluenceGraph(nodes, edges, thresholds, node_weight)
    return CoupledNetwork(graph, kinds, user_of, 2, "clique", k)


def reference_couple_star_lossless(network):
    """Star lossless coupling; hop scale 3.

    Like the clique scheme but per-user synchronization runs through one
    intermediate hub, so the coupled network has (k+2)*n vertices and
    sum(|E_i|) + 2*n*(k+1) edges.
    """
    _require_complete(network.layers)
    k = network.k
    users = sorted(network.universe)
    nodes, thresholds, kinds, node_weight = [], {}, {}, {}
    user_of = {}
    edges = []
    for user in users:
        gateway = _gateway(user)
        hub = _hub(user)
        nodes.append(gateway)
        thresholds[gateway] = 1.0
        kinds[gateway] = NodeKind(GATEWAY, user)
        node_weight[gateway] = 1.0
        user_of[gateway] = user
        reps = []
        for layer in network.layers:
            rep = _rep(user, layer.layer_index)
            nodes.append(rep)
            node_weight[rep] = 1.0
            if user in layer.nodes:
                thresholds[rep] = layer.thresholds[user]
                kinds[rep] = NodeKind(REPRESENTATIVE, user, layer.layer_index)
            else:
                thresholds[rep] = 1.0
                kinds[rep] = NodeKind(DUMMY, user, layer.layer_index)
            reps.append(rep)
        nodes.append(hub)
        thresholds[hub] = 1.0
        kinds[hub] = NodeKind(INTERMEDIATE, user)
        node_weight[hub] = 1.0
        for rep in reps:
            edges.append((rep, hub, 1.0))
            edges.append((hub, rep, 1.0))
        edges.append((hub, gateway, 1.0))
        edges.append((gateway, hub, 1.0))
    for layer in network.layers:
        for (src, dst) in sorted(layer.edges):
            edges.append((_gateway(src), _rep(dst, layer.layer_index), layer.edges[(src, dst)]))
    graph = InfluenceGraph(nodes, edges, thresholds, node_weight)
    return CoupledNetwork(graph, kinds, user_of, 3, "star", k)


def reference_couple_reduced(network, sync="clique"):
    """Weight-reduced lossless coupling (clique or star synchronization).

    Representatives exist only for layers a user joins (weight 1 each);
    the seedable user vertex carries weight k - p for a user joining p
    layers, so the weighted active fraction on the coupled graph equals
    the active user fraction on the multiplex.  Coverage on these graphs
    must be measured by weight.  Vertices: sum(|V_i|) + n (clique sync)
    or sum(|V_i|) + 2n (star sync).
    """
    if sync not in ("clique", "star"):
        raise ValueError(f"unknown synchronization style {sync!r}")
    _require_complete(network.layers)
    k = network.k
    users = sorted(network.universe)
    nodes, thresholds, kinds, node_weight = [], {}, {}, {}
    user_of = {}
    edges = []
    for user in users:
        vertex = _user_vertex(user)
        nodes.append(vertex)
        thresholds[vertex] = 1.0
        kinds[vertex] = NodeKind(USER_VERTEX, user)
        user_of[vertex] = user
        reps = []
        joined = 0
        for layer in network.layers:
            if user not in layer.nodes:
                continue
            joined += 1
            rep = _rep(user, layer.layer_index)
            nodes.append(rep)
            thresholds[rep] = layer.thresholds[user]
            kinds[rep] = NodeKind(REPRESENTATIVE, user, layer.layer_index)
            node_weight[rep] = 1.0
            reps.append(rep)
        node_weight[vertex] = float(k - joined)
        if sync == "clique":
            ring = [vertex] + reps
            for src in ring:
                for dst in ring:
                    if src != dst:
                        edges.append((src, dst, 1.0))
        else:
            hub = _hub(user)
            nodes.append(hub)
            thresholds[hub] = 1.0
            kinds[hub] = NodeKind(INTERMEDIATE, user)
            node_weight[hub] = 0.0
            for rep in reps:
                edges.append((rep, hub, 1.0))
                edges.append((hub, rep, 1.0))
            edges.append((hub, vertex, 1.0))
            edges.append((vertex, hub, 1.0))
    for layer in network.layers:
        for (src, dst) in sorted(layer.edges):
            edges.append((_user_vertex(src), _rep(dst, layer.layer_index), layer.edges[(src, dst)]))
    graph = InfluenceGraph(nodes, edges, thresholds, node_weight)
    scheme = "reduced-" + sync
    hop_scale = 2 if sync == "clique" else 3
    return CoupledNetwork(graph, kinds, user_of, hop_scale, scheme, k)


def seed_nodes(coupled, users):
    """Sorted coupled seed nodes of a set of users (the inverse of F)."""
    node_of_user = {user: node for node, user in coupled.user_of.items()}
    nodes = []
    for user in users:
        if user not in node_of_user:
            raise ValueError(f"unknown user {user!r}")
        nodes.append(node_of_user[user])
    return sorted(nodes)


def active_users(coupled, members):
    """Users whose F-image node appears in a set of active nodes."""
    return {coupled.user_of[node] for node in members if node in coupled.user_of}


def reference_write_coupled(coupled, edges_stream, manifest_stream):
    """Coupled-file writer that collects every edge as an (src id, dst id,
    weight) triple and writes the sorted list, then the manifest rows in
    index order."""
    graph = coupled.graph
    lines = []
    for iu, targets in enumerate(graph.out):
        src = graph.node_ids[iu]
        for iv, weight in targets:
            lines.append((src, graph.node_ids[iv], weight))
    for src, dst, weight in sorted(lines):
        edges_stream.write(f"{src} {dst} {weight!r}\n")
    writer = csv.writer(manifest_stream, lineterminator="\n")
    writer.writerow(["node_id", "kind", "user_id", "layer", "threshold", "weight"])
    for i, node in enumerate(graph.node_ids):
        kind = coupled.kinds[node]
        writer.writerow([
            node,
            kind.kind,
            kind.user,
            "" if kind.layer is None else kind.layer,
            repr(graph.theta[i]),
            repr(graph.node_weight[i]),
        ])


def reference_read_coupled(edge_lines, manifest_rows):
    """Two-pass coupled-file reader: parse the manifest into dicts and
    the edge lines into (src id, dst id, weight) triples, then build the
    graph with the ``InfluenceGraph`` constructor, which resolves and
    checks every edge again."""
    reader = csv.reader(iter(manifest_rows))
    header = next(reader, None)
    expected = ["node_id", "kind", "user_id", "layer", "threshold", "weight"]
    if header is None:
        raise ValueError(f"manifest is empty: missing the header {','.join(expected)!r}")
    if header != expected:
        raise ValueError(f"unexpected manifest header {header!r}")
    nodes, thresholds, weights, kinds, user_of = [], {}, {}, {}, {}

    def bad_row(problem):
        node = row[0] if row else ""
        return ValueError(f"manifest line {reader.line_num}, node {node!r}: {problem}")

    for row in reader:
        if len(row) != len(expected):
            raise bad_row(f"expected {len(expected)} fields, got {len(row)}")
        node, kind, user, layer, theta, weight = row
        if kind not in (GATEWAY, REPRESENTATIVE, DUMMY, INTERMEDIATE, USER_VERTEX):
            raise bad_row(f"unknown kind {kind!r}")
        try:
            theta, weight, layer = float(theta), float(weight), int(layer) if layer else None
        except ValueError:
            raise bad_row(f"layer {layer!r}, threshold {theta!r} and weight {weight!r} must be numbers") from None
        if not (math.isfinite(theta) and math.isfinite(weight)):
            raise bad_row(f"threshold {theta} and weight {weight} must be finite")
        if id_problem(node):
            raise bad_row(f"node id {id_problem(node)}")
        nodes.append(node)
        thresholds[node] = theta
        weights[node] = weight
        kinds[node] = NodeKind(kind, user, layer)
        if kind in (GATEWAY, USER_VERTEX):
            user_of[node] = user
    edges = []
    for line_no, raw in enumerate(edge_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {line_no}: expected 'src dst weight'")
        src, dst, weight = parts
        try:
            weight = float(weight)
        except ValueError:
            raise ValueError(f"line {line_no}: weight {weight!r} is not a number") from None
        if src not in thresholds or dst not in thresholds:
            unknown = dst if src in thresholds else src
            raise ValueError(f"line {line_no}: node {unknown!r} is not in the manifest")
        if not 0.0 <= weight < math.inf:
            raise ValueError(f"line {line_no}: weight {weight} must be finite and >= 0")
        edges.append((src, dst, weight))
    graph = InfluenceGraph(nodes, edges, thresholds, weights)
    return graph, kinds, user_of


def reference_external_influence(network, seeds, hops, target_layer_index):
    """External influence fraction from two reference runs: the full
    multiplex, and a standalone single-layer network of the target layer
    from the seeds it contains."""
    from muxlci.network import single_layer_network

    layer = network.layer_by_index(target_layer_index)
    full = reference_multiplex_lt_propagate(network, set(seeds), hops)
    in_target = full.active.members & layer.nodes
    if not in_target:
        return 0.0
    restricted = reference_multiplex_lt_propagate(single_layer_network(layer), set(seeds) & layer.nodes, hops)
    return len(in_target - restricted.active.members) / len(in_target)


def reference_run_experiment(spec):
    """``run_experiment`` cell by cell: one ``solve_pipeline``,
    ``union_baseline`` or ``only_baseline`` call of one config per cell
    (with a fresh memo, so no cell shares a solve), and the
    external influence from ``reference_external_influence``."""
    from muxlci import experiment as ex
    from muxlci.generator import generate, subseed
    from muxlci.network import load_network
    from muxlci.solver import GreedyConfig

    file_network = None
    if spec.layer_files is not None:
        file_network, _ = load_network(spec.layer_files, spec.alias_file, spec.base_seed)
    networks = {}
    cells = []
    for axis_name, axis_value, recipe in ex._sweep(spec):
        for repetition in range(spec.repetitions):
            if recipe is None:
                networks[(axis_value, repetition)] = file_network
            else:
                seed = subseed(spec.base_seed, f"net/{axis_value}/{repetition}")
                networks[(axis_value, repetition)] = generate(replace(recipe, rng_seed=seed))
            cells.extend((axis_name, axis_value, repetition, scheme, beta)
                         for scheme in spec.schemes for beta in spec.betas)
    rows = []
    for axis_name, axis_value, repetition, scheme, beta in cells:
        network = networks[(axis_value, repetition)]
        label = {
            "sweep": axis_name or "",
            "sweep_value": "" if axis_value is None else axis_value,
            "repetition": repetition,
            "scheme": scheme,
            "beta": beta,
        }
        try:
            model = ex._diffusion_model(spec)
            effective_beta = beta
            if spec.beta_of_base and spec.synth is not None:
                effective_beta = min(1.0, beta * spec.synth["universe_size"] / len(network.universe))
            cfg = GreedyConfig(effective_beta, spec.hops, spec.T, spec.R, model=model)
            if scheme == "union":
                (result,) = ex.union_baseline(network, [cfg], {})
            elif scheme.startswith("only:"):
                (result,) = ex.only_baseline(network, int(scheme[5:]), [cfg], {})
            else:
                result = ex.solve_pipeline(network, scheme, cfg)
            composition = ex.seed_composition(network, result["seed_users"], result["replay_outcome"])
            external = reference_external_influence(network, result["seed_users"], spec.hops,
                                                    spec.target_layer)
            row = {
                **label,
                "effective_beta": effective_beta,
                "seed_size": result["seed_size"],
                "wall_time_ms": round(result["wall_time_ms"], 3),
                "coupled_fraction": "" if result["coupled_fraction"] is None else result["coupled_fraction"],
                "replayed_fraction": result["replayed_fraction"],
                "overlap_seed_fraction": composition["overlap_seed_fraction"],
                "overlap_population_fraction": composition["overlap_population_fraction"],
                "per_layer_seed_counts": ";".join(map(str, composition["per_layer_seed_counts"])),
                "per_layer_influenced_counts": ";".join(
                    map(str, composition["per_layer_influenced_counts"])),
                "external_influence_fraction": external,
                "seed_users": ";".join(result["seed_users"]),
                "status": "ok",
                "error": "",
            }
        except Exception as exc:
            row = {**{name: "" for name in ex.CSV_FIELDS}, **label,
                   "status": "error", "error": f"{type(exc).__name__}: {exc}"}
        rows.append(row)
    return rows


def _reference_coverage(coupled, seed_nodes, cfg, rng_seed):
    """Coverage of a full run of ``seed_nodes`` on the coupled graph under
    ``cfg.model``, drawn from ``rng_seed`` under a stochastic model."""
    budget = coupled.hop_scale * cfg.hops
    model = replace(cfg.model, rng_seed=rng_seed)
    if model.kind == LINEAR_THRESHOLD:
        outcome = lt_propagate(coupled.graph, seed_nodes, budget)
    elif model.kind == INDEPENDENT_CASCADE:
        outcome = ic_propagate(coupled.graph, seed_nodes, budget, model)
    elif model.kind == STOCHASTIC_THRESHOLD:
        outcome = st_propagate(coupled.graph, seed_nodes, budget, model)
    else:
        raise ValueError(f"unknown diffusion model {model.kind!r}")
    return outcome.coverage_weight


def marginal_gain(coupled, current, candidate, cfg):
    """Coverage gain of adding one candidate node to the current seeds,
    from a full run of each under ``cfg.model`` as given."""
    if candidate in current:
        raise ValueError(f"candidate {candidate!r} already selected")
    if candidate not in coupled.user_of:
        raise ValueError(f"candidate {candidate!r} is not a seedable node")
    rng_seed = cfg.model.rng_seed
    before = _reference_coverage(coupled, current, cfg, rng_seed)
    return _reference_coverage(coupled, [*current, candidate], cfg, rng_seed) - before


def _lazy_greedy(candidates, cover, beta, total, T, R):
    """improved_greedy's heap logic over full reruns: ``cover(seeds,
    iteration)`` is the coverage of ``seeds`` in greedy iteration
    ``iteration`` (0 fills the heap), and ties go to the earlier
    candidate.  Returns (selected, gains, coverages)."""
    heap = [(-cover([c], 0), i, c) for i, c in enumerate(candidates)]
    heapq.heapify(heap)
    selected, gains, coverages, coverage, iteration = [], [], [], 0.0, 0
    while not meets_fraction(coverage, beta, total):
        if not heap:
            raise ValueError("coverage target unreachable: candidate pool exhausted")
        iteration += 1
        base = cover(selected, iteration)
        if iteration % R == 0:
            stale = heap
        else:
            stale = [heapq.heappop(heap) for _ in range(min(T, len(heap)))]
        fresh = [(base - cover(selected + [c], iteration), i, c) for _, i, c in stale]
        if iteration % R == 0:
            heap = fresh
            heapq.heapify(heap)
        else:
            for entry in fresh:
                heapq.heappush(heap, entry)
        _, _, c = heapq.heappop(heap)
        gain = cover(selected + [c], iteration) - base
        selected.append(c)
        gains.append(gain)
        coverage = base + gain
        coverages.append(coverage)
    return selected, gains, coverages


def coupled_lazy_greedy(coupled, cfg):
    """improved_greedy as full reruns: the candidates are the seedable
    nodes in graph index order, and iteration i draws every stochastic
    run from rng seed ``rng_seed + 7919 * i``."""
    graph = coupled.graph
    domain = sorted(coupled.user_of, key=graph.index.__getitem__)
    rng_seed = cfg.model.rng_seed

    def cover(seeds, iteration):
        return _reference_coverage(coupled, seeds, cfg, rng_seed + 7919 * iteration)

    total = graph.total_weight
    selected, gains, coverages = _lazy_greedy(domain, cover, cfg.beta, total, cfg.T, cfg.R)
    return SeedSet(coupled.users_of(selected), gains, coverages, total)


def naive_greedy(coupled, cfg):
    """The plain greedy: every unselected candidate re-evaluated in every
    iteration, the best taken, ties to the smallest node index."""
    return coupled_lazy_greedy(coupled, replace(cfg, R=1))


def multiplex_lazy_greedy(network, beta, hops, T, R):
    """improved_greedy's heap logic on the multiplex itself: coverage is
    multiplex_lt_propagate's user count after ``hops``, candidates are
    the users in sorted order and ties go to the earlier one.  Returns
    (users, gains)."""
    users = sorted(network.universe)

    def cover(seeds, iteration):
        return multiplex_lt_propagate(network, seeds, hops).coverage_count

    selected, gains, _ = _lazy_greedy(users, cover, beta, len(users), T, R)
    return selected, gains
