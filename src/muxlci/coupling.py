"""Coupling schemes: project a multiplex network onto a single network.

Every scheme produces a :class:`CoupledNetwork` carrying the coupled
graph, a user<->node bijection F (``user_of``) on the seedable nodes,
and a hop-scale factor: d hops of direct multiplex diffusion correspond
to ``hop_scale * d`` hops on the coupled graph.

Lossless schemes reproduce multiplex diffusion exactly.  They are one
construction with two switches.  Per user there is a seedable vertex
and one representative per layer the user joins; all of a user's
outgoing influence flows through the seedable vertex, and the user's
vertices synchronize so that one active sibling activates the rest:

* sync — "clique" ties them pairwise (hop scale 2); "star" routes
  through one extra hub per user, trading edges (2(k+1) per user
  instead of k(k+1)) for one more synchronization hop (hop scale 3).
  A sync edge weighs 1, which activates its target alone under every
  diffusion model, so one coupling serves them all.
* dummies — on ("clique", "star"): the seedable vertex is a gateway,
  each layer the user does not join gets a dummy representative with
  threshold 1 and no layer edges, and every vertex weighs 1.  Off
  ("reduced-clique", "reduced-star"): no dummies; representatives weigh
  1, the hub 0, and the seedable user vertex k - p for a user joining p
  of the k layers, so weighted coverage on the coupled graph equals user
  coverage on the multiplex.

The lossy scheme keeps one vertex per user and folds the per-layer
activation conditions into one inequality by positive per-layer
multipliers alpha: threshold(u) = sum_i alpha_i(u) * theta_i(u) and
w(v, u) = sum_i alpha_i(u) * w_i(v, u).  Any seed set reaching a target
fraction on the lossy graph reaches at least that fraction on the
multiplex.  Multipliers: "average" (all 1), "easiness" (in-weight mass
over threshold), or "involvement" (neighborhood cohesion).
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .diffusion import STOCHASTIC_THRESHOLD, InfluenceGraph
from .network import _id_fault

GATEWAY = "gateway"
REPRESENTATIVE = "representative"
DUMMY = "dummy"
INTERMEDIATE = "intermediate"
USER_VERTEX = "user"
# each kind maps to its own constant, so every node of a kind shares one string
_NODE_KINDS = {kind: kind for kind in (GATEWAY, REPRESENTATIVE, DUMMY, INTERMEDIATE, USER_VERTEX)}
_MANIFEST_HEADER = ("node_id", "kind", "user_id", "layer", "threshold", "weight")

COUPLING_SCHEMES = (
    "clique",
    "star",
    "reduced-clique",
    "reduced-star",
    "lossy-easiness",
    "lossy-involvement",
    "lossy-average",
)

# the lossy multiplier of a user whose easiness or involvement sums to zero
ALPHA_FLOOR = 1.0


class NodeKind(NamedTuple):
    """Role of a coupled node: which user it stands for and, for
    representatives and dummies, which layer."""

    kind: str
    user: str
    layer: int = None


class NodeKinds(Mapping):
    """Read-only node id -> :class:`NodeKind` over three columns aligned
    with a graph's node indices: ``kind``, ``user`` and ``layer`` (None
    for a node that stands for no layer).

    It shares the graph's ``index``, iterates in index order and builds
    a NodeKind only when a node is looked up, so a coupling keeps no
    per-node kind object.  It compares equal to a dict of NodeKinds.
    """

    __slots__ = ("index", "kind", "user", "layer")

    def __init__(self, index, kind, user, layer):
        self.index, self.kind, self.user, self.layer = index, kind, user, layer

    def __getitem__(self, node):
        i = self.index[node]
        return NodeKind(self.kind[i], self.user[i], self.layer[i])

    def __contains__(self, node):
        return node in self.index

    def __iter__(self):
        return iter(self.index)

    def __len__(self):
        return len(self.index)


@dataclass
class CoupledNetwork:
    """A coupled graph plus the bookkeeping to map results back to users.

    ``kinds`` maps each node to its :class:`NodeKind` (a
    :class:`NodeKinds` when built by :func:`couple`).  ``user_of`` is F,
    seedable node -> user, with one node per user.
    """

    graph: InfluenceGraph
    kinds: dict
    user_of: dict
    hop_scale: int
    scheme: str
    k: int

    def users_of(self, nodes):
        """Users of a node sequence under F, in order.

        Every node must be in F's domain (gateways for lossless schemes,
        user vertices for reduced and lossy ones); a representative,
        for example, is an error.
        """
        users = []
        for node in nodes:
            if node not in self.user_of:
                raise ValueError(f"node {node!r} is not in the user mapping domain")
            users.append(self.user_of[node])
        return users


def _couple_lossless(network, sync, dummies):
    """Lossless coupling with ``sync`` "clique" or "star" and dummies on or off.

    Per user, in sorted order: the seedable vertex, the representatives
    in layer order, then the star hub.  A sync edge weighs 1, so it
    activates its target alone: under linear threshold and any stochastic
    threshold, as every threshold is at most 1, and under independent
    cascade with probability 1.  Each layer edge u->v becomes seedable
    vertex of u -> representative of v in that layer.

    The graph is built in index space: each node gets its index, threshold
    and weight as it is added, and each edge goes straight into its
    source's out-list (the user's sync edges, then the layer edges by
    layer and sorted within it).  It is stored unchecked, as every fact
    is already known.  :func:`couple` has run the layer rule book, so
    every threshold is in (0, 1] and every layer weight finite and
    non-negative.  A node weighs 1, 0 or k - p.  A layer edge joins two
    different users' vertices, and the duplicate id guard below makes
    every id distinct.  So no self-loop, repeated edge or non-finite
    value reaches the graph.
    """
    k = network.k
    if dummies:
        seed_kind, seed_tag, hub_weight = GATEWAY, "@g", 1.0
    else:
        seed_kind, seed_tag, hub_weight = USER_VERTEX, "@u", 0.0
    nodes, index, theta, node_weight, out = [], {}, [], [], []
    kind_col, user_col, layer_col, user_of = [], [], [], {}

    def add(node, threshold, weight, kind, user, layer=None):
        index[node] = len(nodes)
        nodes.append(node)
        theta.append(threshold)
        node_weight.append(weight)
        kind_col.append(kind)
        user_col.append(user)
        layer_col.append(layer)
        out.append([])
        return index[node]

    for user in network.users:
        vertex = user + seed_tag
        seed = add(vertex, 1.0, 1.0, seed_kind, user)
        user_of[vertex] = user
        reps = []
        for layer in network.layers:
            i = layer.layer_index
            if user in layer.nodes:
                rep = add(f"{user}@{i}", float(layer.thresholds[user]), 1.0, REPRESENTATIVE, user, i)
            elif dummies:
                rep = add(f"{user}@{i}", 1.0, 1.0, DUMMY, user, i)
            else:
                continue
            reps.append(rep)
        if not dummies:
            node_weight[seed] = float(k - len(reps))
        if sync == "clique":
            ring = [seed, *reps]
            for src in ring:
                targets = out[src]
                for dst in ring:
                    if src != dst:
                        targets.append((dst, 1.0))
        else:
            hub = add(user + "@s", 1.0, hub_weight, INTERMEDIATE, user)
            for rep in reps:
                out[rep].append((hub, 1.0))
                out[hub].append((rep, 1.0))
            out[hub].append((seed, 1.0))
            out[seed].append((hub, 1.0))
    if len(index) != len(nodes):
        raise ValueError("duplicate node ids")
    for layer in network.layers:
        i = layer.layer_index
        for (src, dst) in sorted(layer.edges):
            out[index[src + seed_tag]].append((index[f"{dst}@{i}"], float(layer.edges[(src, dst)])))
    graph = InfluenceGraph._from_checked(tuple(nodes), index, theta, node_weight, out)
    scheme = sync if dummies else "reduced-" + sync
    hop_scale = 2 if sync == "clique" else 3
    kinds = NodeKinds(index, kind_col, user_col, layer_col)
    return CoupledNetwork(graph, kinds, user_of, hop_scale, scheme, k)


def _layer_alphas(layer, kind):
    """Multiplier alpha for every node of one complete layer.

    "average" is 1.  "easiness" is how easily a user activates in the
    layer: total incoming weight divided by the threshold.
    "involvement" is the cohesion of the user's 1-hop neighborhood:
    weight/threshold summed over every directed edge between members of
    the closed neighborhood (in- plus out-neighbors plus the user).
    Either falls back to ``ALPHA_FLOOR`` when its sum is zero (no in-weight,
    or no weighted edge in the neighborhood), so alpha stays positive.

    One pass over ``layer.edges`` gathers what every node needs.  Sums
    run in edge order, and each closed neighborhood is walked in a fixed
    order (the user, then its neighbors in edge order), so every alpha
    is bit-identical to a separate per-user scan and does not depend on
    string hashing (``PYTHONHASHSEED``).
    """
    if kind == "average":
        return dict.fromkeys(layer.nodes, 1.0)
    alphas = {}
    if kind == "easiness":
        in_totals = layer.in_weight_sums()
        for user in layer.nodes:
            total = in_totals.get(user, 0.0)
            alphas[user] = ALPHA_FLOOR if total <= 0.0 else total / layer.thresholds[user]
        return alphas
    neighbors = {}
    for (src, dst) in layer.edges:
        neighbors.setdefault(src, []).append(dst)
        neighbors.setdefault(dst, []).append(src)
    adjacency = layer.out_adjacency()
    for user in layer.nodes:
        hood = dict.fromkeys([user, *neighbors.get(user, ())])
        total = 0.0
        seen_edge = False
        for x in hood:
            for y, weight in adjacency.get(x, ()):
                if y in hood:
                    total += weight / layer.thresholds[y]
                    seen_edge = True
        alphas[user] = ALPHA_FLOOR if not seen_edge or total <= 0.0 else total
    return alphas


_ALPHA_KINDS = ("easiness", "involvement", "average")


def _couple_lossy(network, kind="average"):
    """Lossy coupling: one vertex per user, hop scale 1.

    Per-layer thresholds and in-weights are folded with positive
    multipliers chosen by ``kind``; layers a user does not join
    contribute nothing.  Edges with zero folded weight are dropped.
    The folded threshold may exceed 1.

    Each layer's multipliers come from one pass over its edges: the cost
    is O(sum |E_i| + the edges out of each user's closed neighborhood,
    summed over users), the second term for "involvement" only.
    """
    if kind not in _ALPHA_KINDS:
        raise ValueError(f"unknown lossy parameterization {kind!r}")
    users = network.users
    alphas = [_layer_alphas(layer, kind) for layer in network.layers]
    thresholds = {}
    for user in users:
        total = 0.0
        for layer, alpha in zip(network.layers, alphas):
            if user in alpha:
                total += alpha[user] * layer.thresholds[user]
        thresholds[user] = total
    folded = {}
    for layer, alpha in zip(network.layers, alphas):
        for (src, dst), weight in layer.edges.items():
            folded[(src, dst)] = folded.get((src, dst), 0.0) + alpha[dst] * weight
    edges = [(src, dst, w) for (src, dst), w in sorted(folded.items()) if w > 0.0]
    graph = InfluenceGraph(users, edges, thresholds, None)
    n = len(graph)
    kinds = NodeKinds(graph.index, [USER_VERTEX] * n, graph.node_ids, [None] * n)
    return CoupledNetwork(graph, kinds, {user: user for user in users}, 1, "lossy-" + kind, network.k)


def couple(network, scheme):
    """Couple a complete multiplex network by scheme name (see COUPLING_SCHEMES).

    Sizes for n users, k layers and |V_i|, |E_i| per layer: "clique"
    (k+1)n vertices and sum|E_i| + nk(k+1) edges, seeds on gateways;
    "star" (k+2)n vertices and sum|E_i| + 2n(k+1) edges; "reduced-clique"
    sum|V_i| + n and "reduced-star" sum|V_i| + 2n vertices, whose
    coverage must be measured by weight; lossy schemes n vertices.  One
    coupling serves every diffusion model.  Every scheme first raises the
    ValueError the multiplex sweep raises, naming the layer and the edge
    or user, for the first fault of a layer: an endpoint outside the
    layer, an unset, non-finite or negative weight, a self-loop, or a
    threshold that is missing, non-finite, not positive or above 1
    (:func:`~muxlci.network.validate` reports the same message).
    """
    network._check_layers()
    if scheme in ("clique", "star"):
        return _couple_lossless(network, scheme, True)
    if scheme in ("reduced-clique", "reduced-star"):
        return _couple_lossless(network, scheme[len("reduced-"):], False)
    if scheme.startswith("lossy-"):
        return _couple_lossy(network, scheme[len("lossy-"):])
    raise ValueError(f"unknown coupling scheme {scheme!r}")


def check_scheme_model(scheme, model):
    """Raise ValueError when coupling by ``scheme`` cannot serve the
    DiffusionModel ``model``.

    A stochastic-threshold model with unset ``st_bounds`` draws each
    node's threshold up to its coupled threshold, which must lie in
    (0, 1].  A lossy coupling folds the layer thresholds into sums above
    1, so it needs explicit bounds.
    """
    if scheme.startswith("lossy-") and model.kind == STOCHASTIC_THRESHOLD and model.st_bounds is None:
        raise ValueError(
            f"scheme {scheme!r} cannot run the stochastic threshold model without st_bounds: "
            "a lossy coupling folds thresholds above 1, which cannot be stochastic-threshold bounds")


def write_coupled(coupled, edges_stream, manifest_stream):
    """Write a coupled network as an edge list plus a node manifest CSV.

    The edge list uses the layer-file format, one ``src dst weight``
    line per edge sorted by source id and then target id.  It is
    streamed source by source, each out-list sorted on its own, so no
    list of every edge is built.  The manifest carries one row per node
    in index order: node_id,kind,user_id,layer,threshold,weight, read
    straight from the graph's lists and, when ``coupled.kinds`` is a
    :class:`NodeKinds`, from its columns (any other mapping is looked up
    node by node).  A None layer is written as an empty field.
    """
    graph = coupled.graph
    ids = graph.node_ids
    for src in sorted(ids):
        for iv, weight in sorted(graph.out[graph.index[src]], key=lambda edge: ids[edge[0]]):
            edges_stream.write(f"{src} {ids[iv]} {weight!r}\n")
    kinds = coupled.kinds
    if isinstance(kinds, NodeKinds):
        columns = kinds.kind, kinds.user, kinds.layer
    else:
        columns = zip(*(kinds[node] for node in ids))
    writer = csv.writer(manifest_stream, lineterminator="\n")
    writer.writerow(_MANIFEST_HEADER)
    writer.writerows(zip(ids, *columns, map(repr, graph.theta), map(repr, graph.node_weight)))


def read_coupled(edge_lines, manifest_rows):
    """Rebuild (graph, kinds, user_of) from exported edge and manifest data.

    ``manifest_rows`` is an iterable of CSV rows including the header.
    The seedable domain is recovered from the kind column (gateway and
    user vertices).  One pass: the manifest fills the node ids, their
    index and the threshold and weight lists, and each edge line is
    parsed once straight into the graph's index adjacency.  Every fact
    is checked once, here: each row and line as it is read, then, after
    the last line, duplicate edges by the size of each source's target
    set, so :class:`InfluenceGraph` stores the graph without checking
    it again.  The kinds are a :class:`NodeKinds` over
    a kind, a user and a layer column, so no per-row kind object is
    made; every kind is the module's constant and every user id one
    shared string, so the columns hold no per-row copy of either.
    Raises ValueError on an empty manifest, whose header is missing,
    and, naming the line, on a manifest row without six fields, with
    an unknown kind, an unparsable number, a node id already listed or
    one that :func:`muxlci.network._id_fault` rejects,
    on an edge line with an unparsable weight, an endpoint missing from
    the manifest or the same node at both ends, on a non-finite
    threshold, node weight or edge weight, and on a negative edge
    weight.  A duplicate edge is reported by its two endpoints, only
    once every line has been read: the first source by index that has
    one, and its first repeated target in the order the lines gave.
    Folded lossy thresholds above 1 are legal.
    """
    reader = csv.reader(iter(manifest_rows))
    header = next(reader, None)
    if header is None:
        raise ValueError(f"manifest is empty: missing the header {','.join(_MANIFEST_HEADER)!r}")
    if tuple(header) != _MANIFEST_HEADER:
        raise ValueError(f"unexpected manifest header {header!r}")
    width = len(_MANIFEST_HEADER)
    nodes, index, thetas, weights, user_of, users = [], {}, [], [], {}, {}
    kind_col, user_col, layer_col = [], [], []

    def bad_row(problem):
        node = row[0] if row else ""
        return ValueError(f"manifest line {reader.line_num}, node {node!r}: {problem}")

    for row in reader:
        if len(row) != width:
            raise bad_row(f"expected {width} fields, got {len(row)}")
        node, kind, user, layer, theta, weight = row
        try:
            kind = _NODE_KINDS[kind]
        except KeyError:
            raise bad_row(f"unknown kind {kind!r}") from None
        try:
            theta, weight, layer = float(theta), float(weight), int(layer) if layer else None
        except ValueError:
            raise bad_row(f"layer {layer!r}, threshold {theta!r} and weight {weight!r} must be numbers") from None
        if not (math.isfinite(theta) and math.isfinite(weight)):
            raise bad_row(f"threshold {theta} and weight {weight} must be finite")
        if node in index:
            raise bad_row("duplicate node id")
        reason = _id_fault(node)
        if reason:
            raise bad_row(f"node id {reason}")
        index[node] = len(nodes)
        nodes.append(node)
        thetas.append(theta)
        weights.append(weight)
        user = users.setdefault(user, user)
        kind_col.append(kind)
        user_col.append(user)
        layer_col.append(layer)
        if kind in (GATEWAY, USER_VERTEX):
            user_of[node] = user
    out = [[] for _ in nodes]
    for line_no, raw in enumerate(edge_lines, start=1):
        parts = raw.split()
        if len(parts) != 3 or parts[0][0] == "#":
            if not parts or parts[0][0] == "#":
                continue
            raise ValueError(f"line {line_no}: expected 'src dst weight'")
        src, dst, weight = parts
        try:
            weight = float(weight)
        except ValueError:
            raise ValueError(f"line {line_no}: weight {weight!r} is not a number") from None
        try:
            iu, iv = index[src], index[dst]
        except KeyError as missing:
            raise ValueError(f"line {line_no}: node {missing.args[0]!r} is not in the manifest") from None
        if not 0.0 <= weight < math.inf:
            raise ValueError(f"line {line_no}: weight {weight} must be finite and >= 0")
        if iu == iv:
            raise ValueError(f"line {line_no}: self-loop on {src!r}")
        out[iu].append((iv, weight))
    # after every line fault, so a malformed line later in the file still wins
    target = itemgetter(0)
    for iu, targets in enumerate(out):
        if len(targets) > 1 and len(set(map(target, targets))) != len(targets):
            seen = set()
            for iv, _ in targets:
                if iv in seen:
                    raise ValueError(f"duplicate edge {nodes[iu]!r}->{nodes[iv]!r}")
                seen.add(iv)
    graph = InfluenceGraph._from_checked(tuple(nodes), index, thetas, weights, out)
    return graph, NodeKinds(index, kind_col, user_col, layer_col), user_of
