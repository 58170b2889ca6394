"""Coupling schemes: project a multiplex network onto a single network.

Every scheme produces a :class:`CoupledNetwork` carrying the coupled
graph, a user<->node bijection F (``user_of``, inverted by ``node_of_user``)
on the seedable nodes, and a hop-scale factor: d hops of direct multiplex
diffusion correspond to ``hop_scale * d`` hops on the coupled graph.

Lossless schemes reproduce multiplex diffusion exactly.  They are one
construction with two switches.  Per user there is a seedable vertex
and one representative per layer the user joins; all of a user's
outgoing influence flows through the seedable vertex, and the user's
vertices synchronize so that one active sibling activates the rest:

* sync — "clique" ties them pairwise, each edge carrying exactly its
  target's threshold (hop scale 2); "star" routes through one extra hub
  per user, trading edges (2(k+1) per user instead of k(k+1)) for one
  more synchronization hop (hop scale 3).
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
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .diffusion import INDEPENDENT_CASCADE, STOCHASTIC_THRESHOLD, InfluenceGraph
from .network import _require_complete

GATEWAY = "gateway"
REPRESENTATIVE = "representative"
DUMMY = "dummy"
INTERMEDIATE = "intermediate"
USER_VERTEX = "user"

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


@dataclass
class CoupledNetwork:
    """A coupled graph plus the bookkeeping to map results back to users.

    ``user_of`` is F, seedable node -> user, with one node per user; it
    must not change once the coupled network is built.
    """

    graph: InfluenceGraph
    kinds: dict
    user_of: dict
    hop_scale: int
    scheme: str
    k: int

    @cached_property
    def node_of_user(self):
        """User -> seedable node, the inverse of F, built on first use."""
        return {user: node for node, user in self.user_of.items()}

    def seed_nodes(self, users):
        """Coupled seed nodes for a set of users (inverse of F)."""
        nodes = []
        for user in users:
            if user not in self.node_of_user:
                raise ValueError(f"unknown user {user!r}")
            nodes.append(self.node_of_user[user])
        return sorted(nodes)

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

    def active_users(self, members):
        """Users whose F-image node appears in a set of active nodes."""
        return {self.user_of[node] for node in members if node in self.user_of}


def _couple_lossless(network, sync, dummies, model_kind):
    """Lossless coupling with ``sync`` "clique" or "star" and dummies on or off.

    Per user, in sorted order: the seedable vertex, the representatives
    in layer order, then the star hub.  Sync edges fire with probability
    1 under independent cascade.  Each layer edge u->v becomes seedable
    vertex of u -> representative of v in that layer.
    """
    _require_complete(network.layers)
    ic = model_kind == INDEPENDENT_CASCADE
    k = network.k
    users = network.users
    if dummies:
        seed_kind, seed_tag, hub_weight = GATEWAY, "@g", 1.0
    else:
        seed_kind, seed_tag, hub_weight = USER_VERTEX, "@u", 0.0
    nodes, thresholds, kinds, node_weight = [], {}, {}, {}
    user_of = {}
    edges = []
    for user in users:
        vertex = user + seed_tag
        nodes.append(vertex)
        thresholds[vertex] = 1.0
        kinds[vertex] = NodeKind(seed_kind, user)
        user_of[vertex] = user
        reps = []
        for layer in network.layers:
            i = layer.layer_index
            rep = f"{user}@{i}"
            if user in layer.nodes:
                thresholds[rep] = layer.thresholds[user]
                kinds[rep] = NodeKind(REPRESENTATIVE, user, i)
            elif dummies:
                thresholds[rep] = 1.0
                kinds[rep] = NodeKind(DUMMY, user, i)
            else:
                continue
            nodes.append(rep)
            node_weight[rep] = 1.0
            reps.append(rep)
        node_weight[vertex] = 1.0 if dummies else float(k - len(reps))
        if sync == "clique":
            ring = [vertex] + reps
            for src in ring:
                for dst in ring:
                    if src != dst:
                        edges.append((src, dst, 1.0 if ic else thresholds[dst]))
        else:
            hub = user + "@s"
            nodes.append(hub)
            thresholds[hub] = 1.0
            kinds[hub] = NodeKind(INTERMEDIATE, user)
            node_weight[hub] = hub_weight
            for rep in reps:
                edges.append((rep, hub, 1.0))
                edges.append((hub, rep, 1.0 if ic else thresholds[rep]))
            edges.append((hub, vertex, 1.0))
            edges.append((vertex, hub, 1.0))
    for layer in network.layers:
        i = layer.layer_index
        for (src, dst) in sorted(layer.edges):
            edges.append((src + seed_tag, f"{dst}@{i}", layer.edges[(src, dst)]))
    graph = InfluenceGraph(nodes, edges, thresholds, node_weight)
    scheme = sync if dummies else "reduced-" + sync
    hop_scale = 2 if sync == "clique" else 3
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
    _require_complete(network.layers)
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
    kinds = {user: NodeKind(USER_VERTEX, user) for user in users}
    graph = InfluenceGraph(users, edges, thresholds, None)
    return CoupledNetwork(graph, kinds, {user: user for user in users}, 1, "lossy-" + kind, network.k)


def couple(network, scheme, model_kind="linear_threshold"):
    """Couple a complete multiplex network by scheme name (see COUPLING_SCHEMES).

    Sizes for n users, k layers and |V_i|, |E_i| per layer: "clique"
    (k+1)n vertices and sum|E_i| + nk(k+1) edges, seeds on gateways;
    "star" (k+2)n vertices and sum|E_i| + 2n(k+1) edges; "reduced-clique"
    sum|V_i| + n and "reduced-star" sum|V_i| + 2n vertices, whose
    coverage must be measured by weight; lossy schemes n vertices.
    ``model_kind`` sets the lossless sync edge weights.
    """
    if scheme in ("clique", "star"):
        return _couple_lossless(network, scheme, True, model_kind)
    if scheme in ("reduced-clique", "reduced-star"):
        return _couple_lossless(network, scheme[len("reduced-"):], False, model_kind)
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

    The edge list uses the layer-file format; the manifest carries one
    row per node: node_id,kind,user_id,layer,threshold,weight.
    """
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


def read_coupled(edge_lines, manifest_rows):
    """Rebuild (graph, kinds, user_of) from exported edge and manifest data.

    ``manifest_rows`` is an iterable of CSV rows including the header.
    The seedable domain is recovered from the kind column (gateway and
    user vertices).  One pass: the manifest fills the node ids, their
    index and the threshold and weight lists, and each edge line is
    parsed once straight into the graph's index adjacency, which
    :class:`InfluenceGraph` then checks once (duplicate edges by a set
    of each source's targets).  Raises ValueError, naming the line, on a
    manifest row without six fields, with an unparsable number or with
    a node id already listed, on an edge line with an unparsable weight,
    an endpoint missing from the manifest or the same node at both
    ends, on a non-finite threshold, node weight or edge weight, and on
    a negative edge weight; a duplicate edge is reported by its two
    endpoints.  Folded lossy thresholds above 1 are legal.
    """
    reader = csv.reader(iter(manifest_rows))
    header = next(reader)
    expected = ["node_id", "kind", "user_id", "layer", "threshold", "weight"]
    if header != expected:
        raise ValueError(f"unexpected manifest header {header!r}")
    nodes, index, thetas, weights, kinds, user_of = [], {}, [], [], {}, {}

    def bad_row(problem):
        node = row[0] if row else ""
        return ValueError(f"manifest line {reader.line_num}, node {node!r}: {problem}")

    for row in reader:
        if len(row) != len(expected):
            raise bad_row(f"expected {len(expected)} fields, got {len(row)}")
        node, kind, user, layer, theta, weight = row
        try:
            theta, weight, layer = float(theta), float(weight), int(layer) if layer else None
        except ValueError:
            raise bad_row(f"layer {layer!r}, threshold {theta!r} and weight {weight!r} must be numbers") from None
        if not (math.isfinite(theta) and math.isfinite(weight)):
            raise bad_row(f"threshold {theta} and weight {weight} must be finite")
        if node in index:
            raise bad_row("duplicate node id")
        index[node] = len(nodes)
        nodes.append(node)
        thetas.append(theta)
        weights.append(weight)
        kinds[node] = NodeKind(kind, user, layer)
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
    graph = InfluenceGraph._from_adjacency(tuple(nodes), index, thetas, weights, out)
    return graph, kinds, user_of
