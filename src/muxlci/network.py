"""Multiplex network data model and layer-file ingestion.

A multiplex network is a list of directed, weighted layers sharing one
user universe.  Users are opaque string ids; a user appearing in two or
more layers is an *overlapping* user and carries an independent
threshold per layer.  Layers are treated as immutable once built: every
transforming operation returns a new object.

Layer file format (UTF-8, whitespace separated)::

    # free-form comment
    # theta <user> <value>     per-layer threshold directive
    <src> <dst> [weight]       directed edge, weight in [0, 1]

Missing weights and thresholds stay unset until :func:`prepare_network`
draws them; :func:`load_network` reads files into a ready network.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# slack when checking that a node's incoming weights sum to at most 1
IN_SUM_TOL = 1e-9
# absolute tolerance for weight/threshold comparisons; absorbs the
# rounding introduced by in-weight normalization
WEIGHT_EPS = 1e-12


class LayerFormatError(ValueError):
    """Malformed layer or alias file: ``<path>: line <line_no>: <reason>``."""

    def __init__(self, message, line_no=None, path=None):
        self.reason, self.line_no = message, line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


def subseed(seed, label):
    """Derive an independent child seed for a named random stream."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class LayerGraph:
    """One directed, weighted layer over a subset of the user universe.

    ``edges`` maps ordered pairs ``(src, dst)`` to a weight in ``[0, 1]``
    or ``None`` while the weight is still unset.  ``thresholds`` maps a
    node to its activation threshold in ``(0, 1]`` and may be missing
    entries until thresholds are assigned.
    """

    layer_index: int
    nodes: set = field(default_factory=set)
    edges: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)

    def out_adjacency(self):
        """Map node -> list of (successor, weight), built fresh per call."""
        adj = defaultdict(list)
        for (u, v), w in self.edges.items():
            adj[u].append((v, w))
        return dict(adj)

    def in_weight_sums(self):
        sums = defaultdict(float)
        for (_, v), w in self.edges.items():
            if w is not None:
                sums[v] += w
        return dict(sums)

    def average_degree(self):
        return len(self.edges) / len(self.nodes) if self.nodes else 0.0


@dataclass
class MultiplexNetwork:
    """k weighted directed layers over the union of their node sets."""

    layers: list
    universe: set = field(init=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a multiplex network needs at least one layer")
        self.universe = set().union(*(layer.nodes for layer in self.layers))

    @property
    def k(self):
        return len(self.layers)

    def layer_by_index(self, layer_index):
        for layer in self.layers:
            if layer.layer_index == layer_index:
                return layer
        raise ValueError(f"no layer with index {layer_index}")

    @cached_property
    def users(self):
        """User ids in sorted order: ``users[i]`` is the user of dense
        index i.  This and the other cached properties are built on first
        use and kept, which holds because layers are not changed once the
        network is built."""
        return tuple(sorted(self.universe))

    @cached_property
    def position(self):
        """User id -> dense index, the inverse of :attr:`users`."""
        return {user: i for i, user in enumerate(self.users)}

    @cached_property
    def overlap(self):
        """The frozenset of users in two or more layers."""
        count = defaultdict(int)
        for layer in self.layers:
            for user in layer.nodes:
                count[user] += 1
        return frozenset(user for user, c in count.items() if c >= 2)

    @cached_property
    def lt_layers(self):
        """Per layer, in layer order, the out-adjacency ``out[i]`` as
        (target index, weight) pairs in the layer's edge order and the
        activation bar ``bar[i]`` (threshold minus ``WEIGHT_EPS``;
        infinite for users outside the layer).  Raises ValueError, naming
        the layer and the edge or user, on an edge with an unset, negative
        or non-finite weight or an endpoint outside the layer, and on a
        layer user without a finite threshold.  The linear-threshold sweep
        activates a user the moment a running sum crosses its bar, which
        is exact only for non-negative weights.
        """
        return tuple(self._lt_layer(layer) for layer in self.layers)

    def _lt_layer(self, layer):
        _require_complete([layer])
        position = self.position
        bar = [math.inf] * len(self.users)
        for user in layer.nodes:
            bar[position[user]] = layer.thresholds[user] - WEIGHT_EPS
        out = [[] for _ in self.users]
        for (src, dst), weight in layer.edges.items():
            if weight < 0.0:
                raise ValueError(f"layer {layer.layer_index}: edge {src!r}->{dst!r} weight {weight} is negative")
            out[position[src]].append((position[dst], weight))
        return out, bar


def _layer_faults(layer):
    """Yield the faults that leave diffusion on ``layer`` undefined: an
    edge endpoint outside the node set, an unset or non-finite edge
    weight, a node without a finite threshold.  :func:`validate` reports
    them among its other rules; :func:`_require_complete` raises the
    first, for :attr:`MultiplexNetwork.lt_layers` and the couplings.
    """
    tag = f"layer {layer.layer_index}"
    for (src, dst), weight in layer.edges.items():
        if src not in layer.nodes or dst not in layer.nodes:
            yield f"{tag}: edge {src!r}->{dst!r} endpoint outside node set"
        if weight is None:
            yield f"{tag}: edge {src!r}->{dst!r} has unset weight"
        elif not math.isfinite(weight):
            yield f"{tag}: edge {src!r}->{dst!r} weight {weight} is not finite"
    for user in layer.nodes:
        theta = layer.thresholds.get(user)
        if theta is None:
            yield f"{tag}: node {user!r} missing threshold"
        elif not math.isfinite(theta):
            yield f"{tag}: node {user!r} threshold {theta} is not finite"


def _require_complete(layers):
    """Raise ValueError with the first of the layers' faults (see
    :func:`_layer_faults`)."""
    for layer in layers:
        fault = next(_layer_faults(layer), None)
        if fault is not None:
            raise ValueError(fault)


def _finite(value):
    return value is not None and math.isfinite(value)


def _parse_float(token, line_no):
    try:
        return float(token)
    except ValueError:
        raise LayerFormatError(f"not a number: {token!r}", line_no) from None


def load_layer(lines, layer_index):
    """Parse a layer from an iterable of text lines.

    Raises :class:`LayerFormatError` (with the offending line number) on
    malformed lines, self-loops, duplicate edges, and weights outside
    [0, 1].  Users mentioned only in ``# theta`` directives become
    isolated nodes.
    """
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
                user = parts[1]
                nodes.add(user)
                thresholds[user] = _parse_float(parts[2], line_no)
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
            weight = _parse_float(parts[2], line_no)
            if not 0.0 <= weight <= 1.0:
                raise LayerFormatError(f"weight {weight} outside [0, 1]", line_no)
        nodes.add(src)
        nodes.add(dst)
        edges[(src, dst)] = weight
    return LayerGraph(layer_index, nodes, edges, thresholds)


def _parse_file(path, parse, *args):
    """``parse(lines, *args)`` over a UTF-8 file, naming it in a LayerFormatError."""
    with open(path, encoding="utf-8") as handle:
        try:
            return parse(handle, *args)
        except LayerFormatError as exc:
            raise LayerFormatError(exc.reason, exc.line_no, path) from None


def load_layer_file(path, layer_index):
    return _parse_file(path, load_layer, layer_index)


def serialize_layer(layer):
    """Render a layer back into the layer file format.

    Inverse of :func:`load_layer` up to node/edge ordering.  Isolated
    nodes survive the round trip through their threshold directive, so
    serialize after thresholds are assigned.
    """
    lines = []
    for user in sorted(layer.thresholds):
        lines.append(f"# theta {user} {layer.thresholds[user]!r}")
    for (src, dst) in sorted(layer.edges):
        weight = layer.edges[(src, dst)]
        if weight is None:
            lines.append(f"{src} {dst}")
        else:
            lines.append(f"{src} {dst} {weight!r}")
    return "\n".join(lines) + "\n"


def _nonzero_uniform(rng, count):
    """The first ``count`` nonzero draws of ``rng.uniform(0, 1)``, drawn
    in blocks: one of ``count``, then one per shortfall left by a draw
    of exactly 0.0.  A generator fills a block from the same stream as
    that many scalar calls, so these are the values a scalar redraw loop
    takes."""
    drawn = []
    while len(drawn) < count:
        drawn += [w for w in rng.uniform(0.0, 1.0, count - len(drawn)).tolist() if w != 0.0]
    return drawn


def normalize_incoming_weights(layer, rng_seed):
    """Draw unset weights, then rescale so each node's in-weights sum to 1.

    Unset weights are drawn uniformly from (0, 1) with a generator
    seeded by ``rng_seed``, in one block over the edges in sorted order
    (a zero is redrawn), so reruns are bit-identical.  Every node with
    in-degree >= 1 then has its incoming weights divided by their sum.
    In-degree-0 nodes are untouched.  Already-normalized layers come
    back unchanged up to 1e-12.
    """
    edges = {key: layer.edges[key] for key in sorted(layer.edges)}
    unset = [key for key, weight in edges.items() if weight is None]
    edges.update(zip(unset, _nonzero_uniform(np.random.default_rng(rng_seed), len(unset))))
    in_sums = defaultdict(float)
    for (_, dst), weight in edges.items():
        in_sums[dst] += weight
    for key, weight in edges.items():
        total = in_sums[key[1]]
        if total > 0.0:
            edges[key] = weight / total
    return LayerGraph(layer.layer_index, set(layer.nodes), edges, dict(layer.thresholds))


def fill_missing_thresholds(network, rng_seed):
    """Give every (user, layer) pair without a threshold an independent
    one in (0, 1]; thresholds already set are kept.

    Overlapping users draw separately per layer.  Deterministic under
    the seed: layers in order, one block per layer with one draw per
    missing threshold, nodes in sorted order.
    """
    rng = np.random.default_rng(rng_seed)
    layers = []
    for layer in network.layers:
        thresholds = dict(layer.thresholds)
        missing = [user for user in sorted(layer.nodes) if user not in thresholds]
        thresholds.update(zip(missing, (1.0 - rng.random(len(missing))).tolist()))
        layers.append(LayerGraph(layer.layer_index, set(layer.nodes), dict(layer.edges), thresholds))
    return MultiplexNetwork(layers)


def validate(network):
    """Check every model invariant; returns a list of violation strings.

    Violations are data, not exceptions: an empty report means the
    network is valid (weights set, finite and normalized, thresholds
    finite and in (0, 1], no self-loops, in-weight sums <= 1,
    consistent universe).
    """
    report = []
    indices = [layer.layer_index for layer in network.layers]
    if indices != list(range(1, len(network.layers) + 1)):
        report.append(f"layer indices {indices} are not 1..{len(network.layers)}")
    for layer in network.layers:
        tag = f"layer {layer.layer_index}"
        report.extend(sorted(_layer_faults(layer)))
        for (src, dst), weight in sorted(layer.edges.items()):
            if src == dst:
                report.append(f"{tag}: self-loop on {src!r}")
            if _finite(weight) and not 0.0 <= weight <= 1.0 + WEIGHT_EPS:
                report.append(f"{tag}: edge {src!r}->{dst!r} weight {weight} outside [0, 1]")
        for user in sorted(layer.nodes):
            theta = layer.thresholds.get(user)
            if not _finite(theta):
                continue
            if theta <= 0.0:
                report.append(f"{tag}: node {user!r} non-positive threshold")
            elif theta > 1.0 + WEIGHT_EPS:
                report.append(f"{tag}: node {user!r} threshold {theta} exceeds 1")
        for user in sorted(set(layer.thresholds) - layer.nodes):
            report.append(f"{tag}: threshold for unknown node {user!r}")
        for node, total in sorted(layer.in_weight_sums().items()):
            if total > 1.0 + IN_SUM_TOL:
                report.append(f"{tag}: node {node!r} in-weight sum exceeds 1 ({total:.6f})")
    union = set().union(*(layer.nodes for layer in network.layers))
    if union != network.universe:
        report.append("universe is not the union of the layer node sets")
    return report


def needs_normalization(layer):
    """True if any weight is unset or some in-weight sum exceeds 1."""
    if any(w is None for w in layer.edges.values()):
        return True
    return any(total > 1.0 + IN_SUM_TOL for total in layer.in_weight_sums().values())


def load_alias_map(lines):
    """Parse alias rows ``id_in_layer_i <TAB> id_in_layer_j <TAB> canonical_id``.

    Returns a flat mapping from either per-layer id to the canonical id,
    applied to layer files before the universe union is taken.
    """
    mapping = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t")]
        if len(parts) != 3 or not all(parts):
            raise LayerFormatError("expected three tab-separated ids", line_no)
        a, b, canonical = parts
        mapping[a] = canonical
        mapping[b] = canonical
    return mapping


def apply_aliases(layer, mapping):
    """Rename nodes through an alias map, rejecting merges that would
    create self-loops or duplicate edges."""
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


def prepare_network(layers, rng_seed):
    """(network, normalized layer indices): every layer that
    :func:`needs_normalization` normalized from sub-stream
    ``weights/<layer index>`` of ``rng_seed``, then missing thresholds
    filled from sub-stream ``thresholds``."""
    prepared, normalized = [], []
    for layer in layers:
        if needs_normalization(layer):
            layer = normalize_incoming_weights(layer, subseed(rng_seed, f"weights/{layer.layer_index}"))
            normalized.append(layer.layer_index)
        prepared.append(layer)
    return fill_missing_thresholds(MultiplexNetwork(prepared), subseed(rng_seed, "thresholds")), normalized


def load_network(layer_paths, alias_path, rng_seed):
    """Layer files (layer i from ``layer_paths[i - 1]``), renamed through
    the alias file if given, prepared (:func:`prepare_network`, whose
    pair it returns) and validated: an invalid network raises ValueError
    listing every violation."""
    layers = [load_layer_file(path, i) for i, path in enumerate(layer_paths, start=1)]
    if alias_path:
        mapping = _parse_file(alias_path, load_alias_map)
        layers = [apply_aliases(layer, mapping) for layer in layers]
    network, normalized = prepare_network(layers, rng_seed)
    report = validate(network)
    if report:
        raise ValueError("invalid network:\n  " + "\n  ".join(report))
    return network, normalized
