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

A user's threshold may be given again only with the same value.  An
alias file (:func:`load_alias_map`) renames ids as :func:`load_layer`
reads them, so every rule of the format holds after renaming.

A node id is a non-empty string without whitespace that does not start
with ``#``: the layer, coupled edge-list and seed formats split lines on
whitespace and read a line that starts with ``#`` as a comment.  Every
character of it prints, so a byte-order mark cannot make a second user.

Missing weights and thresholds stay unset until :func:`prepare_network`
draws them in one pass over the layers (streams ``weights/<i>`` and
``thresholds``); :func:`load_network` reads files into a ready network.
"""

from __future__ import annotations

import errno
import hashlib
import math
import os
from collections import defaultdict
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

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
        # set once the layer rule book has found no fault (see _check_layers)
        self._checked = False
        self._alone = {}

    @property
    def k(self):
        return len(self.layers)

    def layer_by_index(self, layer_index):
        for layer in self.layers:
            if layer.layer_index == layer_index:
                return layer
        raise ValueError(f"no layer with index {layer_index}")

    def alone(self, layer_index):
        """The network of the layer numbered ``layer_index`` alone
        (:func:`single_layer_network`), built on first use and kept like
        :attr:`users`.  ValueError for an unknown index, and for a faulty
        network the first fault, named by its own layer index, as
        :attr:`lt_layers` raises it."""
        if layer_index not in self._alone:
            layer = self.layer_by_index(layer_index)
            self._check_layers()
            network = self._alone[layer_index] = single_layer_network(layer)
            # its layer passed the rule book with the others
            network._checked = True
        return self._alone[layer_index]

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
        infinite for users outside the layer).  Raises ValueError with
        the first fault of the first faulty layer (see
        :meth:`_check_layers`), as every coupling does.
        """
        self._check_layers()
        return tuple(self._lt_layer(layer) for layer in self.layers)

    def _check_layers(self):
        """Raise ValueError with the first fault of the first faulty layer
        (see :func:`_layer_faults`).  The rule book runs once per network:
        layers do not change once the network is built, and
        :func:`load_network` marks a network that :func:`validate`, which
        reports every such fault, has passed."""
        if not self._checked:
            _require_complete(self.layers)
            self._checked = True

    def _lt_layer(self, layer):
        position = self.position
        bar = [math.inf] * len(self.users)
        for user in layer.nodes:
            bar[position[user]] = layer.thresholds[user] - WEIGHT_EPS
        out = [[] for _ in self.users]
        for (src, dst), weight in layer.edges.items():
            out[position[src]].append((position[dst], weight))
        return out, bar


def single_layer_network(layer):
    """One layer as a network of its own: the layer renumbered to 1,
    sharing its node set, edges and thresholds."""
    return MultiplexNetwork([LayerGraph(1, layer.nodes, layer.edges, layer.thresholds)])


def _id_fault(node):
    """Why no file format can carry the node id ``node``, or None: the
    formats split lines on whitespace and skip a line whose first field
    starts with ``#``, and an invisible character such as a byte-order
    mark would make two ids that print alike."""
    # the space is the one whitespace character that prints
    if node and node[0] != "#" and node.isprintable() and " " not in node:
        return None
    if node.split() != [node]:
        return "holds whitespace" if node else "is empty"
    if node[0] == "#":
        return "starts with '#'"
    char = next(char for char in node if not char.isprintable())
    return f"holds a non-printable character U+{ord(char):04X}"


def _layer_faults(layer):
    """Yield ``(order, message)`` for each fault that leaves diffusion or
    a coupling on ``layer`` undefined, or its files unreadable, in edge
    order, then node order: an edge endpoint outside the node set; an
    unset, non-finite or negative edge weight; a self-loop; a node id
    that :func:`_id_fault` rejects; a node without a finite threshold in
    (0, 1].  The linear-threshold sweep and the couplings, whose sync
    edges weigh 1, are exact only without them.  :func:`_require_complete`
    raises the first message; :func:`validate` reports every one, placed
    by ``order``.
    """
    tag = f"layer {layer.layer_index}"
    for (src, dst), weight in layer.edges.items():
        if src not in layer.nodes or dst not in layer.nodes:
            yield (0,), f"{tag}: edge {src!r}->{dst!r} endpoint outside node set"
        if src == dst:
            yield (1, src, dst, 0), f"{tag}: self-loop on {src!r}"
        if weight is None:
            yield (0,), f"{tag}: edge {src!r}->{dst!r} has unset weight"
        elif not math.isfinite(weight):
            yield (0,), f"{tag}: edge {src!r}->{dst!r} weight {weight} is not finite"
        elif weight < 0.0:
            yield (1, src, dst, 1), f"{tag}: edge {src!r}->{dst!r} weight {weight} is negative"
    for user in layer.nodes:
        reason = _id_fault(user)
        if reason:
            yield (0,), f"{tag}: node id {user!r} {reason}"
        theta = layer.thresholds.get(user)
        if theta is None:
            yield (0,), f"{tag}: node {user!r} missing threshold"
        elif not math.isfinite(theta):
            yield (0,), f"{tag}: node {user!r} threshold {theta} is not finite"
        elif theta <= 0.0:
            yield (2, user, 0), f"{tag}: node {user!r} non-positive threshold"
        elif theta > 1.0 + WEIGHT_EPS:
            yield (2, user, 1), f"{tag}: node {user!r} threshold {theta} exceeds 1"


def _require_complete(layers):
    """Raise ValueError with the first fault of the first faulty layer,
    the least ``(order, message)`` of :func:`_layer_faults`, which
    :func:`validate` lists first whatever the order of the node set."""
    for layer in layers:
        fault = min(_layer_faults(layer), default=None)
        if fault:
            raise ValueError(fault[1])


def load_layer(lines, layer_index, aliases=None):
    """Parse a layer from an iterable of text lines, renaming each id
    through the map ``aliases`` (:func:`load_alias_map`) as it is read.

    Raises :class:`LayerFormatError` (with the offending line number) on
    malformed lines, self-loops, duplicate edges, weights outside [0, 1]
    and a threshold repeated with another value, each after renaming.
    Users mentioned only in ``# theta`` directives become isolated
    nodes.  Each line is split once, and the node set is taken from the
    thresholds and edges after the last line.
    """
    edges, thresholds = {}, {}
    for line_no, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0][0] == "#":
            parts = raw.strip()[1:].split()
            if parts[:1] == ["theta"]:
                if len(parts) != 3:
                    raise LayerFormatError("expected '# theta <user> <value>'", line_no)
                user = aliases.get(parts[1], parts[1]) if aliases else parts[1]
                try:
                    theta = float(parts[2])
                except ValueError:
                    raise LayerFormatError(f"not a number: {parts[2]!r}", line_no) from None
                # two nans repeat one value, which validate then rejects
                old = thresholds.get(user, theta)
                if old != theta and not (math.isnan(old) and math.isnan(theta)):
                    raise LayerFormatError(f"threshold of {user!r} is {old} above and {theta} here", line_no)
                thresholds[user] = theta
            continue
        if len(parts) not in (2, 3):
            raise LayerFormatError(f"expected 'src dst [weight]', got {raw.strip()!r}", line_no)
        edge = src, dst = parts[0], parts[1]
        if aliases:
            edge = src, dst = aliases.get(src, src), aliases.get(dst, dst)
        if src == dst:
            raise LayerFormatError(f"self-loop on {src!r}", line_no)
        if edge in edges:
            raise LayerFormatError(f"duplicate edge {src!r} -> {dst!r}", line_no)
        weight = None
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise LayerFormatError(f"not a number: {parts[2]!r}", line_no) from None
            if not 0.0 <= weight <= 1.0:
                raise LayerFormatError(f"weight {weight} outside [0, 1]", line_no)
        edges[edge] = weight
    nodes = set(thresholds)
    nodes.update(chain.from_iterable(edges))
    return LayerGraph(layer_index, nodes, edges, thresholds)


def _parse_file(path, parse, *args, newline=None):
    """``parse(lines, *args)`` over a UTF-8 file opened with ``newline``,
    naming it in a LayerFormatError; bytes that are not UTF-8 raise one
    naming the line of the first such byte."""
    with open(path, encoding="utf-8", newline=newline) as handle:
        try:
            return parse(handle, *args)
        except LayerFormatError as exc:
            raise LayerFormatError(exc.reason, exc.line_no, path) from None
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                # lines as text mode reads them, ending at \n, \r\n or \r
                text = data[:exc.start].decode("utf-8")
                line_no = 1 + text.count("\n") + text.count("\r") - text.count("\r\n")
                raise LayerFormatError(f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})",
                                       line_no, path) from None
            raise


@contextmanager
def _replacing(*paths):
    """One UTF-8 text handle per path, whose contents replace the files
    ``paths`` together when the block ends: the one way this package
    writes a file.  Each handle writes ``<path>.tmp.<pid>``, opened with
    ``newline=""`` so lines end as written.  Once the block ends, every
    handle is flushed and closed, and every path checked not to be a
    directory, before the first rename; if anything raises, every
    temporary file is removed, so a failed block leaves each path with
    its old bytes.  An OSError of a temporary file names its path
    instead.  A file named twice, by any spelling, raises ValueError
    before the first open."""
    resolved = [os.path.realpath(path) for path in paths]
    for i, path in enumerate(paths):
        if resolved[i] in resolved[:i]:
            raise ValueError(f"output file {os.fspath(path)!r} is named twice")
    tmps = [f"{path}.tmp.{os.getpid()}" for path in paths]
    try:
        with ExitStack() as stack:
            yield tuple(stack.enter_context(open(tmp, "w", encoding="utf-8", newline="")) for tmp in tmps)
        for path in paths:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            with suppress(FileNotFoundError):
                os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename in tmps:
            raise OSError(exc.errno, exc.strerror, os.fspath(paths[tmps.index(exc.filename)])) from None
        raise


def load_layer_file(path, layer_index, aliases=None):
    return _parse_file(path, load_layer, layer_index, aliases)


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


def _normalized_edges(edges, rng_seed):
    """``edges`` in sorted order, unset weights drawn from (0, 1) by a
    generator seeded by ``rng_seed`` in one block (a zero is redrawn),
    then each node's in-weights divided by their sum when it is nonzero.
    Already-normalized edges come back unchanged up to 1e-12."""
    edges = {key: edges[key] for key in sorted(edges)}
    unset = [key for key, weight in edges.items() if weight is None]
    edges.update(zip(unset, _nonzero_uniform(np.random.default_rng(rng_seed), len(unset))))
    in_sums = defaultdict(float)
    for (_, dst), weight in edges.items():
        in_sums[dst] += weight
    for key, weight in edges.items():
        total = in_sums[key[1]]
        if total > 0.0:
            edges[key] = weight / total
    return edges


def validate(network):
    """Check every model invariant; returns a list of violation strings.

    Violations are data, not exceptions: an empty report means the
    network is valid.  It lists every fault of :func:`_layer_faults`,
    which the couplings and the linear-threshold sweep reject, thresholds
    above 1 among them, plus the model's own invariants: weights at most
    1, no threshold for an unknown node, in-weight sums at most 1, layer
    indices 1..k, the universe the union of the layers, and some user.
    """
    report = []
    indices = [layer.layer_index for layer in network.layers]
    if indices != list(range(1, len(network.layers) + 1)):
        report.append(f"layer indices {indices} are not 1..{len(network.layers)}")
    for layer in network.layers:
        tag = f"layer {layer.layer_index}"
        found = list(_layer_faults(layer))
        in_sums = defaultdict(float)
        for (src, dst), weight in layer.edges.items():
            if weight is not None:
                in_sums[dst] += weight
                if 1.0 + WEIGHT_EPS < weight < math.inf:
                    found.append(((1, src, dst, 1), f"{tag}: edge {src!r}->{dst!r} weight {weight} outside [0, 1]"))
        for user in layer.thresholds.keys() - layer.nodes:
            found.append(((3, user), f"{tag}: threshold for unknown node {user!r}"))
        for node, total in in_sums.items():
            if total > 1.0 + IN_SUM_TOL:
                found.append(((4, node), f"{tag}: node {node!r} in-weight sum exceeds 1 ({total:.6f})"))
        # a layer's report: the faults ordered (0,) sorted by message, then
        # by edge (1, src, dst, rank), by node (2, user, rank), the unknown
        # threshold nodes (3, user) and the in-weight sums (4, node)
        report.extend(message for _, message in sorted(found))
    union = set().union(*(layer.nodes for layer in network.layers))
    if union != network.universe:
        report.append("universe is not the union of the layer node sets")
    if not network.universe:
        report.append("network has no users")
    return report


def load_alias_map(lines):
    """Parse alias rows ``id_in_layer_i <TAB> id_in_layer_j <TAB> canonical_id``.

    Returns a flat mapping from either per-layer id to the canonical id,
    which :func:`load_layer` applies to each id as it reads it.  Every id
    has one canonical id, and a canonical id is its own, so a row that
    maps an id elsewhere raises :class:`LayerFormatError` naming its line,
    as does an id that :func:`_id_fault` rejects.
    """
    mapping = {}
    for line_no, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t")]
        if len(parts) != 3 or not all(parts):
            raise LayerFormatError("expected three tab-separated ids", line_no)
        canonical = parts[2]
        for kind, node in zip(("id", "id", "canonical id"), parts):
            reason = _id_fault(node)
            if reason:
                raise LayerFormatError(f"{kind} {node!r} {reason}", line_no)
        for alias in parts:
            earlier = mapping.setdefault(alias, canonical)
            if earlier != canonical:
                raise LayerFormatError(f"{alias!r} maps to {earlier!r} above and to {canonical!r} here", line_no)
    return {alias: target for alias, target in mapping.items() if alias != target}


def prepare_network(layers, rng_seed):
    """(network, normalized layer indices), in one pass over the layers:
    a layer with an unset weight or an in-weight sum above 1 gets
    :func:`_normalized_edges` from sub-stream ``weights/<layer index>``
    of ``rng_seed``, and its missing thresholds one block of draws in
    (0, 1] over its users in sorted order from the sub-stream
    ``thresholds`` that all layers share (none if it misses none).  A
    prepared layer shares every part it leaves unchanged."""
    thresholds_rng = np.random.default_rng(subseed(rng_seed, "thresholds"))
    prepared, normalized = [], []
    for layer in layers:
        edges, thresholds = layer.edges, layer.thresholds
        if None in edges.values() or any(total > 1.0 + IN_SUM_TOL for total in layer.in_weight_sums().values()):
            edges = _normalized_edges(edges, subseed(rng_seed, f"weights/{layer.layer_index}"))
            normalized.append(layer.layer_index)
        missing = sorted(user for user in layer.nodes if user not in thresholds)
        if missing:
            thresholds = dict(thresholds)
            thresholds.update(zip(missing, (1.0 - thresholds_rng.random(len(missing))).tolist()))
        prepared.append(LayerGraph(layer.layer_index, layer.nodes, edges, thresholds))
    return MultiplexNetwork(prepared), normalized


def load_network(layer_paths, alias_path, rng_seed):
    """Layer files (layer i from ``layer_paths[i - 1]``), their ids
    renamed through the alias file if given as they are read, prepared
    (:func:`prepare_network`, whose pair it returns) and validated: an
    invalid network raises ValueError listing every violation."""
    aliases = _parse_file(alias_path, load_alias_map) if alias_path else None
    layers = [load_layer_file(path, i, aliases) for i, path in enumerate(layer_paths, start=1)]
    network, normalized = prepare_network(layers, rng_seed)
    report = validate(network)
    if report:
        raise ValueError("invalid network:\n  " + "\n  ".join(report))
    # validate reports every fault of the layer rule book and found none
    network._checked = True
    return network, normalized
