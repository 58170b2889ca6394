"""Reproducible synthesis of multiplex networks.

Layers are directed Erdős–Rényi graphs over users sampled from a shared
base.  Randomness is split into named sub-streams (membership, per-layer
edges and weights, thresholds) derived from one master seed, so each
aspect is independently reproducible and equal seeds give byte-identical
networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import require_count, require_number
from .network import LayerGraph, prepare_network, subseed


@dataclass
class SynthSpec:
    """Declarative recipe for one synthetic multiplex network.

    ``per_layer`` lists (layer_size, edge_prob) pairs.  When
    ``overlap_fraction`` is set, every pair of layers is forced to share
    exactly round(overlap_fraction * min layer size) users (realized as
    a common core, so the count is exact for every pair); when unset,
    layer membership is sampled independently and overlap is emergent.
    A single layer has no pair and ignores ``overlap_fraction``.
    """

    universe_size: int
    per_layer: list
    overlap_fraction: float = None
    rng_seed: int = 0

    def __post_init__(self):
        require_count("universe_size", self.universe_size)
        if not self.per_layer:
            raise ValueError("need at least one layer")
        for size, prob in self.per_layer:
            require_count("layer_size", size)
            require_number("edge_prob", prob)
            if size > self.universe_size:
                raise ValueError(f"layer size {size} outside 1..{self.universe_size}")
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"edge probability {prob} outside [0, 1]")
        if self.overlap_fraction is not None:
            require_number("overlap_fraction", self.overlap_fraction)
            if not 0.0 <= self.overlap_fraction <= 1.0:
                raise ValueError("overlap_fraction must be in [0, 1]")


def _user_ids(universe_size):
    width = len(str(universe_size - 1))
    return [f"u{i:0{width}d}" for i in range(universe_size)]


def _bernoulli_indices(total, prob, rng):
    """Indices of successes among ``total`` Bernoulli(prob) slots.

    Geometric gap sampling: O(successes) instead of O(total) draws.
    """
    if total <= 0 or prob <= 0.0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        return np.arange(total, dtype=np.int64)
    hits = []
    position = -1
    chunk = max(16, int(total * prob * 1.2))
    while True:
        gaps = rng.geometric(prob, size=chunk)
        steps = np.cumsum(gaps) + position
        taken = steps[steps < total]
        hits.append(taken)
        if len(taken) < len(steps):
            break
        position = int(steps[-1])
    return np.concatenate(hits)


def _er_edges(members, prob, rng):
    """Directed Erdős–Rényi edges over a member list: every ordered pair
    is connected independently with the given probability."""
    s = len(members)
    total = s * (s - 1)
    edges = {}
    for flat in _bernoulli_indices(total, prob, rng).tolist():
        row, rem = divmod(flat, s - 1)
        col = rem if rem < row else rem + 1
        edges[(members[row], members[col])] = None
    return edges


def _memberships(spec, users, rng):
    k = len(spec.per_layer)
    sizes = [size for size, _ in spec.per_layer]
    if spec.overlap_fraction is None or k == 1:
        return [sorted(rng.choice(len(users), size=size, replace=False)) for size in sizes]
    core_size = round(spec.overlap_fraction * min(sizes))
    need = core_size + sum(size - core_size for size in sizes)
    if need > len(users):
        raise ValueError(
            f"forced overlap infeasible: need {need} distinct users, universe has {len(users)}"
        )
    order = rng.permutation(len(users))
    core = list(order[:core_size])
    cursor = core_size
    member_sets = []
    for size in sizes:
        exclusive = list(order[cursor:cursor + size - core_size])
        cursor += size - core_size
        member_sets.append(sorted(core + exclusive))
    return member_sets


def _network(users, member_sets, probs, rng_seed):
    """Layers 1..k over the given member index lists: Erdős–Rényi edges
    from sub-stream ``edges/<i>``, then weights and thresholds drawn by
    :func:`~muxlci.network.prepare_network`."""
    layers = []
    for li, (members_idx, prob) in enumerate(zip(member_sets, probs), start=1):
        members = [users[i] for i in members_idx]
        edges = _er_edges(members, prob, np.random.default_rng(subseed(rng_seed, f"edges/{li}")))
        layers.append(LayerGraph(li, set(members), edges, {}))
    return prepare_network(layers, rng_seed)[0]


def generate(spec):
    """Build a multiplex network from a :class:`SynthSpec`.

    Topology, weights, and thresholds come from separate named
    sub-streams of the spec's seed; weights are normalized and
    thresholds assigned, so the result is ready for coupling.
    """
    users = _user_ids(spec.universe_size)
    membership_rng = np.random.default_rng(subseed(spec.rng_seed, "membership"))
    member_sets = _memberships(spec, users, membership_rng)
    return _network(users, member_sets, [prob for _, prob in spec.per_layer], spec.rng_seed)


def small_ilp_instance(rng_seed):
    """Two 50-user layers partitioning a 100-user base, edge probability
    0.04 each.

    The partition keeps the universe at exactly 100 users, so the clique
    coupling has exactly 300 vertices; the expected per-user out-degree
    inside each layer is 49 * 0.04, roughly 2.
    """
    users = _user_ids(100)
    rng = np.random.default_rng(subseed(rng_seed, "partition"))
    order = rng.permutation(100)
    halves = [sorted(order[:50]), sorted(order[50:])]
    return _network(users, halves, [0.04, 0.04], rng_seed)


def spec_echo(spec):
    """JSON-serializable provenance record for a generated network."""
    return {
        "universe_size": spec.universe_size,
        "per_layer": [[size, prob] for size, prob in spec.per_layer],
        "overlap_fraction": spec.overlap_fraction,
        "rng_seed": spec.rng_seed,
    }
