"""Hop-limited diffusion engines.

All engines use synchronous rounds: activations at hop t are computed
against the set of nodes active after hop t-1 and committed together.
Seeds count as active at hop 0 and start influencing at hop 1.  A run
stops at the hop budget or at quiescence, whichever comes first.

Three models:

* linear threshold — a node activates once the summed weights of its
  active in-neighbors reach its threshold (deterministic);
* stochastic threshold — per Monte Carlo sample, each node's threshold
  is drawn uniformly from (0, bound] and a linear-threshold run follows;
* independent cascade — each newly active node gets a single chance per
  out-edge to activate the target, with success probability equal to
  the edge weight.

The direct multiplex variant runs linear threshold on all layers at
once: a user activates as soon as the condition holds in *some* layer,
and an active user influences every layer it belongs to from the next
hop on.  Coupled linear threshold, each stochastic-threshold sample and
every multiplex run, a network of one layer alone included, share one
sweep, :func:`_lt_sweep`, over one or more (out-adjacency, bars) layers.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, repeat
from operator import itemgetter

from .network import WEIGHT_EPS

LINEAR_THRESHOLD = "linear_threshold"
STOCHASTIC_THRESHOLD = "stochastic_threshold"
INDEPENDENT_CASCADE = "independent_cascade"

_MODEL_KINDS = (LINEAR_THRESHOLD, STOCHASTIC_THRESHOLD, INDEPENDENT_CASCADE)


def require_int(name, value):
    """Raise ValueError unless ``value`` is an int that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {value!r}")


def require_count(name, value):
    """Raise ValueError unless ``value`` is an int and at least 1: the
    check of every sample count, hop budget, T, R and repetition count."""
    require_int(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def require_hops(hops):
    """Raise ValueError unless the hop budget ``hops`` is an int, not a
    bool, and at least 0: the check of every diffusion run."""
    require_int("hop budget", hops)
    if hops < 0:
        raise ValueError("hop budget must be >= 0")


def require_number(name, value):
    """Raise ValueError unless ``value`` is an int or float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {value!r}")


def require_beta(beta):
    """Raise ValueError unless the coverage target ``beta`` is a number
    (not a bool) in (0, 1]."""
    if isinstance(beta, bool) or not isinstance(beta, (int, float)) or not 0.0 < beta <= 1.0:
        raise ValueError(f"beta {beta!r} is not a number in (0, 1]")


@dataclass
class DiffusionModel:
    """Diffusion model selector plus Monte Carlo controls.

    ``st_bounds`` only applies to the stochastic threshold model: one
    number in (0, 1] (checked here) bounds every node's draw, and None
    bounds each node by its own threshold (checked when drawn).
    ``mc_samples`` is ignored for the deterministic linear-threshold
    model, but must still be a count (:func:`require_count`).
    ``rng_seed`` must be an int that is not a bool, under every model.
    """

    kind: str = LINEAR_THRESHOLD
    mc_samples: int = 1000
    rng_seed: int = 0
    st_bounds: object = None

    def __post_init__(self):
        if self.kind not in _MODEL_KINDS:
            raise ValueError(f"unknown diffusion model {self.kind!r}")
        require_count("mc_samples", self.mc_samples)
        require_int("rng_seed", self.rng_seed)
        bounds = self.st_bounds
        scalar = not isinstance(bounds, bool) and isinstance(bounds, (int, float)) and 0.0 < bounds <= 1.0
        if not (bounds is None or scalar):
            raise ValueError(f"st_bounds must be a number in (0, 1], not {bounds!r}")


class ActiveSet:
    """Activation trace: per_hop[t] holds the ids newly active at hop t
    (per_hop[0] is the seed set); members is their union.

    Built by :meth:`from_indices` from per-hop index lists and the ids
    those indices name, or by :meth:`_deferred` from a function that
    makes those lists.  The lists and the id sets ``per_hop`` and
    ``members`` are built on first access, so a caller that reads only
    the coverage numbers never pays for them.
    """

    @classmethod
    def from_indices(cls, per_hop_idx, node_ids):
        active = cls.__new__(cls)
        active._members = active._per_hop = None
        active._per_hop_idx = per_hop_idx
        active._node_ids = node_ids
        return active

    @classmethod
    def _deferred(cls, build, node_ids):
        """An active set whose per-hop index lists ``build()`` makes on first read."""
        active = cls.from_indices(None, node_ids)
        active._build = build
        return active

    def _indices(self):
        """The per-hop index lists."""
        if self._per_hop_idx is None:
            self._per_hop_idx = self._build()
        return self._per_hop_idx

    @property
    def per_hop(self):
        if self._per_hop is None:
            ids = self._node_ids
            self._per_hop = [{ids[i] for i in hop} for hop in self._indices()]
        return self._per_hop

    @property
    def members(self):
        if self._members is None:
            self._members = set().union(*self.per_hop)
        return self._members

    def __eq__(self, other):
        if not isinstance(other, ActiveSet):
            return NotImplemented
        return self.per_hop == other.per_hop  # members is their union

    def __repr__(self):
        return f"ActiveSet(members={self.members!r}, per_hop={self.per_hop!r})"


@dataclass
class DiffusionOutcome:
    """Result of one diffusion run.

    For Monte Carlo models, ``coverage_count`` and ``coverage_weight``
    are means over the samples and ``active`` holds the final sample's
    trace; for deterministic runs coverage_count == len(active.members).
    The two coverage numbers are tallied from node indices; the id sets
    in ``active`` are built only when read.  No field changes once built
    but ``_base_hops``, which :func:`_base_hops` fills on first need.
    """

    active: ActiveSet
    coverage_count: float
    coverage_weight: float
    hops_used: int
    # (graph, hop budget) of an lt_propagate run: what lets it serve as a base
    _lt_source: tuple = field(default=None, repr=False, compare=False)
    # (activation hop per node, level sizes): a delta run's own, or built
    # on first use as a base
    _base_hops: tuple = field(default=None, repr=False, compare=False)


class InfluenceGraph:
    """Directed weighted graph with per-node thresholds and node weights.

    Nodes are opaque string ids mapped to dense indices in the order
    given.  Thresholds and node weights must be finite, and edge weights
    finite and non-negative (the linear-threshold sweep relies on it);
    self-loops and duplicate edges are errors too.  Anything else
    raises ValueError.  The constructor resolves ids to indices and
    checks every node and edge once, catching duplicates with a set of
    each source's targets.  The lossless coupling, whose input has
    passed the layer rule book, and :func:`muxlci.coupling.read_coupled`,
    which checks each fact itself, store index adjacency unchecked.  A
    graph never changes after construction; the in-edge lists and the
    integral- and unit-weight tests are derived once on first use.
    """

    def __init__(self, nodes, edges, thresholds, node_weights=None):
        node_ids = tuple(nodes)
        index = {u: i for i, u in enumerate(node_ids)}
        if len(index) != len(node_ids):
            raise ValueError("duplicate node ids")
        theta = [float(thresholds[u]) for u in node_ids]
        if node_weights is None:
            node_weight = [1.0] * len(node_ids)
        else:
            node_weight = [float(node_weights.get(u, 1.0)) for u in node_ids]
        out = [[] for _ in node_ids]
        for src, dst, weight in edges:
            try:
                out[index[src]].append((index[dst], float(weight)))
            except KeyError as missing:
                raise ValueError(f"edge {src!r}->{dst!r}: endpoint {missing.args[0]!r} is not a node") from None
        self._check(node_ids, theta, node_weight, out)
        self._store(node_ids, index, theta, node_weight, out)

    @classmethod
    def _from_checked(cls, node_ids, index, theta, node_weight, out):
        """A graph over index adjacency ``out[iu] = [(iv, weight), ...]``
        whose caller has established every fact :meth:`_check` checks."""
        graph = cls.__new__(cls)
        graph._store(node_ids, index, theta, node_weight, out)
        return graph

    @staticmethod
    def _check(node_ids, theta, node_weight, out):
        """Raise ValueError on a non-finite threshold or node weight, a
        self-loop, a duplicate edge, or an edge weight that is not finite and
        >= 0: the first fault by source index, then out-list order."""
        for u, t, w in zip(node_ids, theta, node_weight):
            if not (math.isfinite(t) and math.isfinite(w)):
                raise ValueError(f"node {u!r}: threshold {t} and weight {w} must be finite")
        for iu, targets in enumerate(out):
            seen = set()
            for iv, weight in targets:
                if iv == iu or iv in seen or not 0.0 <= weight < math.inf:
                    src, dst = node_ids[iu], node_ids[iv]
                    if iv == iu:
                        raise ValueError(f"self-loop on {src!r}")
                    if iv in seen:
                        raise ValueError(f"duplicate edge {src!r}->{dst!r}")
                    raise ValueError(f"edge {src!r}->{dst!r}: weight {weight} must be finite and >= 0")
                seen.add(iv)

    def _store(self, node_ids, index, theta, node_weight, out):
        self.node_ids = node_ids
        self.index = index
        self.theta = theta
        self.node_weight = node_weight
        # activation bar: a node activates once its received weight reaches it
        self.bar = [t - WEIGHT_EPS for t in theta]
        self.out = out
        self.total_weight = float(sum(node_weight))

    def __len__(self):
        return len(self.node_ids)

    @cached_property
    def in_edges(self):
        """Per-node list of (predecessor index, weight) in predecessor
        order, built on first use and kept; callers must not change it."""
        incoming = [[] for _ in self.node_ids]
        for iu, targets in enumerate(self.out):
            for iv, weight in targets:
                incoming[iv].append((iu, weight))
        return incoming

    @cached_property
    def _integral_weights(self):
        """True when every node weight is a whole number and their
        magnitudes sum to at most 2**53, so any sum of them is exact in
        any order."""
        return (all(float(w).is_integer() for w in self.node_weight)
                and math.fsum(map(abs, self.node_weight)) <= 2.0 ** 53)

    @cached_property
    def _unit_weights(self):
        """True when every node weight is 1.0, so a node count is its weight."""
        return all(w == 1.0 for w in self.node_weight)


def _seed_indices(graph, seeds):
    """The sorted, distinct indices of the seed ids."""
    index = graph.index
    try:
        return sorted({index[seed] for seed in seeds})
    except KeyError as missing:
        raise ValueError(f"unknown seed id {missing.args[0]!r}") from None


def _tally(graph, per_hop_idx):
    """(node count, node-weight sum) of disjoint per-hop index lists."""
    count = sum(map(len, per_hop_idx))
    if graph._unit_weights:
        # a sum of ones is the count, exactly; an empty sum stays the int 0
        return count, count and float(count)
    weight = graph.node_weight.__getitem__
    return count, sum(map(weight, chain.from_iterable(per_hop_idx)))


def _lt_sweep(seed_idx, hops, lt_layers):
    """The linear-threshold sweep over ``(out-adjacency, activation bars)``
    layers in one index space; returns (per-hop index lists, hops used).

    Its three callers are :func:`lt_propagate` and :func:`st_propagate`,
    with the graph's one layer, and :func:`multiplex_lt_propagate`, with
    a network's ``lt_layers``.
    A node activates at the first hop at which, in some layer, its
    received weight reaches that layer's bar (threshold minus slack).
    Each hop walks the layers in order, and per layer the frontier's
    out-edges, adding into that layer's running sums; a node activates
    the moment one of its sums crosses the bar.  That equals testing the
    full hop sums afterwards only because edge weights are non-negative
    (``InfluenceGraph`` and the layer rule book enforce it): a sum can
    only grow within a hop.
    """
    n = len(lt_layers[0][1])
    # a loop, not a comprehension: before Python 3.12 a comprehension is a
    # call of its own, a few percent of a full run on a small coupled graph
    layers = []
    for out, bar in lt_layers:
        layers.append((out, bar, [0.0] * n))
    active = bytearray(n)
    for i in seed_idx:
        active[i] = 1
    per_hop = [list(seed_idx)]
    frontier = seed_idx
    hops_used = 0
    for t in range(1, hops + 1):
        newly = []
        for out, bar, received in layers:
            for u in frontier:
                for v, w in out[u]:
                    if not active[v]:
                        total = received[v] + w
                        received[v] = total
                        if total >= bar[v]:
                            active[v] = 1
                            newly.append(v)
        if not newly:
            break
        newly.sort()
        per_hop.append(newly)
        frontier = newly
        hops_used = t
    return per_hop, hops_used


def _base_hops(graph, base, hops, seed_idx):
    """(activation hop per node, hops + 1 if never active; per-hop level
    sizes) of ``base``, built once per base outcome, and the seeds of
    ``seed_idx`` that ``base`` lacks, after checking that ``base`` is a
    run on ``graph`` within ``hops`` from a subset of ``seed_idx``."""
    source = base._lt_source
    if source is None or source[0] is not graph:
        raise ValueError("base must be an lt_propagate outcome on the same graph")
    if source[1] != hops:
        raise ValueError(f"base ran {source[1]} hops, not {hops}")
    if base._base_hops is None:
        hop = [hops + 1] * len(graph)
        levels = base.active._indices()
        for t, level in enumerate(levels):
            for i in level:
                hop[i] = t
        base._base_hops = (hop, [len(level) for level in levels])
    hop, sizes = base._base_hops
    added = [i for i in seed_idx if hop[i]]
    if len(seed_idx) - len(added) != sizes[0]:
        raise ValueError("base seeds must be a subset of the seeds")
    return hop, sizes, added


_first = itemgetter(0)

# twice the unit roundoff, padded: float sums of the same m non-negative
# terms in two orders differ by at most total * SUM_SLACK * m (Higham,
# Accuracy and Stability of Numerical Algorithms, section 4.2)
SUM_SLACK = 2.3e-16


def _hop_sum(in_edges, hop, t):
    """The weights of ``in_edges`` from nodes active before hop ``t``,
    summed by hop, then by source index: :func:`_lt_sweep`'s order."""
    received = [(hop[u], w) for u, w in in_edges if hop[u] < t]
    received.sort(key=_first)
    total = 0.0
    for _, w in received:
        total += w
    return total


def _lt_delta(graph, seed_idx, hops, base):
    """Linear threshold from ``seed_idx``, started from the activation
    hops of ``base``, a run from a subset of those seeds; returns the
    outcome.

    With non-negative edge weights, adding seeds moves hops only earlier,
    and a node's hop can differ from the base's only if an in-neighbour's
    does.  So hop t re-checks only the out-neighbours of the nodes whose
    hop changed to t-1, and a node whose re-check failed again at the
    next hop at which an in-neighbour activates in the base, or at its
    own base hop if that comes first.  A re-check sums the node's
    in-weights from in-neighbours active by t-1 in source order; only a
    sum within ``total * SUM_SLACK * m`` of the bar (m in-edges), where
    two orders can round to either side, is re-summed in
    :func:`_lt_sweep`'s order (:func:`_hop_sum`), so each test falls as
    that run's does.  A float sum in a new order can fall short of the
    base's; a node whose re-check fails at its base hop is then lost, and
    its out-neighbours are re-checked too.  A re-check with no
    in-neighbour active by t-1 fails whatever the bar, as the sweep tests
    only nodes that an active node's edge reaches.  The node weights are
    whole (:func:`lt_propagate` starts from a base on no other graph), so
    the base's weight plus and minus the nodes that changed is exact, and
    every field of the outcome equals the run without a base.  The
    outcome keeps its activation hops, so it serves as a base in turn.
    """
    base_hop, sizes, changed = _base_hops(graph, base, hops, seed_idx)
    incoming, out, bar, node_weight = graph.in_edges, graph.out, graph.bar, graph.node_weight
    # a run adds no node after hop n - |seeds|, so a budget past n runs
    # as n; the outcome still reports the caller's budget as its source
    budget = min(hops, len(graph))
    inf = budget + 1
    hop = base_hop[:]
    weight = base.coverage_weight
    level = sizes + [0] * (inf - len(sizes))  # node count per hop 0..budget
    for i in changed:
        if hop[i] > budget:
            weight += node_weight[i]
        else:
            level[hop[i]] -= 1
        hop[i] = 0
    level[0] = len(seed_idx)
    lost = []  # nodes that failed a re-check at their base hop
    later = {}  # hop -> worklist of the nodes to re-check then
    t = 0
    while True:
        # the next hop with work: right after a change, else the next re-check due
        if changed or lost:
            t += 1
        elif later:
            t = min(later)
        else:
            break
        if t > budget:
            break
        # node -> True when an edge from a node whose hop changed to t-1
        # alone reaches its bar: a float sum of non-negative terms is at
        # least each term, so the node activates without a re-check
        work = later.pop(t, {})
        for u in changed:
            for v, w in out[u]:
                if hop[v] >= t:
                    if w >= bar[v]:
                        work[v] = True
                    elif v not in work:
                        work[v] = False
        for u in lost:
            for v, _ in out[u]:
                work.setdefault(v, False)
        changed, lost = [], []
        for v, sure in work.items():
            if hop[v] < t:
                continue
            b = base_hop[v]
            if not sure:
                total = 0.0
                soonest = inf
                for u, w in incoming[v]:
                    h = hop[u]
                    if h < t:
                        total += w
                    elif h < soonest:
                        soonest = h
                need = bar[v]
                if abs(total - need) <= total * SUM_SLACK * len(incoming[v]):
                    # within rounding of the bar, only _lt_sweep's order decides
                    total = _hop_sum(incoming[v], hop, t)
                # _lt_sweep tests a node only when an active in-neighbour's edge reaches it
                if total < need or need <= 0.0 and all(hop[u] >= t for u, _ in incoming[v]):
                    if b == t:
                        hop[v] = inf
                        lost.append(v)
                        level[t] -= 1
                        weight -= node_weight[v]
                    nxt = soonest + 1 if b <= t else min(soonest + 1, b)
                    if nxt <= budget:
                        later.setdefault(nxt, {})[v] = False
                    continue
            if b != t:
                hop[v] = t
                changed.append(v)
                level[t] += 1
                if b < t or b > budget:
                    weight += node_weight[v]
                else:
                    level[b] -= 1
    used = budget
    while used and not level[used]:
        used -= 1
    del level[used + 1:]

    def levels():
        per_hop = [[] for _ in level]
        for i, h in enumerate(hop):
            if h <= used:
                per_hop[h].append(i)
        return per_hop

    active = ActiveSet._deferred(levels, graph.node_ids)
    return DiffusionOutcome(active, float(sum(level)), weight, used, (graph, hops), (hop, level))


def lt_propagate(graph, seeds, hops, base=None):
    """Deterministic linear-threshold diffusion from a seed set.

    Threshold comparisons use >= with a 1e-12 slack so sums that should
    exactly meet a threshold survive floating point.

    ``base`` is an earlier outcome of this function on the same graph
    and hop budget, from a subset of ``seeds``; anything else raises
    ValueError.  On a graph of whole node weights the run then starts
    from the base's activation hops and re-checks only the nodes the
    added seeds can reach (:func:`_lt_delta`); on any other graph it
    runs in full.  Its outcome equals the run without a base in every
    field.
    """
    require_hops(hops)
    seed_idx = _seed_indices(graph, seeds)
    if base is not None:
        if graph._integral_weights:
            return _lt_delta(graph, seed_idx, hops, base)
        _base_hops(graph, base, hops, seed_idx)  # check the base as a delta run would
    per_hop, hops_used = _lt_sweep(seed_idx, hops, ((graph.out, graph.bar),))
    count, weight = _tally(graph, per_hop)
    active = ActiveSet.from_indices(per_hop, graph.node_ids)
    return DiffusionOutcome(active, float(count), weight, hops_used, (graph, hops))


def multiplex_lt_propagate(network, seeds, hops):
    """Linear-threshold diffusion directly on a multiplex network.

    A user activates at hop t as soon as, in some layer, the summed
    weights of its in-neighbors active after hop t-1 reach that layer's
    threshold.  Activation is global: from the next hop the user exerts
    influence in every layer it joins.  Runs on the network's
    :attr:`~muxlci.network.MultiplexNetwork.lt_layers`, which are built
    on the first call and reject unset, negative or non-finite weights
    and missing thresholds with ValueError.
    """
    require_hops(hops)
    seeds = set(seeds)
    unknown = seeds - network.universe
    if unknown:
        raise ValueError(f"unknown seed users: {sorted(unknown)!r}")
    seed_idx = sorted(network.position[u] for u in seeds)
    per_hop, hops_used = _lt_sweep(seed_idx, hops, network.lt_layers)
    count = float(sum(map(len, per_hop)))
    return DiffusionOutcome(ActiveSet.from_indices(per_hop, network.users), count, count, hops_used)


def _monte_carlo(graph, model, run_sample, samples):
    """Mean coverage over the runs ``run_sample(s)`` for s in ``samples``.

    ``samples`` yields ``model.mc_samples`` items; each run returns
    (per-hop index lists, hops used).  The outcome carries the means and
    the last sample's trace.
    """
    count_total = 0.0
    weight_total = 0.0
    for sample in samples:
        per_hop, hops_used = run_sample(sample)
        count, weight = _tally(graph, per_hop)
        count_total += count
        weight_total += weight
    active = ActiveSet.from_indices(per_hop, graph.node_ids)
    return DiffusionOutcome(active, count_total / model.mc_samples, weight_total / model.mc_samples, hops_used)


def _ic_single(graph, seed_idx, hops, rand):
    """One cascade drawing from ``rand()``; returns (per-hop index lists, hops used).

    ``stamp[v]`` is 0 while v was never hit, else the hop at which it
    was hit plus 1.  Every frontier edge into a node not committed
    before the hop takes a draw, even when an earlier edge of the hop hit
    it (its stamp is then the hop's ``mark``), so the stream follows the
    edge order alone.
    """
    out = graph.out
    stamp = [0] * len(graph.node_ids)
    for i in seed_idx:
        stamp[i] = 1
    per_hop = [list(seed_idx)]
    frontier = seed_idx
    hops_used = 0
    for t in range(1, hops + 1):
        mark = t + 1
        newly = []
        for u in frontier:
            for v, w in out[u]:
                s = stamp[v]
                if not s:
                    if rand() < w:
                        stamp[v] = mark
                        newly.append(v)
                elif s == mark:
                    rand()
        if not newly:
            break
        newly.sort()
        per_hop.append(newly)
        frontier = newly
        hops_used = t
    return per_hop, hops_used


def ic_propagate(graph, seeds, hops, model):
    """Independent-cascade diffusion, averaged over Monte Carlo samples.

    Each newly active node attempts each out-edge exactly once, with
    success probability equal to the edge weight; the cascade is
    truncated after ``hops`` rounds.  Deterministic under the model's
    rng seed: all samples draw in turn from one
    ``random.Random(model.rng_seed)``.
    """
    if model.kind != INDEPENDENT_CASCADE:
        raise ValueError("model.kind must be independent_cascade")
    require_hops(hops)
    seed_idx = _seed_indices(graph, seeds)
    draws = repeat(random.Random(model.rng_seed).random, model.mc_samples)
    return _monte_carlo(graph, model, partial(_ic_single, graph, seed_idx, hops), draws)


def _st_bars(graph, model):
    """A generator of each sample's activation bars under a
    stochastic-threshold ``model``: per sample and node, one draw u from
    ``random.Random(model.rng_seed)`` gives ``(1.0 - u) * bound - WEIGHT_EPS``.
    The bound is ``st_bounds`` (checked by the model) or, when that is
    None, the node's threshold, which must be in (0, 1]; that is checked
    before the first draw."""
    if model.st_bounds is None:
        bounds = graph.theta
        for u, b in zip(graph.node_ids, bounds):
            if not 0.0 < b <= 1.0:
                raise ValueError(f"stochastic threshold bound for {u!r} outside (0, 1]: {b}")
    else:
        bounds = [float(model.st_bounds)] * len(graph)
    rng = random.Random(model.rng_seed)
    return ([(1.0 - rng.random()) * b - WEIGHT_EPS for b in bounds] for _ in range(model.mc_samples))


def st_propagate(graph, seeds, hops, model, bars=None):
    """Stochastic-threshold diffusion, averaged over Monte Carlo samples.

    Per sample, each node's threshold is drawn uniformly from
    (0, bound] and a linear-threshold run follows.  Deterministic under
    the model's rng seed.

    The draws do not depend on the seeds.  Without ``bars`` a call draws
    one sample's bars at a time (:func:`_st_bars`); a caller that runs
    many seed sets under one model may draw ``list(_st_bars(graph,
    model))`` once and pass it as ``bars`` to each, with the same outcome.
    """
    if model.kind != STOCHASTIC_THRESHOLD:
        raise ValueError("model.kind must be stochastic_threshold")
    require_hops(hops)
    seed_idx = _seed_indices(graph, seeds)
    if bars is None:
        bars = _st_bars(graph, model)
    layers = (((graph.out, bar),) for bar in bars)
    return _monte_carlo(graph, model, partial(_lt_sweep, seed_idx, hops), layers)


def write_trace(outcome, stream, kinds=None):
    """Write the per-hop activation trace as CSV rows hop,node_id,node_kind."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["hop", "node_id", "node_kind"])
    for hop, members in enumerate(outcome.active.per_hop):
        for node in sorted(members):
            kind = kinds[node].kind if kinds and node in kinds else "user"
            writer.writerow([hop, node, kind])
