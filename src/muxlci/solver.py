"""Seed-set selection: greedy solvers, brute-force oracle, ILP export.

The greedy solvers work on a coupled network and pick seeds from the
domain of the user<->node mapping F.  Coverage of a candidate set is
the node weight the diffusion activates in hop_scale * d hops (every
node weighs 1 off the reduced couplings, so there it is the node
count), and the target is a beta fraction of the total node weight.
The improved solver keeps a max-heap of (possibly stale) marginal gains
and alternates cheap light iterations (re-evaluate only the top T
entries) with periodic heavy iterations (every R-th selection
re-evaluates everything); the gain of the node actually selected is
always recomputed fresh.  The pipeline runs it; ``naive_greedy``, which
it equals at R = 1, is the plain greedy the tests compare against.
"""

from __future__ import annotations

import heapq
import itertools
import re
from dataclasses import dataclass, field, replace

from .diffusion import (
    INDEPENDENT_CASCADE,
    LINEAR_THRESHOLD,
    STOCHASTIC_THRESHOLD,
    ic_propagate,
    lt_propagate,
    multiplex_lt_propagate,
    st_propagate,
)

# slack when testing coverage >= beta * total, so float products like
# 0.3 * 50 cannot flip a met target
FRACTION_EPS = 1e-9

# Under deterministic LT, improved_greedy starts every evaluation from the
# iteration's base run once it holds this many seeds.  From one seed a
# candidate's cascade is mostly new, and re-checking it node by node
# measured slower than a full run on small graphs.
DELTA_MIN_SEEDS = 2


def require_integers(**values):
    """Raise ValueError unless every value is an int; a bool is not one
    here.  GreedyConfig and ExperimentSpec check their hop budget, T, R
    and repetition count with it before checking that they are >= 1."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, not {value!r}")


def meets_fraction(value, beta, total):
    """True when coverage ``value`` reaches the beta fraction of ``total``."""
    return value >= beta * total - FRACTION_EPS


@dataclass
class GreedyConfig:
    """Solver parameters.

    ``T`` is the number of heap entries re-evaluated in a light
    iteration, ``R`` the period of full (heavy) re-evaluations.
    ``model`` defaults to deterministic linear threshold; stochastic
    models are evaluated by Monte Carlo means with a shared per-
    iteration seed so candidate comparisons use common random numbers.
    """

    beta: float
    hops: int
    T: int = 8
    R: int = 3
    model: object = None

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        require_integers(hops=self.hops, T=self.T, R=self.R)
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.T < 1 or self.R < 1:
            raise ValueError("T and R must be >= 1")


@dataclass
class SeedSet:
    """Ordered selection with its per-selection marginal-gain log.

    A greedy run also logs ``coverages``, the coverage after each
    selection, and the ``total`` its fractions are taken of.
    """

    users: list
    gains: list = field(default_factory=list)
    achieved_fraction: float = 0.0
    coverages: list = field(default_factory=list)
    total: float = 0.0

    def prefix(self, beta):
        """The seed set the same greedy run returns at target ``beta``.

        The greedies read beta only in their stop test, so a run at a
        target no larger than this run's stops at the shortest prefix
        whose coverage meets it.
        """
        for size, coverage in enumerate([0.0] + self.coverages):
            if meets_fraction(coverage, beta, self.total):
                return SeedSet(self.users[:size], self.gains[:size], coverage / self.total,
                               self.coverages[:size], self.total)
        raise ValueError(f"target {beta} is beyond this run's coverage")


def _deterministic(cfg):
    return cfg.model is None or cfg.model.kind == LINEAR_THRESHOLD


def _propagate(coupled, seed_nodes, cfg, rng_seed=None, base=None):
    """The diffusion outcome of ``seed_nodes``; ``base`` (deterministic
    linear threshold only) is an earlier outcome of a subset of them."""
    budget = coupled.hop_scale * cfg.hops
    if _deterministic(cfg):
        return lt_propagate(coupled.graph, seed_nodes, budget, base=base)
    if base is not None:
        raise ValueError("a base run applies to deterministic linear threshold only")
    model = cfg.model
    if rng_seed is not None:
        model = replace(model, rng_seed=rng_seed)
    if model.kind == INDEPENDENT_CASCADE:
        return ic_propagate(coupled.graph, seed_nodes, budget, model)
    if model.kind == STOCHASTIC_THRESHOLD:
        return st_propagate(coupled.graph, seed_nodes, budget, model)
    raise ValueError(f"unknown diffusion model {model.kind!r}")


def _coverage(coupled, seed_nodes, cfg, rng_seed=None):
    return _propagate(coupled, seed_nodes, cfg, rng_seed).coverage_weight


def marginal_gain(coupled, current, candidate, cfg, base_coverage=None, rng_seed=None, base=None):
    """Coverage gain of adding one candidate node to the current seeds.

    ``base`` is an optional :func:`~muxlci.diffusion.lt_propagate`
    outcome of ``current`` under deterministic linear threshold; the
    joint run then starts from it, with the same result.  It also
    supplies ``base_coverage`` when that is not given.
    """
    if candidate in current:
        raise ValueError(f"candidate {candidate!r} already selected")
    if candidate not in coupled.user_of:
        raise ValueError(f"candidate {candidate!r} is not a seedable node")
    if base_coverage is None:
        if base is None:
            base_coverage = _coverage(coupled, current, cfg, rng_seed)
        else:
            base_coverage = base.coverage_weight
    joint = _propagate(coupled, [*current, candidate], cfg, rng_seed, base)
    return joint.coverage_weight - base_coverage


def _domain(coupled):
    """Seedable nodes in deterministic (graph index) order."""
    return sorted(coupled.user_of, key=coupled.graph.index.__getitem__)


def _iteration_seed(cfg, iteration):
    if _deterministic(cfg):
        return None
    return cfg.model.rng_seed + 7919 * iteration


def _finish(coupled, selected, gains, coverages, total):
    coverage = coverages[-1] if coverages else 0.0
    return SeedSet(coupled.users_of(selected), gains, coverage / total, coverages, total)


def naive_greedy(coupled, cfg):
    """Reference greedy: re-evaluate every unselected candidate each
    iteration and take the best, ties to the smallest node index."""
    total = coupled.graph.total_weight
    remaining = _domain(coupled)
    selected, gains, coverages = [], [], []
    coverage = 0.0
    iteration = 0
    while not meets_fraction(coverage, cfg.beta, total):
        if not remaining:
            raise ValueError("coverage target unreachable: candidate pool exhausted")
        iteration += 1
        seed = _iteration_seed(cfg, iteration)
        base = _coverage(coupled, selected, cfg, seed)
        best, best_gain = None, None
        for candidate in remaining:
            gain = _coverage(coupled, [*selected, candidate], cfg, seed) - base
            if best_gain is None or gain > best_gain:
                best, best_gain = candidate, gain
        selected.append(best)
        remaining.remove(best)
        gains.append(best_gain)
        coverage = base + best_gain
        coverages.append(coverage)
    return _finish(coupled, selected, gains, coverages, total)


def improved_greedy(coupled, cfg):
    """Lazy greedy with alternating heavy and light iterations.

    A max-heap holds stale marginal gains for all unselected seedable
    nodes (keyed by gain, ties to the smallest node index).  Every R-th
    iteration rebuilds the whole heap with fresh gains; other iterations
    re-evaluate just the top T entries and push them back.  The maximum
    is then popped, its gain recomputed fresh, and the node selected.
    With T = |domain| or R = 1 this collapses to the naive greedy.

    Every evaluation is one diffusion run.  A full run costs O(m+n), so
    a light iteration costs O(T*(m+n)) against the naive greedy's
    O(n*(m+n)).  Under deterministic linear threshold, once the seeds
    number DELTA_MIN_SEEDS or more, each iteration's base run of the
    selected seeds is handed to every heavy, light and fresh evaluation
    (``lt_propagate``'s ``base``): the joint run then re-checks only the
    nodes whose activation hop the candidate moves earlier, and the
    in-edges of each, with the same result.  From the second iteration
    on, the base run itself starts from the previous iteration's fresh
    run, which has the same seeds, so it changes no hop and costs O(n).
    Heap initialisation and the first base run are full runs.
    """
    graph = coupled.graph
    total = graph.total_weight
    domain = _domain(coupled)
    selected, gains, coverages = [], [], []
    coverage = 0.0
    init_seed = _iteration_seed(cfg, 0)
    delta = _deterministic(cfg)
    heap = [
        (-marginal_gain(coupled, selected, node, cfg, 0.0, init_seed), graph.index[node], node)
        for node in domain
    ]
    heapq.heapify(heap)
    counter = 0
    last = None  # the previous iteration's fresh run, under deterministic LT
    while not meets_fraction(coverage, cfg.beta, total):
        if not heap:
            raise ValueError("coverage target unreachable: candidate pool exhausted")
        counter += 1
        seed = _iteration_seed(cfg, counter)
        run = _propagate(coupled, selected, cfg, seed, last)
        base = run.coverage_weight
        start = run if delta and len(selected) >= DELTA_MIN_SEEDS else None
        if counter % cfg.R == 0:
            heap = [
                (-marginal_gain(coupled, selected, node, cfg, base, seed, start), idx, node)
                for (_, idx, node) in heap
            ]
            heapq.heapify(heap)
        else:
            refreshed = []
            for _ in range(min(cfg.T, len(heap))):
                _, idx, node = heapq.heappop(heap)
                gain = marginal_gain(coupled, selected, node, cfg, base, seed, start)
                refreshed.append((-gain, idx, node))
            for entry in refreshed:
                heapq.heappush(heap, entry)
        _, _, node = heapq.heappop(heap)
        joint = _propagate(coupled, [*selected, node], cfg, seed, start)
        fresh = joint.coverage_weight - base
        if delta:
            last = joint
        selected.append(node)
        gains.append(fresh)
        coverage = base + fresh
        coverages.append(coverage)
    return _finish(coupled, selected, gains, coverages, total)


def brute_force_optimal(network, beta, hops, max_users=22):
    """Smallest seed set reaching the beta fraction under direct
    multiplex diffusion, by exhaustive search.

    Subsets are enumerated in increasing cardinality (lexicographic
    within each cardinality over sorted user ids), so the first feasible
    subset found has provably minimum size.  Refuses universes larger
    than ``max_users``.
    """
    users = sorted(network.universe)
    n = len(users)
    if n > max_users:
        raise ValueError(f"universe of {n} users exceeds the brute-force cap {max_users}")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")
    for size in range(n + 1):
        for combo in itertools.combinations(users, size):
            outcome = multiplex_lt_propagate(network, set(combo), hops)
            if meets_fraction(outcome.coverage_count, beta, n):
                gains = []
                previous = 0.0
                for i in range(1, size + 1):
                    cov = multiplex_lt_propagate(network, set(combo[:i]), hops).coverage_count
                    gains.append(cov - previous)
                    previous = cov
                return SeedSet(list(combo), gains, outcome.coverage_count / n)
    raise ValueError("coverage target unreachable")  # cannot happen for beta <= 1


def _sanitize(token):
    return re.sub(r"[^A-Za-z0-9_]", "_", token)


def _variable_names(graph):
    tokens = [_sanitize(node) for node in graph.node_ids]
    if len(set(tokens)) != len(tokens):
        # fall back to index-based names when sanitized ids collide
        tokens = [f"n{i}" for i in range(len(graph.node_ids))]
    return tokens


def _terms_lines(terms, per_line=6):
    """Render '+ coeff var' terms wrapped a few per line."""
    chunks = []
    for start in range(0, len(terms), per_line):
        chunks.append(" " + " ".join(terms[start:start + per_line]))
    return chunks


def export_ilp(coupled, cfg, out):
    """Write the seed-minimization 0-1 program in CPLEX LP text format.

    Variables x_<node>_<i> say whether a node is active in round i,
    for i = 0..hop_scale*hops.  Round-0 actives are the seeds (the
    objective); a node may turn active only if it was active before or
    its incoming active weight reaches its threshold; activity is
    monotone; the node weight active in the final round must reach beta
    times the total node weight, as in the greedy.  Every node weighs 1
    off the reduced couplings, where that is beta times the node count.
    Deterministic ordering throughout.  Returns a summary dict.
    """
    graph = coupled.graph
    rounds = coupled.hop_scale * cfg.hops
    names = _variable_names(graph)
    var = lambda i, t: f"x_{names[i]}_{t}"
    incoming = graph.in_edges()
    n = len(graph)

    out.write(f"\\ scheme={coupled.scheme} hops={cfg.hops} rounds={rounds} beta={cfg.beta!r}\n")
    out.write("Minimize\n obj:\n")
    for chunk in _terms_lines([f"+ {var(i, 0)}" for i in range(n)]):
        out.write(chunk + "\n")
    out.write("Subject To\n")
    terms = [f"+ {graph.node_weight[i]!r} {var(i, rounds)}" for i in range(n) if graph.node_weight[i] != 0.0]
    out.write(" cover:\n")
    for chunk in _terms_lines(terms):
        out.write(chunk + "\n")
    out.write(f" >= {cfg.beta * graph.total_weight!r}\n")
    for i in range(n):
        theta = graph.theta[i]
        for t in range(1, rounds + 1):
            terms = [f"+ {w!r} {var(j, t - 1)}" for j, w in incoming[i]]
            terms.append(f"+ {theta!r} {var(i, t - 1)}")
            terms.append(f"- {theta!r} {var(i, t)}")
            out.write(f" act_{names[i]}_{t}:\n")
            for chunk in _terms_lines(terms):
                out.write(chunk + "\n")
            out.write(" >= 0\n")
    for i in range(n):
        for t in range(1, rounds + 1):
            out.write(f" mono_{names[i]}_{t}: {var(i, t)} - {var(i, t - 1)} >= 0\n")
    out.write("Binaries\n")
    all_vars = [var(i, t) for i in range(n) for t in range(rounds + 1)]
    for chunk in _terms_lines(all_vars, per_line=8):
        out.write(chunk + "\n")
    out.write("End\n")
    return {
        "variables": n * (rounds + 1),
        "constraints": 1 + 2 * n * rounds,
        "nodes": n,
        "rounds": rounds,
    }
