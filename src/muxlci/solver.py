"""Seed-set selection: the lazy greedy, brute-force oracle, ILP export.

The greedy works on a coupled network and picks seeds from the domain
of the user<->node mapping F.  Coverage of a candidate set is the node
weight the diffusion activates in hop_scale * d hops (every node weighs
1 off the reduced couplings, so there it is the node count), and the
target is a beta fraction of the total node weight.  The greedy keeps a
max-heap of (possibly stale) marginal gains and alternates cheap light
iterations (re-evaluate only the top T entries) with periodic heavy
iterations (every R-th selection re-evaluates everything); the gain of
the node actually selected is always recomputed fresh.  At R = 1 it is
the plain greedy.  Its loop never reads the diffusion model: a private
evaluator, made per solve, makes every diffusion run and keeps the
state a model needs.
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
    DiffusionModel,
    _st_bars,
    ic_propagate,
    lt_propagate,
    multiplex_lt_propagate,
    require_beta,
    require_count,
    st_propagate,
)

# slack when testing coverage >= beta * total, so float products like
# 0.3 * 50 cannot flip a met target
FRACTION_EPS = 1e-9

# Under deterministic LT, the evaluator starts every evaluation from the
# iteration's base run once it holds this many seeds.  From one seed a
# candidate's cascade is mostly new, and re-checking it node by node
# measured slower than a full run on small graphs.
DELTA_MIN_SEEDS = 2

# brute_force_optimal enumerates up to 2**n subsets of n users; it refuses more
BRUTE_FORCE_MAX_USERS = 22


def meets_fraction(value, beta, total):
    """True when coverage ``value`` reaches the beta fraction of ``total``."""
    return value >= beta * total - FRACTION_EPS


@dataclass
class GreedyConfig:
    """Solver parameters.

    ``T`` is the number of heap entries re-evaluated in a light
    iteration, ``R`` the period of full (heavy) re-evaluations.
    ``model`` is a DiffusionModel, deterministic linear threshold by
    default; stochastic models are evaluated by Monte Carlo means with a
    shared per-iteration seed so candidate comparisons use common random
    numbers.
    """

    beta: float
    hops: int
    T: int = 8
    R: int = 3
    model: DiffusionModel = field(default_factory=DiffusionModel)

    def __post_init__(self):
        require_beta(self.beta)
        for name in ("hops", "T", "R"):
            require_count(name, getattr(self, name))
        if not isinstance(self.model, DiffusionModel):
            raise ValueError(f"model must be a DiffusionModel, not {self.model!r}")


@dataclass(frozen=True)
class GreedyIteration:
    """The work of one lazy-greedy iteration: ``heavy`` when it
    re-evaluated the whole heap, else light; ``evaluations``, the heap
    entries it re-evaluated; ``stale``, the heap key of the node it
    popped, whose fresh gain is the selection's entry in
    ``SeedSet.gains``.  ``kernel_calls`` counts the diffusion runs it
    made, its base and fresh runs included;
    it is None where no evaluator counted them, and left out of
    equality, so a loop over full reruns logs the same iterations.
    """

    heavy: bool
    evaluations: int
    stale: float
    kernel_calls: int = field(default=None, compare=False)


@dataclass
class SeedSet:
    """Ordered selection with its per-selection marginal-gain log,
    ``coverages``, the coverage after each selection, and the ``total``
    its fractions are taken of.

    A lazy greedy also logs its work: ``init_evaluations``, the heap
    initialisation's evaluations (one per candidate), with
    ``init_kernel_calls``, the diffusion runs they made (left out of
    equality, like each iteration's), and one :class:`GreedyIteration`
    per selection in ``iterations``.  Each iteration also evaluates its
    base coverage and the popped node's fresh gain, which
    :attr:`evaluations` counts.  Brute force logs none.
    """

    users: list
    gains: list
    coverages: list
    total: float
    init_evaluations: int = 0
    iterations: list = field(default_factory=list)
    init_kernel_calls: int = field(default=None, compare=False)

    @property
    def achieved_fraction(self):
        """The fraction of ``total`` the whole selection covers."""
        return (self.coverages[-1] if self.coverages else 0.0) / self.total

    @property
    def evaluations(self):
        """The evaluations the run made: ``init_evaluations + sum(it.evaluations + 2 for it in iterations)``."""
        return self.init_evaluations + sum(it.evaluations + 2 for it in self.iterations)

    @property
    def max_stale_gap(self):
        """The largest |stale key - fresh gain| of a selection, 0.0 with none."""
        return max((abs(it.stale - gain) for it, gain in zip(self.iterations, self.gains)), default=0.0)

    def prefix(self, beta):
        """The seed set the same greedy run returns at target ``beta``.

        The greedies read beta only in their stop test, so a run at a
        target no larger than this run's stops at the shortest prefix
        whose coverage meets it, and its log is the same prefix of this
        run's.
        """
        for size, coverage in enumerate([0.0] + self.coverages):
            if meets_fraction(coverage, beta, self.total):
                return replace(self, users=self.users[:size], gains=self.gains[:size],
                               coverages=self.coverages[:size], iterations=self.iterations[:size])
        raise ValueError(f"target {beta} is beyond this run's coverage")


class _Evaluator:
    """The diffusion runs of one greedy solve, made from ``cfg.model``.

    ``begin(i, selected)`` starts iteration ``i`` from the seeds selected
    so far and returns their coverage; ``gain(node)`` is a candidate's
    marginal gain over them and ``select(node)`` the popped node's fresh
    gain.  Each makes one diffusion run, but ``begin(0, [])``, heap
    initialisation, makes none.

    Under a stochastic model, iteration ``i`` draws every run from rng
    seed ``rng_seed + 7919 * i``, so its candidates share random numbers;
    under stochastic threshold, ``begin`` draws the iteration's bars once
    and every run of the iteration reuses them.
    Under deterministic linear threshold, once the seeds number
    DELTA_MIN_SEEDS or more, every evaluation starts from the iteration's
    base run (``lt_propagate``'s ``base``) and re-checks only the nodes
    the candidate moves earlier, with the same result.  The base run
    starts from the previous iteration's fresh run, which has the same
    seeds, so it changes no hop and costs O(n).
    """

    def __init__(self, coupled, cfg):
        self.graph = coupled.graph
        self.budget = coupled.hop_scale * cfg.hops
        self.model = cfg.model  # the iteration's model
        self.rng_seed = cfg.model.rng_seed
        self.delta = cfg.model.kind == LINEAR_THRESHOLD
        self.bars = None  # the iteration's stochastic-threshold bars
        self.selected = []
        self.coverage = 0.0
        self.start = None  # the base run evaluations start from
        self.last = None  # the previous iteration's fresh run
        self.calls = 0  # the diffusion runs made so far

    def _run(self, seed_nodes, base):
        """The outcome of ``seed_nodes``; ``base`` (deterministic linear
        threshold) is an earlier outcome of a subset of them."""
        self.calls += 1
        model = self.model
        if model.kind == LINEAR_THRESHOLD:
            return lt_propagate(self.graph, seed_nodes, self.budget, base=base)
        if model.kind == INDEPENDENT_CASCADE:
            return ic_propagate(self.graph, seed_nodes, self.budget, model)
        return st_propagate(self.graph, seed_nodes, self.budget, model, bars=self.bars)

    def begin(self, iteration, selected):
        self.selected = selected
        if not self.delta:
            self.model = replace(self.model, rng_seed=self.rng_seed + 7919 * iteration)
            if self.model.kind == STOCHASTIC_THRESHOLD:
                self.bars = list(_st_bars(self.graph, self.model))
        if iteration:
            run = self._run(selected, self.last)
            self.coverage = run.coverage_weight
            if self.delta and len(selected) >= DELTA_MIN_SEEDS:
                self.start = run
        return self.coverage

    def gain(self, node):
        return self._run([*self.selected, node], self.start).coverage_weight - self.coverage

    def select(self, node):
        joint = self._run([*self.selected, node], self.start)
        if self.delta:
            self.last = joint
        return joint.coverage_weight - self.coverage


def improved_greedy(coupled, cfg):
    """Lazy greedy with alternating heavy and light iterations.

    A max-heap holds stale marginal gains for all unselected seedable
    nodes (keyed by gain, ties to the smallest node index).  Every R-th
    iteration rebuilds the whole heap with fresh gains; other iterations
    re-evaluate just the top T entries and push them back.  The maximum
    is then popped, its gain recomputed fresh, and the node selected.
    With T = |domain| or R = 1 this is the plain greedy.

    Every evaluation is one diffusion run, made by a per-solve
    ``_Evaluator``; the loop is the same under every model.  A full run
    costs O(m+n), so a light iteration costs O(T*(m+n)) against the
    plain greedy's O(n*(m+n)).  The returned ``SeedSet`` logs each
    iteration's work (:class:`GreedyIteration`).
    """
    graph = coupled.graph
    total = graph.total_weight
    evaluator = _Evaluator(coupled, cfg)
    evaluator.begin(0, [])
    domain = sorted(coupled.user_of, key=graph.index.__getitem__)
    heap = [(-evaluator.gain(node), graph.index[node], node) for node in domain]
    heapq.heapify(heap)
    init_calls = evaluator.calls
    selected, gains, coverages, log = [], [], [], []
    coverage = 0.0
    iteration = 0
    while not meets_fraction(coverage, cfg.beta, total):
        if not heap:
            raise ValueError("coverage target unreachable: candidate pool exhausted")
        iteration += 1
        calls = evaluator.calls
        prior = evaluator.begin(iteration, selected)
        heavy = iteration % cfg.R == 0
        if heavy:
            evaluations = len(heap)
            heap = [(-evaluator.gain(node), idx, node) for _, idx, node in heap]
            heapq.heapify(heap)
        else:
            evaluations = min(cfg.T, len(heap))
            for _, idx, node in [heapq.heappop(heap) for _ in range(evaluations)]:
                heapq.heappush(heap, (-evaluator.gain(node), idx, node))
        key, _, node = heapq.heappop(heap)
        gain = evaluator.select(node)
        selected.append(node)
        gains.append(gain)
        coverage = prior + gain
        coverages.append(coverage)
        log.append(GreedyIteration(heavy, evaluations, -key, evaluator.calls - calls))
    return SeedSet(coupled.users_of(selected), gains, coverages, total, len(domain), log, init_calls)


def brute_force_optimal(network, beta, hops):
    """Smallest seed set reaching the beta fraction under direct
    multiplex diffusion, by exhaustive search.

    Subsets are enumerated in increasing cardinality (lexicographic
    within each cardinality over sorted user ids), so the first feasible
    subset found has provably minimum size.  Checks beta and ``hops`` as
    GreedyConfig does, and refuses universes over ``BRUTE_FORCE_MAX_USERS``.
    Like a greedy run's, the record logs the coverage of each prefix of
    the subset, out of a total of the user count.
    """
    require_beta(beta)
    require_count("hops", hops)
    users = network.users
    n = len(users)
    if n > BRUTE_FORCE_MAX_USERS:
        raise ValueError(f"universe of {n} users exceeds the brute-force cap {BRUTE_FORCE_MAX_USERS}")
    for size in range(n + 1):
        for combo in itertools.combinations(users, size):
            outcome = multiplex_lt_propagate(network, set(combo), hops)
            if meets_fraction(outcome.coverage_count, beta, n):
                coverages = [multiplex_lt_propagate(network, set(combo[:i]), hops).coverage_count
                             for i in range(1, size + 1)]
                gains = [cov - prior for prior, cov in zip([0.0] + coverages, coverages)]
                return SeedSet(list(combo), gains, coverages, float(n))
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
    incoming = graph.in_edges
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
