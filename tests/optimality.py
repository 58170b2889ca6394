"""Exact seed-count optima for the two-disjoint-layer instance family.

The small optimality-study family partitions its user base into two
layers, so the least-cost seeding problem decomposes: the optimum for
any coverage target is the cheapest split of the budget between the
layers, combining per-layer maximum-coverage curves.  Each curve entry
g_i(s) (max users of layer i activatable with s seeds in d hops) is
exact: for s <= ENUMERATION_MAX_BUDGET it is the best of lt_propagate
over every s-subset of the layer's 50 nodes, which is far faster than
the MILP at small budgets, where HiGHS struggles most; larger budgets
come from an exact MILP solve.  One pair of curves per hop budget serves
every beta at once.
"""

from itertools import combinations

from muxlci import couple, lt_propagate
from muxlci.experiment import single_layer_network

from lp_solve import max_coverage

ENUMERATION_MAX_BUDGET = 4


def layer_graphs(network):
    """Single-layer graphs equivalent to direct per-layer diffusion."""
    assert not network.overlap, "decomposition needs disjoint layers"
    return [
        couple(single_layer_network(layer), "lossy-average").graph
        for layer in network.layers
    ]


def enumerated_coverage(graph, hops, budget):
    """Exact maximum number of nodes activatable with ``budget`` seeds,
    by running every seed set of that size."""
    return max(int(lt_propagate(graph, combo, hops).coverage_count)
               for combo in combinations(graph.node_ids, budget))


def coverage_curves_until(graphs, hops, target, time_limit=300):
    """Extend per-layer max-coverage curves until some budget split
    reaches ``target`` total coverage; returns (curves, best_per_total).

    best_per_total[s] is the best combined coverage using s seeds.
    """
    curves = [[0] for _ in graphs]
    sizes = [len(g) for g in graphs]

    def extend(li, budget):
        curve = curves[li]
        while len(curve) <= budget:
            s = len(curve)
            if curve[-1] >= sizes[li]:
                curve.append(curve[-1])
            elif s <= ENUMERATION_MAX_BUDGET:
                curve.append(enumerated_coverage(graphs[li], hops, s))
            else:
                curve.append(max_coverage(graphs[li], hops, s, time_limit))
        return curve[budget]

    best_per_total = [sum(curve[0] for curve in curves)]
    total = 0
    while best_per_total[-1] < target:
        total += 1
        best = 0
        for s1 in range(total + 1):
            combined = extend(0, s1) + extend(1, total - s1)
            if combined > best:
                best = combined
        best_per_total.append(best)
    return curves, best_per_total


def optimum_for_targets(network, hops, targets, time_limit=300):
    """Exact minimum seed counts for several coverage targets (user
    counts) at one hop budget.  Returns {target: optimum}."""
    graphs = layer_graphs(network)
    _, best = coverage_curves_until(graphs, hops, max(targets), time_limit)
    optima = {}
    for target in targets:
        optima[target] = next(s for s, cov in enumerate(best) if cov >= target)
    return optima
