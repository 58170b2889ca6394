#!/usr/bin/env python3
"""Greedy-vs-optimal seed counts on brute-force-sized instances.

Generates small two-layer networks (universe <= 20 so the exhaustive
oracle stays fast), solves each with the lazy greedy on a clique
coupling, and compares against the provably minimum seed count across a
beta x hops grid.  Prints the gap table and writes the rows as CSV.
"""

import argparse
import csv
import os
import sys
import time

from muxlci import (
    GreedyConfig,
    SynthSpec,
    brute_force_optimal,
    couple,
    generate,
    improved_greedy,
    subseed,
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/optimality_gaps.csv")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--instances", type=int, default=5)
    parser.add_argument("--universe", type=int, default=18)
    parser.add_argument("--layer-size", type=int, default=12, dest="layer_size")
    parser.add_argument("--edge-prob", type=float, default=0.12, dest="edge_prob")
    args = parser.parse_args(argv)

    betas = [0.3, 0.5, 0.7]
    hop_values = [2, 3, 4]
    rows = []
    worst = 0
    for instance in range(args.instances):
        recipe = SynthSpec(
            args.universe,
            [(args.layer_size, args.edge_prob)] * 2,
            None,
            subseed(args.seed, f"instance/{instance}"),
        )
        network = generate(recipe)
        coupled = couple(network, "clique")
        for hops in hop_values:
            for beta in betas:
                started = time.perf_counter()
                greedy = improved_greedy(coupled, GreedyConfig(beta, hops))
                optimum = brute_force_optimal(network, beta, hops)
                gap = len(greedy.users) - len(optimum.users)
                worst = max(worst, gap)
                rows.append({
                    "instance": instance,
                    "beta": beta,
                    "hops": hops,
                    "greedy": len(greedy.users),
                    "optimal": len(optimum.users),
                    "gap": gap,
                    "wall_time_ms": round((time.perf_counter() - started) * 1000, 1),
                })

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)

    print(f"{'instance':>8} {'beta':>5} {'hops':>5} {'greedy':>7} {'optimal':>8} {'gap':>4}")
    for row in rows:
        print(f"{row['instance']:>8} {row['beta']:>5} {row['hops']:>5} "
              f"{row['greedy']:>7} {row['optimal']:>8} {row['gap']:>4}")
    print(f"worst gap: +{worst}; rows -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
