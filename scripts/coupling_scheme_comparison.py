#!/usr/bin/env python3
"""Compare every coupling scheme on one synthesized instance family.

For each scheme, solve the same instances over a beta sweep and report
seed size, wall time, and the replayed coverage fraction.  Lossless
schemes land on identical seed-set sizes (they preserve the diffusion
exactly); the lossy ones trade a few extra seeds for far smaller
coupled graphs.

The betas of one scheme and repetition share one coupling and one
greedy run, so "mean ms" averages rows whose wall time is that shared
time plus the row's own replay: it is the cost of one beta, with the
shared work counted in full for each.
"""

import argparse
import os
import sys

from muxlci.experiment import ExperimentSpec, run_experiment, write_rows_csv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/scheme_comparison.csv")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--universe", type=int, default=90)
    parser.add_argument("--layer-size", type=int, default=50, dest="layer_size")
    parser.add_argument("--edge-prob", type=float, default=0.05, dest="edge_prob")
    parser.add_argument("--overlap", type=float, default=0.3)
    args = parser.parse_args(argv)

    spec = ExperimentSpec(
        schemes=[
            "clique", "star", "reduced-clique", "reduced-star",
            "lossy-easiness", "lossy-involvement", "lossy-average",
        ],
        betas=[0.2, 0.4, 0.6, 0.8],
        hops=4,
        repetitions=args.repetitions,
        base_seed=args.seed,
        synth={
            "universe_size": args.universe,
            "layer_size": args.layer_size,
            "edge_prob": args.edge_prob,
            "k": 2,
            "overlap_fraction": args.overlap,
        },
    )
    rows = run_experiment(spec)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    write_rows_csv(rows, args.out, spec=spec)

    by_scheme = {}
    for row in rows:
        if row["status"] == "ok":
            by_scheme.setdefault(row["scheme"], []).append(row)
    print(f"{'scheme':18} {'mean seeds':>10} {'mean ms':>9} {'mean replay':>12}")
    for scheme, cells in sorted(by_scheme.items()):
        seeds = sum(c["seed_size"] for c in cells) / len(cells)
        ms = sum(c["wall_time_ms"] for c in cells) / len(cells)
        frac = sum(c["replayed_fraction"] for c in cells) / len(cells)
        print(f"{scheme:18} {seeds:10.2f} {ms:9.1f} {frac:12.3f}")
    print(f"rows -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
