#!/usr/bin/env python3
"""Regenerate the three seed-selection trend studies at desk scale.

Writes one CSV per study into --out (default: results/):

  union_vs_coupled.csv   pooled per-layer solutions vs clique coupling
  layer_count_sweep.csv  seed size as the layer count grows 2..5
  overlap_bias.csv       overlap share among seeds vs population share

Each table is the full cross-product of scheme x beta x repetition with
per-layer composition metrics; rerunning with the same --seed reproduces
it byte for byte.
"""

import argparse
import os
import sys

from muxlci.experiment import ExperimentSpec, run_experiment, write_rows_csv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--repetitions", type=int, default=10)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    studies = {
        "union_vs_coupled.csv": ExperimentSpec(
            schemes=["clique", "union", "only:1", "only:2"],
            betas=[0.5],
            hops=3,
            repetitions=args.repetitions,
            base_seed=args.seed,
            synth={"universe_size": 50, "layer_size": 30, "edge_prob": 0.12,
                   "k": 2, "overlap_fraction": 0.5},
        ),
        "layer_count_sweep.csv": ExperimentSpec(
            schemes=["clique"],
            betas=[0.6],
            hops=4,
            repetitions=args.repetitions,
            base_seed=args.seed + 1,
            synth={"universe_size": 120, "layer_size": 60, "edge_prob": 0.03},
            k_values=[2, 3, 4, 5],
            beta_of_base=True,
        ),
        "overlap_bias.csv": ExperimentSpec(
            schemes=["clique"],
            betas=[0.3, 0.4, 0.5],
            hops=2,
            repetitions=args.repetitions,
            base_seed=args.seed + 2,
            synth={"universe_size": 100, "layer_size": 50, "edge_prob": 0.04,
                   "k": 2, "overlap_fraction": 0.2},
        ),
    }
    for name, spec in studies.items():
        rows = run_experiment(spec)
        path = os.path.join(args.out, name)
        write_rows_csv(rows, path, spec=spec)
        failed = sum(1 for row in rows if row["status"] != "ok")
        print(f"{name}: {len(rows)} cells ({failed} failed) -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
