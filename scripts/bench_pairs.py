#!/usr/bin/env python3
"""Compare two commits on the benchmark in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --seeds 51-60 --traced-seed 17 --out BENCH_8.json \\
        --what "what the change does" --claim "what it should show"

Both sides are built the same way: ``git archive`` of each revision
(a commit, or any tree, for example the ``git write-tree`` of the
index) is unpacked into its own temporary directory, with no ``.git``.
A plain copy and a clone of one commit measure a few percent apart, so
the two sides must not be made differently.

For every workload and seed the two sides run ``muxbench/run.py`` one
process at a time, the parent first on odd seeds and the change first
on even ones, each for the ``run_seconds`` of the change's
``BENCHMARK.json``, and each run prints a progress line with every
end-to-end metric that file names.  With ``--traced-seed`` each side
also makes one ``--trace 1`` run of every workload in ``--workloads``,
and the record keeps the ``TRACED_METRICS`` of each, the time metrics
(``_s``) both in raw seconds and as shares of the run's traced wall (see
``traced_metrics``).  The record written to
``--out`` holds every run's report and result lines and, per workload
and end-to-end metric (from the change's ``BENCHMARK.json``), the two
medians, the parent's quartiles (``statistics.quantiles``, exclusive
method), the number of pairs in which the change was lower and in
which the two were equal, the median and quartiles of the per-seed
change/parent ratios and half their quartile distance, and a verdict
(see ``compare``).  Quartiles need at least two seeds, so ``--seeds``
must name two or more distinct seeds; anything else is rejected before
either side is unpacked.

``--parent X --change X`` unpacks one revision twice: an A/A run.  Its
record is marked ``"aa": true``, and each metric also reports the ratio
median as its ``side_bias``, ``biased`` when that lies further from 1
than the ratios' half quartile distance (see ``calibrate``).  Any other
run reads the committed A/A record ``BENCH_AA.json`` at the root of
``--repo`` when there is one, and every metric of a workload that record
measured gains a ``paired`` verdict beside the existing one (see
``paired_verdict``).  Re-recording the A/A record overwrites it::

    python3 scripts/bench_pairs.py --parent X --change X --seeds 1-8 --out BENCH_AA.json
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

AA_RECORD = "BENCH_AA.json"
WORKLOADS = ("sweep", "lt-greedy", "mc-greedy", "couple-simulate")
TRACED_METRICS = (
    "solver.evals", "solver.selections", "solver.greedy_s", "coupling.couple_s",
    "coupling.read_s", "coupling.write_s", "network.load_s", "network.validate_s",
    "diffusion.lt_calls", "diffusion.lt_s", "diffusion.mc_calls", "diffusion.mc_samples", "diffusion.mc_s",
    "diffusion.replay_calls", "diffusion.replay_s",
    "experiment.baseline_s", "experiment.composition_s", "experiment.cells", "cli.calls", "cli.self_s",
)


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True).stdout


def unpack(repo, rev, into):
    """Unpack ``git archive rev`` into the directory ``into``."""
    data = git(repo, "archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        archive.extractall(into, filter="data")


def parse_seeds(text):
    """The seeds of ``--seeds``: comma-separated seeds and LOW-HIGH ranges,
    at least two and none twice."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        try:
            low, high = int(low), int(high or low)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part!r} is neither a seed nor a range LOW-HIGH") from None
        if high < low:
            raise argparse.ArgumentTypeError(f"range {part!r} runs backwards")
        seeds.extend(range(low, high + 1))
    if len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"{text!r} names a seed twice")
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} names one seed; the parent's quartiles need two or more")
    return seeds


def run_once(tree, workload, seed, seconds, trace):
    """One runner process; returns its (report line, result line)."""
    command = [sys.executable, "muxbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(command)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[0]), json.loads(lines[-1])


def traced_metrics(report):
    """The ``TRACED_METRICS`` of one traced run's report, and each time
    metric's share of the median of the report's ``traced_wall_raw_s_all``.

    Span times and that wall are both raw seconds, so a host that runs
    the whole pass slower leaves each share as it is, and the shares of
    a parent and a change run compare where their raw seconds carry the
    host's speed at the time of each run.
    """
    layer = report["metrics"]
    wall = statistics.median(report["traced_wall_raw_s_all"])
    values = {name: layer[name] for name in TRACED_METRICS}
    shares = {name: layer[name] / wall for name in TRACED_METRICS if name.endswith("_s")}
    return values, shares


def compare(runs, metric, bound, margin=None):
    """Medians, parent quartiles, pair counts, paired ratios and verdict
    of one lower-is-better metric whose relative bound is ``bound``, and
    with ``margin``, an A/A record's ``(half spread, pairs, biased)`` of
    the metric, its paired verdict.

    The verdict is "gain" when the change is lower in at least 9 of 10
    pairs and its median is below the parent's by more than the parent's
    quartile distance; "worse" when its median exceeds the parent's by
    more than ``bound`` of it; "unresolved" when the parent's quartile
    distance exceeds ``bound`` of the parent's median, unless every
    change run is below every parent run; and "within bound" otherwise.

    Beside the verdict, and without changing it, stand the median and
    quartiles of the change/parent ratio of each seed's pair: each seed
    runs the same inputs on both sides, so the ratios carry less of the
    spread between seeds than the two sides' medians do.  Half their
    quartile distance is the margin an A/A record's ratios set.
    """
    parent = {run["seed"]: run["result"]["metrics"][metric]["value"] for run in runs if run["side"] == "parent"}
    change = {run["seed"]: run["result"]["metrics"][metric]["value"] for run in runs if run["side"] == "change"}
    low, _, high = statistics.quantiles(parent.values(), n=4)
    parent_median, change_median = statistics.median(parent.values()), statistics.median(change.values())
    lower = sum(change[seed] < parent[seed] for seed in parent)
    ratios = [change[seed] / parent[seed] for seed in parent]
    ratio_low, _, ratio_high = statistics.quantiles(ratios, n=4)
    if 10 * lower >= 9 * len(parent) and parent_median - change_median > high - low:
        verdict = "gain"
    elif change_median > (1 + bound) * parent_median:
        verdict = "worse"
    elif high - low > bound * parent_median and max(change.values()) >= min(parent.values()):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    stats = {
        "parent_median": parent_median,
        "change_median": change_median,
        "parent_quartiles": [low, high],
        "change_lower_pairs": lower,
        "equal_pairs": sum(change[seed] == parent[seed] for seed in parent),
        "ratio_median": statistics.median(ratios),
        "ratio_quartiles": [ratio_low, ratio_high],
        "ratio_half_spread": (ratio_high - ratio_low) / 2,
        "verdict": verdict,
    }
    if margin is not None:
        stats["paired"] = paired_verdict((ratio_low, ratio_high), len(ratios), *margin)
    return stats


def paired_verdict(quartiles, pairs, half_spread, aa_pairs, biased):
    """The paired verdict of the ``quartiles`` of ``pairs`` change/parent
    ratios against an A/A record's ``half_spread`` of the same metric,
    measured on ``aa_pairs`` pairs: "gain" when the upper quartile is
    below 1 - half_spread, "loss" when the lower quartile is above
    1 + half_spread, and "tie" otherwise.  When the A/A record read the
    metric ``biased``, its two identical sides already differ by more
    than the margin, so the verdict is "unresolved (biased A/A)"."""
    low, high = quartiles
    if biased:
        verdict = "unresolved (biased A/A)"
    elif high < 1 - half_spread:
        verdict = "gain"
    elif low > 1 + half_spread:
        verdict = "loss"
    else:
        verdict = "tie"
    return {"verdict": verdict, "pairs": pairs, "margin": half_spread, "aa_pairs": aa_pairs}


def calibrate(stats):
    """The side bias of one metric of an A/A run, whose two sides run
    the same code: the ratio median, ``biased`` when it lies further
    from 1 than the ratios' half quartile distance."""
    bias = stats["ratio_median"]
    return {"side_bias": bias, "biased": abs(bias - 1) > stats["ratio_half_spread"]}


def aa_margins(record):
    """Per workload and metric, the ``(ratio half spread, pairs, biased)``
    of an A/A record; raise SystemExit unless ``record`` is one."""
    if not record.get("aa"):
        raise SystemExit(f"{AA_RECORD} must be a record whose two sides ran one revision")
    return {
        workload: {metric: (stats["ratio_half_spread"], len(entry["seeds"]), stats["biased"])
                   for metric, stats in entry.items() if isinstance(stats, dict) and "ratio_half_spread" in stats}
        for workload, entry in record["summary"].items() if "seeds" in entry
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repo", default=Path(__file__).resolve().parent.parent, type=Path)
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", default="HEAD", help="revision or tree of the change side")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("51-60"), help="e.g. 51-60 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--what", default="")
    parser.add_argument("--claim", default="")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workdir", default=None, help="where to unpack both sides (default: system temp)")
    args = parser.parse_args(argv)

    parent_commit = git(args.repo, "rev-parse", args.parent).decode().strip()
    change_rev = git(args.repo, "rev-parse", args.change).decode().strip()
    aa = parent_commit == change_rev
    aa_record = args.repo / AA_RECORD
    margins = {} if aa or not aa_record.exists() else aa_margins(json.loads(aa_record.read_text(encoding="utf-8")))
    with tempfile.TemporaryDirectory(prefix="bench_pairs_", dir=args.workdir) as scratch:
        trees = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        unpack(args.repo, parent_commit, trees["parent"])
        unpack(args.repo, change_rev, trees["change"])
        benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seconds = benchmark["run_seconds"]
        bounds = {entry["name"]: entry["bound"] for entry in benchmark["end_to_end"]}
        if any(entry["better"] != "lower" for entry in benchmark["end_to_end"]):
            raise SystemExit("every end-to-end metric must be lower-is-better for its verdict")
        metrics = list(bounds)

        runs, summary, host = [], {}, None
        for workload in args.workloads.split(","):
            for seed in args.seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    report, result = run_once(trees[side], workload, seed, seconds, 0)
                    runs.append({"workload": workload, "seed": seed, "side": side, "trace": 0,
                                 "report": report, "result": result})
                    host = host or report["report"]["provenance"]
                    values = " ".join(f"{metric} {result['metrics'][metric]['value']:.4g}" for metric in metrics)
                    print(f"{workload} seed {seed} {side}: {values}", file=sys.stderr)
            mine = [run for run in runs if run["workload"] == workload]
            summary[workload] = {"seeds": list(args.seeds), "all_correct": all(run["result"]["correct"] for run in mine)}
            for metric in metrics:
                stats = compare(mine, metric, bounds[metric], margins.get(workload, {}).get(metric))
                summary[workload][metric] = {**stats, **calibrate(stats)} if aa else stats
        for workload in args.workloads.split(",") if args.traced_seed is not None else ():
            traced = {"parent": {}, "change": {}, "share_of_traced_wall": {}, "correct": {}}
            for side in ("parent", "change"):
                report, result = run_once(trees[side], workload, args.traced_seed, seconds, 1)
                runs.append({"workload": workload, "seed": args.traced_seed, "side": side,
                             "trace": 1, "report": report, "result": result})
                traced[side], traced["share_of_traced_wall"][side] = traced_metrics(report["report"])
                traced["correct"][side] = result["correct"]
            summary[f"{workload}_traced_seed_{args.traced_seed}"] = traced

    record = {
        "aa": aa,
        "what": args.what,
        "claim": args.claim,
        "command": f"python3 muxbench/run.py --workload W --seed S --seconds {seconds:g} --trace T",
        "parent_commit": parent_commit,
        "change": f"git archive of {args.change} ({change_rev}), run without .git, so its provenance"
                  " reads commit 'unknown'",
        "method": "alternating pairs per seed: parent first on odd seeds, change first on even seeds;"
                  " one process at a time; both sides unpacked by git archive into temporary"
                  " directories (scripts/bench_pairs.py)",
        "host": f"{host['nproc']}-vCPU {host['cpu']}, Python {host['python']}; times in reference"
                " seconds (see muxbench/README.md)",
        "summary": summary,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
