"""Record the reference outputs that run.py checks deterministic ops against.

    python3 muxbench/record.py --workload lt-greedy --seeds 0-49

Runs the workload's op list once per seed on the current code, refuses to
record a seed whose outputs fail any property check, and merges the result
into ``muxbench/reference/<workload>.json`` as a 16-hex-digit digest of
every op's record (seed lists, gains, coupled sizes, or coverage counts;
see ``check`` in workloads.py).  Record seeds 0 to n-1: run.py maps any
``--seed`` onto one of them.  Stochastic ops (mc-greedy) record nothing.

Re-record only when a workload's sizes change, never to make a failing
check pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def seed_range(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record_seed(workload, seed, workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        state = workload.setup(seed, workdir)
        ops = workload.ops(state)
        outputs, _, _, errors = run.run_pass(ops)
        problems, _ = run.check_pass(workload, state, ops, outputs, errors, None)
        if problems:
            raise SystemExit(f"error: seed {seed} fails its checks, not recording: {problems}")
        checked = workload.check(state, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    entry = {}
    for name, _ in ops:
        record = checked[name][1]
        if record is None:
            return None
        entry[name] = run.digest(record)
    return entry


def write_reference(path, params, seeds):
    lines = ["{", f'"params": {json.dumps(params, sort_keys=True)},', '"seeds": {']
    items = sorted(seeds.items(), key=lambda item: int(item[0]))
    for i, (seed, entry) in enumerate(items):
        comma = "," if i + 1 < len(items) else ""
        lines.append(f"{json.dumps(seed)}: {json.dumps(entry, separators=(',', ':'))}{comma}")
    lines += ["}", "}"]
    path.write_text("\n".join(lines) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-99 or 1,5,9-12")
    args = parser.parse_args(argv)
    mx = run.import_package()
    workload = run.WORKLOADS[args.workload](mx)
    path = run.HERE / "reference" / f"{workload.name}.json"
    params = json.loads(json.dumps(workload.params))
    seeds = {}
    if path.is_file():
        data = json.loads(path.read_text())
        if data["params"] == params:
            seeds = data["seeds"]
    workdir = str(run.ROOT / ".bench_work" / f"record-{workload.name}-{os.getpid()}")
    for seed in seed_range(args.seeds):
        entry = record_seed(workload, seed, workdir)
        if entry is None:
            raise SystemExit(f"error: {workload.name} has stochastic ops; nothing to record")
        seeds[str(seed)] = entry
        path.parent.mkdir(exist_ok=True)
        write_reference(path, params, seeds)
        print(f"{workload.name} seed {seed}: {len(entry)} ops", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
