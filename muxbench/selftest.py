"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 muxbench/selftest.py

Checks that every workload runs and passes its checks, that every metric
named in BENCHMARK.json is emitted with its unit (and nothing else is),
that tracing leaves every wrapped binding as it found it, that the
reference check accepts an lt-greedy record and rejects a copy of it
with a perturbed seed list, that every recorded reference matches the
workload's sizes, and that the runner refuses to run, without printing
a result, where the package sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
from spans import bindings

TINY = {
    "lt-greedy": {"networks": 2, "universe": 40, "layer_size": 25},
    "mc-greedy": {"networks": 1, "universe": 32, "layer_size": 20, "mc_samples": 5},
    "couple-simulate": {"universe": 64, "layer_size": 24, "seed_sizes": [2, 4]},
    "sweep": {"sweeps": 1, "universe_size": 32, "layer_size": 20, "repetitions": 1},
}


def check_metrics(metrics, declared, label, failures):
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    wanted = {entry["name"]: entry["unit"] for entry in declared}
    if emitted != wanted:
        missing = sorted(set(wanted) - set(emitted))
        extra = sorted(set(emitted) - set(wanted))
        wrong = sorted(n for n in set(wanted) & set(emitted) if wanted[n] != emitted[n])
        failures.append(f"{label}: missing {missing}, undeclared {extra}, wrong unit {wrong}")


def bindings_snapshot(mx):
    return {(module.__name__, attr): getattr(module, attr) for module, attr, _, _ in bindings(mx)}


def run_workloads(mx, bench, failures):
    before = bindings_snapshot(mx)
    for name in TINY:
        workload = tiny(mx, name)
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            workdir = str(run.ROOT / ".bench_work" / f"selftest-{name}-{os.getpid()}")
            try:
                metrics, report, problems, extra, attempted, failed = run.measure(
                    workload, 0, 0, trace, workdir, mx, None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            label = f"{name} --trace {trace}"
            if failed or extra or not attempted:
                failures.append(f"{label}: {failed} of {attempted} ops failed: {problems} {extra}")
            check_metrics(metrics, declared, label, failures)
            print(f"ok  {label}: {attempted} ops, {len(metrics)} metrics", flush=True)
    if bindings_snapshot(mx) != before:
        failures.append("tracing left a wrapped binding in place")


def tiny(mx, name):
    workload = run.WORKLOADS[name](mx)
    workload.params = {**workload.params, **TINY[name]}
    return workload


def check_reference_rejects_perturbation(mx, failures):
    workload = tiny(mx, "lt-greedy")
    workdir = str(run.ROOT / ".bench_work" / f"selftest-reference-{os.getpid()}")
    os.makedirs(workdir)
    try:
        state = workload.setup(0, workdir)
        ops = workload.ops(state)
        outputs, _, _, errors = run.run_pass(ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    op, _ = ops[0]
    record = workload.check(state, outputs)[op][1]
    reference = {op: run.digest(record)}
    if run.check_pass(workload, state, ops[:1], outputs, errors, reference)[0]:
        failures.append(f"reference check rejects the recorded {op} itself")
    scheme, solve = next(iter(record.items()))
    seeds = list(reversed(solve["seeds"])) if len(solve["seeds"]) > 1 else solve["seeds"] + ["u0"]
    perturbed = {**outputs, op: {**outputs[op], scheme: {**outputs[op][scheme], "seed_users": seeds}}}
    problems = run.check_pass(workload, state, ops[:1], perturbed, errors, reference)[0]
    if "differs from the reference" not in problems.get(op, []):
        failures.append(f"reference check accepts a perturbed seed list for {op}: {problems}")
    else:
        print(f"ok  reference check rejects a perturbed seed list ({op}, {scheme})", flush=True)


def check_references_load(mx, failures):
    for name in run.WORKLOADS:
        try:
            run.load_reference(run.WORKLOADS[name](mx))
        except SystemExit as exc:
            failures.append(str(exc))


def check_refuses_without_sources(failures):
    bare = run.ROOT / ".bench_work" / f"selftest-bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "lt-greedy",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"runner without sources exited {proc.returncode} with output {proc.stdout!r}")
    else:
        print(f"ok  runner without sources exits {proc.returncode} and prints no result", flush=True)


def main():
    mx = run.import_package()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    run_workloads(mx, bench, failures)
    check_reference_rejects_perturbation(mx, failures)
    check_references_load(mx, failures)
    check_refuses_without_sources(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
