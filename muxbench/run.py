"""Benchmark runner for muxlci.

    python3 muxbench/run.py --workload lt-greedy --seed 7 --seconds 12 --trace 0

Builds the workload's inputs from ``--seed`` (several times, to time the
set-up), runs the op list a fixed number of passes that filled about
``--seconds`` seconds on the commit the benchmark was tuned on (at least
two passes; each op is timed by its median pass), checks every op's
output (against the recorded reference and against properties that any
correct run has), and prints two JSON lines: a report with provenance,
every metric and every problem found, and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``.

A workload with a recorded reference builds its inputs from the recorded
seed ``--seed`` mod (number of recorded seeds), so every run is checked
against a recording.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes and holds the
per-layer metrics, taken from spans recorded around the package's
module boundaries (see spans.py), plus the tracing overhead.

The package is imported from ``src/`` next to this directory; without it
the runner exits with code 2.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
from spans import Tracer, layer_metrics, unit_of
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_MIN_S = 0.25
SETUP_MAX_REPEATS = 1000
MIN_PASSES = 2
CALIBRATE_EVERY_S = 0.1
MAX_PROBLEMS_SHOWN = 20


def import_package():
    src = ROOT / "src"
    if not (src / "muxlci" / "__init__.py").is_file():
        print(f"error: no muxlci package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import muxlci
    import muxlci.cli  # noqa: F401  (the CLI module is not imported by the package)
    return muxlci


def provenance(mx, workload, seed, input_seed):
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload.name,
        "seed": seed,
        "input_seed": input_seed,
        "params": workload.params,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "muxlci": mx.__version__,
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def load_reference(workload):
    """[{op name: digest}] for recorded seeds 0, 1, ..., or None for a workload without one."""
    path = HERE / "reference" / f"{workload.name}.json"
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    if data["params"] != json.loads(json.dumps(workload.params)):
        raise SystemExit(f"error: {path} was recorded for other workload sizes; re-record it")
    seeds = data["seeds"]
    if sorted(seeds, key=int) != [str(i) for i in range(len(seeds))]:
        raise SystemExit(f"error: {path} must record seeds 0 to n-1")
    return [seeds[str(i)] for i in range(len(seeds))]


def digest(record):
    """Short stable digest of an op record; the reference files hold these."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def calibrate_if_due(calibrations, force=False):
    """Append (time, kernel seconds) when CALIBRATE_EVERY_S has passed since the last calibration."""
    now = time.perf_counter()
    if force or now - calibrations[-1][0] >= CALIBRATE_EVERY_S:
        calibrations.append((now, calibrate.measure()))


def to_reference(spans, calibrations):
    """{name: reference seconds} of raw {name: (start, end)} spans.

    Each span is scaled by the mean of the calibration just before it
    started and the one just after it ended: the host's speed changes
    from second to second, so only calibrations next to the span tell
    its speed, and a median would drop the slow moments the span also
    ran through.
    """
    ats = [at for at, _ in calibrations]
    times = {}
    for name, (start, end) in spans.items():
        before = calibrations[bisect.bisect_right(ats, start) - 1][1]
        after = calibrations[bisect.bisect_left(ats, end)][1]
        times[name] = (end - start) * calibrate.REFERENCE_S / ((before + after) / 2)
    return times


def run_pass(ops):
    """Run the op list once.

    Returns ({name: output}, {name: reference seconds}, {name: raw seconds},
    {name: error}).  The calibration kernel runs before the first op,
    after an op once CALIBRATE_EVERY_S seconds have passed since it last
    ran, and after the last op.
    """
    outputs, errors, spans = {}, {}, {}
    calibrations = [(time.perf_counter(), calibrate.measure())]
    for name, thunk in ops:
        start = time.perf_counter()
        try:
            outputs[name] = thunk()
        except Exception as exc:  # an op that raises is a failed op, the run goes on
            errors[name] = f"{type(exc).__name__}: {exc}"
        spans[name] = (start, time.perf_counter())
        calibrate_if_due(calibrations)
    calibrate_if_due(calibrations, force=True)
    raw = {name: end - start for name, (start, end) in spans.items()}
    return outputs, to_reference(spans, calibrations), raw, errors


def timed_setups(workload, seed, workdir):
    """(state, [reference seconds], [raw seconds]) of repeated set-ups, each from an empty work directory.

    Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S seconds
    are spent in it, so that a set-up of a millisecond is timed as often
    as it takes to give a steady median.  It is calibrated like an op list.
    """
    spans = []
    calibrations = [(time.perf_counter(), calibrate.measure())]
    while len(spans) < SETUP_REPEATS or (
            sum(end - start for start, end in spans) < SETUP_MIN_S and len(spans) < SETUP_MAX_REPEATS):
        if os.path.isdir(workdir):
            shutil.rmtree(workdir)
        os.makedirs(workdir)
        start = time.perf_counter()
        state = workload.setup(seed, workdir)
        spans.append((start, time.perf_counter()))
        calibrate_if_due(calibrations)
    calibrate_if_due(calibrations, force=True)
    times = to_reference(dict(enumerate(spans)), calibrations)
    return state, [times[i] for i in range(len(spans))], [end - start for start, end in spans]


def check_pass(workload, state, ops, outputs, errors, reference):
    """Per-op problems and the total number of seeds in this pass."""
    checked = workload.check(state, outputs)
    problems, seeds_total = {}, 0
    for name, _ in ops:
        if name in errors:
            problems[name] = [errors[name]]
            continue
        if name not in checked:
            problems[name] = ["no check ran"]
            continue
        found, record, seeds = checked[name]
        found = list(found)
        if reference is not None and record is not None:
            if name not in reference:
                found.append("no reference entry")
            elif digest(record) != reference[name]:
                found.append("differs from the reference")
        if found:
            problems[name] = found
        seeds_total += seeds
    return problems, seeds_total


def pass_count(workload, seconds, trace):
    """Passes that fill about ``seconds`` at the workload's PASS_S, whatever the speed of the code.

    The count does not depend on a clock, so two commits compared are
    measured over the same number of passes.  With tracing, each round
    is an untraced and a traced pass.
    """
    if trace:
        return max(1, round(seconds / (2 * workload.PASS_S)))
    return max(MIN_PASSES, round(seconds / workload.PASS_S))


def measure(workload, seed, seconds, trace, workdir, mx, reference):
    state, setup_times, setup_raw = timed_setups(workload, seed, workdir)
    ops = workload.ops(state)

    plain, plain_raw, traced, layer_runs, problems = [], [], [], [], {}
    extra_problems = []
    for _ in range(pass_count(workload, seconds, trace)):
        outputs, times, raw, errors = run_pass(ops)
        plain.append(times)
        plain_raw.append(raw)
        found, seeds_total = check_pass(workload, state, ops, outputs, errors, reference)
        problems.update(found)
        if trace:
            tracer = Tracer(mx)
            tracer.install()
            try:
                t_state = workload.setup(seed, workdir)
                t_ops = workload.ops(t_state)
                t_outputs, t_times, t_raw, t_errors = run_pass(t_ops)
            finally:
                tracer.restore()
            found, _ = check_pass(workload, t_state, t_ops, t_outputs, t_errors, reference)
            problems.update({f"traced {name}": p for name, p in found.items()})
            traced.append((t_times, t_raw))
            metrics, self_check = layer_metrics(tracer.spans)
            layer_runs.append(metrics)
            extra_problems += self_check
            del tracer

    # calibrated times scatter both ways around the op's cost, so each op
    # counts its median pass; a minimum would pick out calibration noise
    per_op = [statistics.median(t[name] for t in plain) for name, _ in ops]
    wall = [sum(t.values()) for t in plain]
    report = {
        "ops": len(ops),
        "passes": len(plain),
        "reference": "checked" if reference is not None else "none recorded (stochastic ops)",
        "setup_runs": len(setup_times),
        "setup_raw_s_median": statistics.median(setup_raw),
        "wall_s_all": wall,
        "wall_raw_s_all": [sum(t.values()) for t in plain_raw],
    }
    e2e = {
        "wall_s": (sum(per_op), "s"),
        "op_s_p50": (statistics.median(per_op), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "seeds_total": (seeds_total, "count"),
    }
    failed_ops = {name for name in problems if not name.startswith("traced ")}
    e2e_failed = len(failed_ops)
    report["fail_ratio"] = e2e_failed / len(ops)
    if not trace:
        return e2e, report, problems, extra_problems, len(ops), e2e_failed

    layers = {}
    for key in layer_runs[0]:
        values = [run[key] for run in layer_runs]
        if unit_of(key) != "count":
            layers[key] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                extra_problems.append(f"count {key} differs between traced passes: {values}")
            layers[key] = values[0]
    traced_wall = statistics.median(sum(t.values()) for t, _ in traced)
    layers["trace.overhead_ratio"] = traced_wall / statistics.median(wall)
    # span times are raw seconds, so shares of the wall use the raw traced wall
    traced_raw = statistics.median(sum(r.values()) for _, r in traced)
    report["traced_wall_s_all"] = [sum(t.values()) for t, _ in traced]
    report["traced_wall_raw_s_all"] = [sum(r.values()) for _, r in traced]
    report["end_to_end"] = {key: value for key, (value, _) in e2e.items()}
    report["attribution"] = {
        "lt_share_of_greedy": layers["diffusion.lt_s"] / layers["solver.greedy_s"] if layers["solver.greedy_s"] else None,
        "couple_share_of_wall": layers["coupling.couple_s"] / traced_raw,
    }
    traced_failed = sum(1 for name in problems if name.startswith("traced "))
    metrics = {key: (value, unit_of(key)) for key, value in layers.items()}
    return metrics, report, problems, extra_problems, 2 * len(ops), e2e_failed + traced_failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    mx = import_package()
    workload = WORKLOADS[args.workload](mx)
    references = load_reference(workload)
    input_seed = args.seed % len(references) if references else args.seed
    reference = references[input_seed] if references else None
    workdir = str(ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        metrics, report, problems, extra, attempted, failed = measure(
            workload, input_seed, args.seconds, args.trace, workdir, mx, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    shown = sorted(problems.items())[:MAX_PROBLEMS_SHOWN]
    report.update({
        "provenance": provenance(mx, workload, args.seed, input_seed),
        "trace": args.trace,
        "problems": {name: found for name, found in shown},
        "self_check_problems": extra,
        "metrics": {key: value for key, (value, _) in metrics.items()},
    })
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": failed == 0 and not extra,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
