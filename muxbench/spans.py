"""Span tracing from outside the package.

``Tracer.install`` replaces the module attributes through which the
package's layers call each other (for example ``muxlci.solver.lt_propagate``,
the name the solver looks up at call time) with wrappers that record one
span per call: id, parent id, name, start, end and a few counts read from
the arguments and the result.  ``Tracer.restore`` puts every original
binding back and checks that it did, so an untraced run executes the
package's own code.

Counts are computed after a span's end time is taken (up to
``book_end``), so they never inflate the span's own duration.  The
per-layer times subtract the bookkeeping of every descendant span from
an ancestor's duration, and self time counts a child as covering its
interval up to ``book_end``, so bookkeeping shows up in neither; it shows
up only in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field

from workloads import ALL_SCHEMES


@dataclass(slots=True)
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    book_end: float
    attrs: dict = field(default_factory=dict)


def _arg(args, kwargs, position, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _outcome_check(outcome):
    """Per-hop sets are disjoint and add up to the reported coverage."""
    sizes = sum(len(hop) for hop in outcome.active.per_hop)
    return sizes == len(outcome.active.members) == outcome.coverage_count


class _DegreeCache:
    """Out-degree by node id, built once per coupled graph object."""

    def __init__(self):
        self._by_graph = weakref.WeakKeyDictionary()

    def __call__(self, graph):
        degrees = self._by_graph.get(graph)
        if degrees is None:
            degrees = {node: len(graph.out[i]) for i, node in enumerate(graph.node_ids)}
            self._by_graph[graph] = degrees
        return degrees


def _lt_attrs(degrees):
    def attrs(args, kwargs, outcome):
        graph = _arg(args, kwargs, 0, "graph")
        budget = _arg(args, kwargs, 2, "hops")
        deg = degrees(graph)
        last = min(outcome.hops_used, budget - 1)
        relax = 0
        for hop in outcome.active.per_hop[:last + 1]:
            relax += sum(deg[node] for node in hop)
        return {"relax": relax, "consistent": _outcome_check(outcome)}
    return attrs


def _mc_attrs(args, kwargs, outcome):
    return {"samples": _arg(args, kwargs, 3, "model").mc_samples}


def _couple_attrs(args, kwargs, coupled):
    graph = coupled.graph
    return {
        "scheme": _arg(args, kwargs, 1, "scheme"),
        "vertices": len(graph),
        "edges": sum(len(targets) for targets in graph.out),
    }


def _greedy_attrs(args, kwargs, seed_set):
    coupled = _arg(args, kwargs, 0, "coupled")
    cfg = _arg(args, kwargs, 1, "cfg")
    return {
        "domain": len(coupled.user_of),
        "T": cfg.T,
        "R": cfg.R,
        "selections": len(seed_set.users),
    }


def _rows_attrs(args, kwargs, rows):
    return {"cells": len(rows)}


def bindings(muxlci):
    """(module, attribute, span name, count hook) for every wrapped call site."""
    cli, experiment, generator, solver = muxlci.cli, muxlci.experiment, muxlci.generator, muxlci.solver
    degrees = _DegreeCache()
    lt = _lt_attrs(degrees)
    return [
        (generator, "generate", "generator.generate", None),
        (experiment, "generate", "generator.generate", None),
        (cli, "generate", "generator.generate", None),
        (cli, "load_layer_file", "network.load", None),
        (cli, "validate", "network.validate", None),
        (cli, "serialize_layer", "network.write", None),
        (experiment, "couple", "coupling.couple", _couple_attrs),
        (cli, "couple", "coupling.couple", _couple_attrs),
        (cli, "write_coupled", "coupling.write", None),
        (cli, "read_coupled", "coupling.read", None),
        (solver, "lt_propagate", "diffusion.lt", lt),
        (cli, "lt_propagate", "diffusion.lt", lt),
        (solver, "ic_propagate", "diffusion.mc", _mc_attrs),
        (solver, "st_propagate", "diffusion.mc", _mc_attrs),
        (cli, "ic_propagate", "diffusion.mc", _mc_attrs),
        (cli, "st_propagate", "diffusion.mc", _mc_attrs),
        (experiment, "multiplex_lt_propagate", "diffusion.replay", None),
        (cli, "multiplex_lt_propagate", "diffusion.replay", None),
        (experiment, "improved_greedy", "solver.greedy", _greedy_attrs),
        (experiment, "solve_pipeline", "experiment.solve_pipeline", None),
        (cli, "solve_pipeline", "experiment.solve_pipeline", None),
        (experiment, "union_baseline", "experiment.baseline", None),
        (experiment, "only_baseline", "experiment.baseline", None),
        (experiment, "seed_composition", "experiment.composition", None),
        (experiment, "external_influence_fraction", "experiment.composition", None),
        (experiment, "run_experiment", "experiment.run_experiment", _rows_attrs),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self, muxlci):
        self.spans = []
        self._muxlci = muxlci
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _wrap(self, name, fn, hook):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = hook(args, kwargs, result) if hook is not None else {}
            spans.append(Span(span_id, parent, name, start, end, time.perf_counter(), attrs))
            return result

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, hook in bindings(self._muxlci):
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, hook))

    def restore(self):
        """Put back every original binding; raise if one did not stick."""
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        wrong = [f"{module.__name__}.{attr}" for module, attr, original in self._saved
                 if getattr(module, attr) is not original]
        self._saved = []
        if wrong:
            raise RuntimeError(f"wrapped bindings not restored: {wrong}")


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.book_end))
    return {span.id: (span.end - span.start) - _covered(children[span.id]) for span in spans}


def durations(spans):
    """Span id -> duration minus the bookkeeping time of all its descendants."""
    inner = defaultdict(float)
    # a child always ends before its parent, so spans arrive children first
    for span in spans:
        inner[span.parent] += (span.book_end - span.end) + inner[span.id]
    return {span.id: (span.end - span.start) - inner[span.id] for span in spans}


def derived_evals(domain, T, R, selections):
    """Oracle calls the lazy greedy must make, from its parameters alone.

    Heap initialisation evaluates every domain node once.  Iteration i
    (1-based) sees a heap of domain - (i - 1) entries; a heavy iteration
    (i divisible by R) re-evaluates all of them, a light one the top
    min(T, heap).  Every iteration also evaluates the base coverage once
    and the popped node's fresh gain once.
    """
    heavy = light = 0
    for i in range(1, selections + 1):
        heap = domain - (i - 1)
        if i % R == 0:
            heavy += heap
        else:
            light += min(T, heap)
    return {"init": domain, "heavy": heavy, "light": light, "iteration": 2 * selections}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def layer_metrics(spans):
    """Aggregate spans into the per-layer metrics, plus a list of failed self-checks."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    selfs = self_times(spans)
    took = durations(spans)
    problems = []

    def total(name):
        return sum(took[s.id] for s in by_name[name])

    def count(name, key):
        return sum(s.attrs[key] for s in by_name[name])

    m = {}
    m["generator.generate_s"] = total("generator.generate")
    m["network.load_s"] = total("network.load")
    m["network.validate_s"] = total("network.validate")
    m["network.write_s"] = total("network.write")

    m["coupling.couple_s"] = total("coupling.couple")
    for scheme in ALL_SCHEMES:
        m[f"coupling.couple_s.{scheme}"] = sum(
            took[s.id] for s in by_name["coupling.couple"] if s.attrs["scheme"] == scheme)
    m["coupling.vertices"] = count("coupling.couple", "vertices")
    m["coupling.edges"] = count("coupling.couple", "edges")
    m["coupling.write_s"] = total("coupling.write")
    m["coupling.read_s"] = total("coupling.read")

    m["diffusion.lt_calls"] = len(by_name["diffusion.lt"])
    m["diffusion.lt_s"] = total("diffusion.lt")
    m["diffusion.lt_relax"] = count("diffusion.lt", "relax")
    m["diffusion.lt_relax_per_s"] = m["diffusion.lt_relax"] / m["diffusion.lt_s"] if m["diffusion.lt_s"] else 0.0
    bad = sum(1 for s in by_name["diffusion.lt"] if not s.attrs["consistent"])
    if bad:
        problems.append(f"{bad} LT outcomes with per-hop sets that do not add up to the coverage")
    m["diffusion.mc_calls"] = len(by_name["diffusion.mc"])
    m["diffusion.mc_samples"] = count("diffusion.mc", "samples")
    m["diffusion.mc_s"] = total("diffusion.mc")
    m["diffusion.mc_samples_per_s"] = m["diffusion.mc_samples"] / m["diffusion.mc_s"] if m["diffusion.mc_s"] else 0.0
    m["diffusion.replay_calls"] = len(by_name["diffusion.replay"])
    m["diffusion.replay_s"] = total("diffusion.replay")

    oracle_names = ("diffusion.lt", "diffusion.mc")
    oracle_calls = defaultdict(int)
    for span in spans:
        if span.name in oracle_names:
            oracle_calls[span.parent] += 1
    evals = {"init": 0, "heavy": 0, "light": 0, "iteration": 0}
    selections = 0
    for span in by_name["solver.greedy"]:
        a = span.attrs
        derived = derived_evals(a["domain"], a["T"], a["R"], a["selections"])
        wrapped = oracle_calls[span.id]
        if sum(derived.values()) != wrapped:
            problems.append(
                f"greedy span {span.id}: derived {sum(derived.values())} oracle calls, wrapped {wrapped}")
        for key in evals:
            evals[key] += derived[key]
        selections += a["selections"]
    m["solver.greedy_s"] = total("solver.greedy")
    m["solver.self_s"] = sum(selfs[s.id] for s in by_name["solver.greedy"])
    m["solver.evals"] = sum(evals.values())
    m["solver.evals_init"] = evals["init"]
    m["solver.evals_heavy"] = evals["heavy"]
    m["solver.evals_light"] = evals["light"]
    m["solver.selections"] = selections
    m["solver.useful_ratio"] = selections / m["solver.evals"] if m["solver.evals"] else 0.0

    m["experiment.cells"] = count("experiment.run_experiment", "cells")
    m["experiment.baseline_s"] = total("experiment.baseline")
    m["experiment.composition_s"] = total("experiment.composition")

    m["cli.calls"] = len(by_name["cli.main"])
    m["cli.self_s"] = sum(selfs[s.id] for s in by_name["cli.main"])
    return m, problems
