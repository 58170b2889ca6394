"""A fixed pure-Python kernel that measures how fast the host runs right now.

Hosts shared with other tenants change speed by tens of percent over
seconds to minutes (one pure-Python loop ran 1.7x slower twenty minutes
apart on a 2-vCPU virtual machine), so raw times from two runs are not
comparable.  The runner times this kernel between ops and scales every
op's time by REFERENCE_S / (the kernel's time around that op), giving
"reference seconds": the time the op would take on a host where this
kernel takes REFERENCE_S.  The kernel does the kind of work the package
does (list, set and dict traffic plus float sums over adjacency lists),
and it never touches the package, so a change to the package cannot
move it.
"""

from __future__ import annotations

import gc
import random
import time

REFERENCE_S = 0.004
_NODES = 2000
_DEGREE = 3
_SEEDS = 4
_HOPS = 12


def _graph():
    rng = random.Random(12345)
    out = [[(rng.randrange(_NODES), (1.0 + rng.random()) / (2 * _DEGREE)) for _ in range(_DEGREE)]
           for _ in range(_NODES)]
    theta = [rng.random() * 0.3 for _ in range(_NODES)]
    starts = [rng.sample(range(_NODES), _SEEDS) for _ in range(2)]
    return out, theta, starts


_GRAPH = _graph()


def _kernel():
    out, theta, starts = _GRAPH
    total = 0
    for seeds in starts:
        active = set(seeds)
        received = {}
        frontier = sorted(active)
        for _ in range(_HOPS):
            touched = set()
            for u in frontier:
                for v, w in out[u]:
                    if v not in active:
                        received[v] = received.get(v, 0.0) + w
                        touched.add(v)
            frontier = sorted(v for v in touched if received[v] >= theta[v])
            if not frontier:
                break
            active.update(frontier)
        total += len(active)
    return total


_EXPECTED = _kernel()


def measure():
    """Seconds one run of the kernel takes now.

    One short run, taken often, follows a host whose speed changes from
    second to second better than a median of several runs taken seldom.
    The garbage collector is off meanwhile: a collection's cost grows with
    everything the process holds, which is not the host's speed.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        if _kernel() != _EXPECTED:
            raise RuntimeError("calibration kernel gave a different result")
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
