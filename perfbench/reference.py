"""How fast this machine runs Python right now, from a fixed reference kernel.

The benchmark's host is shared: over minutes its speed drifts by a quarter
or more, which would swamp the differences between two commits.  So every
time the benchmark reports is in reference seconds: the measured time
multiplied by ``NOMINAL_S / kernel time``, where the kernel time is
measured next to the thing timed.  The kernel never calls ``gammacomplex``,
so a change to the program moves the reported times and a change in the
machine's speed does not.  The raw times are printed alongside.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

NOMINAL_S = 0.035  # the kernel's typical time on the machine the baseline was taken on
SAMPLES = 5  # kernel runs per measurement; the median is used

_rng = random.Random(20120911)
_N = 58
_ADJ = {v: set() for v in range(_N)}
for _a in range(_N):
    for _b in range(_a + 1, _N):
        if _rng.random() < 0.5:
            _ADJ[_a].add(_b)
            _ADJ[_b].add(_a)


def kernel() -> int:
    """Count the cliques of a fixed random graph, building each as a frozenset:
    the same kind of work (small sets, tuples, recursion) that the library
    does.  Nothing is kept, so the kernel adds nothing to peak memory."""
    count = 0

    def grow(clique, candidates):
        nonlocal count
        for i, v in enumerate(candidates):
            cur = clique + (v,)
            count += len(frozenset(cur)) > 0
            nxt = [u for u in candidates[i + 1 :] if u in _ADJ[v]]
            if nxt:
                grow(cur, nxt)

    grow((), sorted(_ADJ))
    return count


def kernel_time() -> float:
    """Median time of ``SAMPLES`` kernel runs, in seconds, with the cyclic
    collector paused so that the caller's heap does not change the time."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SAMPLES):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)
