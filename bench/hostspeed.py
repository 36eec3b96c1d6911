"""Host-speed calibration for timings taken on a shared machine.

On a shared virtual machine the same Python code runs up to 1.7x slower
for tens of seconds at a time, which would swamp any change the benchmark
is meant to show. So every timed job is bracketed by ``sample()`` calls
that time a fixed pure-Python computation, owned by the benchmark and
independent of flexshop, and each timing is scaled by ``factor``: the
reference computation's seconds on the reference host divided by its
seconds measured next to the job. Scaled timings are seconds at reference
host speed; raw seconds are reported next to them.

The garbage collector is off while a sample runs, so the divisor does not
depend on how many objects the solver keeps alive. The sample still
shares the solver's caches, which it does not correct for.
"""

import gc
import random
import statistics
import time

# median seconds of reference_work() on the reference host (2-vCPU
# Xeon VM, Python 3.11.7), measured while the host ran at full speed
REFERENCE_SECONDS = 0.0115
WINDOW = 3

_rng = random.Random(20240325)
_N = 400
_PASSES = 28
_ARCS = tuple((i, j) for i in range(_N) for j in range(i + 1, min(_N, i + 9))
              if _rng.random() < 0.4)
_WEIGHT = tuple(_rng.randint(1, 99) for _ in range(_N))


def reference_work() -> int:
    """Adjacency building and longest-path passes over a fixed DAG: the
    same mix of set, tuple, dict and loop operations as the solver's."""
    total = 0
    for _ in range(_PASSES):
        succ = [set() for _ in range(_N)]
        for i, j in _ARCS:
            succ[i].add(j)
        adjacency = tuple(tuple(sorted(s)) for s in succ)
        head = {}
        for i in range(_N):
            base = head.get(i, 0) + _WEIGHT[i]
            for j in adjacency[i]:
                if head.get(j, -1) < base:
                    head[j] = base
        total += max(head.values())
    return total


def sample() -> float:
    """Seconds of one reference computation, now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples: list) -> float:
    """Reference seconds over the median of ``samples``."""
    return REFERENCE_SECONDS / statistics.median(samples)


def factors(samples: list) -> list:
    """Scale of each timing made between consecutive ``samples``, from the
    ``WINDOW`` samples on either side of it, so that a burst hitting one
    sample does not skew it."""
    return [scale(samples[max(0, j + 1 - WINDOW):j + 1 + WINDOW])
            for j in range(len(samples) - 1)]
