"""Scaling wall-clock to a nominal machine speed.

On a shared virtual machine, other tenants compete for the same cores and
caches, and the speed of a pure-Python workload can drift by up to 2x over
minutes (measured on a 2-vCPU VM); one run of the benchmark lands in one
such phase.  To keep runs comparable, every reported time is
scaled by how fast two fixed probe loops ran during the same run:

* a *compute* probe: a dict-and-float loop whose data stays in cache, which
  slows down when a neighbour competes for the core;
* a *memory* probe: a pointer chase through an 8 MB cycle, which slows down
  when a neighbour competes for cache and memory bandwidth.

The workloads mix both kinds of work, so the scale is the geometric mean of
the two probes' speeds relative to their nominal durations.  The probes are
benchmark code, so within a run a change to the library moves the scaled
times in the same proportion as the wall-clock.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, List

import numpy as np

#: Probe durations on an uncontended machine (seconds).
NOMINAL_COMPUTE_S = 0.032
NOMINAL_MEMORY_S = 0.013
COMPUTE_STEPS = 200_000
MEMORY_STEPS = 100_000
CHAIN_LENGTH = 1 << 21
#: Probe pairs run in each gap between timed sections.
PROBES_PER_GAP = 1


def _compute_probe() -> float:
    start = time.perf_counter()
    table: Dict[int, float] = {}
    for i in range(COMPUTE_STEPS):
        key = i & 1023
        table[key] = table.get(key, 0.0) + math.hypot(i & 255, key)
    return time.perf_counter() - start


class SpeedProbe:
    """Samples both probes between the timed sections of one run."""

    def __init__(self) -> None:
        # One random cycle through every slot, so the chase never settles
        # into a short, cache-resident loop.
        order = np.arange(CHAIN_LENGTH, dtype=np.int32)
        np.random.default_rng(0).shuffle(order)
        chain = np.empty_like(order)
        chain[order[:-1]] = order[1:]
        chain[order[-1]] = order[0]
        self._chain = memoryview(chain)
        self.compute: List[float] = []
        self.memory: List[float] = []

    def _memory_probe(self) -> float:
        chain = self._chain
        start = time.perf_counter()
        slot = 0
        for _ in range(MEMORY_STEPS):
            slot = chain[slot]
        return time.perf_counter() - start

    def sample(self) -> None:
        for _ in range(PROBES_PER_GAP):
            self.compute.append(_compute_probe())
            self.memory.append(self._memory_probe())

    def scale(self) -> float:
        """Factor that converts this run's wall-clock to nominal speed."""
        compute = NOMINAL_COMPUTE_S / statistics.median(self.compute)
        memory = NOMINAL_MEMORY_S / statistics.median(self.memory)
        return math.sqrt(compute * memory)
