"""Helpers shared by the benchmark's workloads: timing, memory, results."""

from __future__ import annotations

import functools
import gc
import heapq
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import List, Sequence

#: The ``src`` tree of the checkout this benchmark lives in.
SRC = Path(__file__).resolve().parent.parent / "src"

#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 7

#: Reported host times are scaled to a reference host on which one
#: :class:`HostProbe` sample takes this long.
PROBE_REFERENCE_S = 0.05

_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
{imports}
print(time.perf_counter() - start)
"""


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def import_seconds(modules: Sequence[str], probe: "HostProbe",
                   repeats: int = SETUP_REPEATS) -> float:
    """Median time to import ``modules`` in a fresh interpreter.

    An import happens once per process, so each sample is taken in a child
    process (which is waited for) and timed from inside it, excluding the
    interpreter's own start-up.  ``probe`` is sampled before each one.
    """
    code = _IMPORT_PROBE.format(
        src=str(SRC), imports="\n".join(f"import {name}" for name in modules))
    samples: List[float] = []
    for _ in range(repeats):
        probe.sample()
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return median(samples)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle() -> None:
    """Collect garbage between measured passes so each starts alike."""
    gc.collect()


class _Node:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


#: Objects in the probe's working set: a few MB, past the per-core caches,
#: as the simulator's live state is.
_PROBE_OBJECTS = 1 << 14


@functools.lru_cache(maxsize=None)
def _working_set():
    """Objects, a dict over them and a shuffled order to visit them in."""
    order = list(range(_PROBE_OBJECTS))
    random.Random(0).shuffle(order)
    return ([_Node() for _ in range(_PROBE_OBJECTS)], order,
            {i * 7919: i for i in range(_PROBE_OBJECTS)})


def _probe_work(steps: int = 25000) -> int:
    """A fixed mix of heap, dict and attribute work, like the simulator's.

    Attribute and dict accesses land all over the working set.  Timed in
    one process between ``sharded_steal`` rounds, a probe whose data fit in
    the first-level caches moved about 1.8x as much as the rounds when the
    host's speed changed (log-log slope of rounds on probe 0.55); this one
    follows them more closely (slope 0.70, and the round-to-probe ratio
    spreads 7.8% per round against 9.8%).
    """
    nodes, order, table = _working_set()
    mask = _PROBE_OBJECTS - 1
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    total = 0
    for i in range(steps):
        index = order[(i * 13) & mask]
        nodes[index].value += 1
        total += table.get(index * 7919, 0)
        push(heap, ((i * 7919) % 1009, i, None))
        if len(heap) > 512:
            total += pop(heap)[1]
    return total


class HostProbe:
    """How fast this host runs Python during one benchmark run.

    On a shared host the speed of the CPU the benchmark gets changes by a
    third within minutes, as other tenants come and go, and the simulator's
    host times move with it.  A fixed pure-Python workload, sampled between
    measured passes, tracks that speed; every reported host time is scaled
    by ``PROBE_REFERENCE_S / median(probe samples)``, i.e. to a reference
    host, so runs made at different times compare.
    """

    def __init__(self):
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            _probe_work()
            self.samples.append(perf_counter() - start)

    @property
    def seconds(self) -> float:
        return median(self.samples)

    @property
    def scale(self) -> float:
        """Multiply a host time by this to express it on the reference host."""
        return PROBE_REFERENCE_S / self.seconds
