"""Statistics collection for simulator components.

Every module registers a :class:`StatsCollector` (usually shared across the
whole simulation) and records four kinds of data through pre-bound handles:

* counters (:meth:`StatsCollector.counter_handle`),
* scalar accumulators with mean/max
  (:meth:`~StatsCollector.accumulator_handle`),
* integer histograms (:meth:`~StatsCollector.histogram_handle`), and
* sample counts (:meth:`~StatsCollector.sampler_handle`): how many
  window-occupancy samples a capped, decimating series would retain.

A module resolves each metric name **once**, at construction, and calls the
returned handle's ``add`` in the hot path; a handle is a direct reference to
the metric's mutable cell, so the per-event cost is one attribute mutation
and no key is hashed or formatted per observation.  Reads go through
:meth:`StatsCollector.counter`, :meth:`~StatsCollector.mean` and
:meth:`~StatsCollector.summary`.

Everything is plain Python; the experiment layer converts to whatever
presentation it needs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple


class Counter:
    """A single named counter.

    Handles are shared: every ``counter_handle(name)`` call for the same name
    returns the same cell, so every call site updates one value.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int = 1) -> None:
        """Increment the counter by ``amount``."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.value})"


@dataclass
class Accumulator:
    """Streaming mean and maximum of the observations."""

    count: int = 0
    mean: float = 0.0
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        """Add one observation."""
        self.count += 1
        self.mean += (value - self.mean) / self.count
        if value > self.maximum:
            self.maximum = value


class Histogram:
    """A simple integer-bucketed histogram.

    Used for quantities such as consumer-chain lengths, where the paper quotes
    percentile statements ("95% of chains are no more than 2 tasks long").
    """

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = defaultdict(int)
        self._count = 0

    def add(self, value: int, weight: int = 1) -> None:
        """Add ``weight`` observations of ``value``."""
        self._buckets[int(value)] += weight
        self._count += weight

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    def items(self) -> List[Tuple[int, int]]:
        """Sorted (value, count) pairs."""
        return sorted(self._buckets.items())

    def mean(self) -> float:
        """Mean of the observations (0.0 when empty)."""
        if self._count == 0:
            return 0.0
        return sum(v * c for v, c in self._buckets.items()) / self._count

    def percentile(self, fraction: float) -> int:
        """Smallest value such that at least ``fraction`` of samples are <= it.

        Args:
            fraction: In ``[0, 1]``.

        Raises:
            ValueError: if the histogram is empty or ``fraction`` is out of range.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if self._count == 0:
            raise ValueError("cannot take a percentile of an empty histogram")
        threshold = fraction * self._count
        running = 0
        for value, count in self.items():
            running += count
            if running >= threshold:
                return value
        return self.items()[-1][0]

    def max(self) -> int:
        """Largest observed value."""
        if self._count == 0:
            raise ValueError("empty histogram has no maximum")
        return self.items()[-1][0]


#: Default per-series sample cap (see :class:`Sampler`).
DEFAULT_SAMPLE_CAP = 65536


class Sampler:
    """Pre-bound handle counting one series' samples under a memory cap.

    The counts are those of a series holding at most ``cap`` entries: when
    the cap is reached every second entry is dropped and the sampling stride
    doubles, so the retained series would span the whole run at a coarser,
    uniform resolution.  No result reads the sample values, so only the
    counts are kept: :attr:`retained` and :attr:`dropped`, which
    ``summary()`` reports as ``<name>.samples`` and
    ``<name>.samples_dropped``.

    Handles are shared per series name (see
    :meth:`StatsCollector.sampler_handle`), so the stride/drop bookkeeping
    stays consistent however many call sites record into one series.
    """

    __slots__ = ("cap", "stride", "retained", "dropped", "_skip")

    def __init__(self, cap: int = DEFAULT_SAMPLE_CAP) -> None:
        if cap < 2:
            raise ValueError(f"sample cap must be at least 2, got {cap}")
        self.cap = cap
        self.stride = 1
        self.retained = 0
        self.dropped = 0
        self._skip = 0

    def add(self) -> None:
        """Offer one sample (subject to the decimation stride)."""
        if self._skip:
            self._skip -= 1
            self.dropped += 1
            return
        retained = self.retained + 1
        self._skip = self.stride - 1
        if retained >= self.cap:
            removed = retained // 2
            retained -= removed
            self.dropped += removed
            self.stride *= 2
        self.retained = retained


class ScopedStats:
    """A prefix-applying view of a :class:`StatsCollector`.

    Returned by :meth:`StatsCollector.scoped`; every handle request prepends
    ``prefix`` to the metric name before delegating, so a module can bind its
    stats once per instance (``stats.scoped(f"{self.name}.")``) instead of
    hand-building ``f"{self.name}.xxx"`` keys at every site.  With N module
    instances the prefix is what keeps their metrics distinct -- duplicate
    hand-built names would silently merge counters.

    Handles returned through a scope are the same shared cells the
    underlying collector would return for the full name, so scoped and
    unscoped call sites interoperate.
    """

    __slots__ = ("_stats", "prefix")

    def __init__(self, stats: "StatsCollector", prefix: str) -> None:
        self._stats = stats
        self.prefix = prefix

    def counter_handle(self, name: str) -> Counter:
        """The shared :class:`Counter` cell for ``prefix + name``."""
        return self._stats.counter_handle(self.prefix + name)

    def accumulator_handle(self, name: str) -> Accumulator:
        """The shared :class:`Accumulator` for ``prefix + name``."""
        return self._stats.accumulator_handle(self.prefix + name)

    def histogram_handle(self, name: str) -> Histogram:
        """The shared :class:`Histogram` for ``prefix + name``."""
        return self._stats.histogram_handle(self.prefix + name)

    def sampler_handle(self, name: str) -> Sampler:
        """The shared :class:`Sampler` for ``prefix + name``."""
        return self._stats.sampler_handle(self.prefix + name)


class StatsCollector:
    """Shared statistics registry for a simulation run."""

    def __init__(self, sample_cap: int = DEFAULT_SAMPLE_CAP) -> None:
        self._counters: Dict[str, Counter] = defaultdict(Counter)
        self.accumulators: Dict[str, Accumulator] = defaultdict(Accumulator)
        self.histograms: Dict[str, Histogram] = defaultdict(Histogram)
        #: Per-series memory cap applied by :class:`Sampler` (see there).
        self.sample_cap = sample_cap
        self._samplers: Dict[str, Sampler] = {}

    # -- Pre-bound handles (the only writers) --------------------------------

    def counter_handle(self, name: str) -> Counter:
        """The mutable :class:`Counter` cell for ``name`` (created if new)."""
        return self._counters[name]

    def accumulator_handle(self, name: str) -> Accumulator:
        """The :class:`Accumulator` for ``name`` (created if new)."""
        return self.accumulators[name]

    def histogram_handle(self, name: str) -> Histogram:
        """The :class:`Histogram` for ``name`` (created if new)."""
        return self.histograms[name]

    def sampler_handle(self, name: str) -> Sampler:
        """The shared :class:`Sampler` for series ``name``.

        One sampler per name (created on first request), so every call site
        sees the same decimation stride and drop count.
        """
        sampler = self._samplers.get(name)
        if sampler is None:
            sampler = Sampler(cap=self.sample_cap)
            self._samplers[name] = sampler
        return sampler

    def scoped(self, prefix: str) -> ScopedStats:
        """A :class:`ScopedStats` view that prepends ``prefix`` to names.

        ``prefix`` is used verbatim -- callers that want dotted namespacing
        pass the trailing dot themselves (``stats.scoped("trs3.")``).
        """
        return ScopedStats(self, prefix)

    # -- Reads ---------------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """Snapshot of every counter's current value (name -> int).

        A fresh dict built per access: mutate counters through a
        :meth:`counter_handle`, never through this view.
        """
        return {name: cell.value for name, cell in self._counters.items()}

    def counter(self, name: str) -> int:
        """Return the value of counter ``name`` (0 if never incremented)."""
        cell = self._counters.get(name)
        return 0 if cell is None else cell.value

    def mean(self, name: str) -> float:
        """Return the mean of accumulator ``name`` (0.0 if empty)."""
        acc = self.accumulators.get(name)
        if acc is None or acc.count == 0:
            return 0.0
        return acc.mean

    def summary(self) -> Dict[str, float]:
        """Flat summary dictionary of every recorded metric.

        Counters appear under their own name; accumulators contribute
        ``<name>.mean`` / ``<name>.max``; histograms contribute
        ``<name>.count`` / ``<name>.mean`` / ``<name>.max`` and the
        percentiles ``<name>.p50`` / ``<name>.p95`` / ``<name>.p99``
        (so reports can quote chain-length percentiles without reaching into
        internals); each sampled series contributes its retained sample count
        as ``<name>.samples`` plus ``<name>.samples_dropped`` -- the samples
        the decimating :class:`Sampler` was offered but would no longer retain
        (0 unless the series hit its memory cap).

        Collision rule (asserted by the test suite): when one name is used
        as both an accumulator and a histogram, the *accumulator* owns the
        shared ``<name>.mean`` and ``<name>.max`` keys -- histogram entries
        are written with ``setdefault`` and never overwrite them -- while
        ``<name>.count`` and the percentile keys always report the histogram
        (accumulators never emit those suffixes).  Give the two metrics
        distinct names if both means must be visible.
        """
        result: Dict[str, float] = {}
        for name, cell in sorted(self._counters.items()):
            result[name] = float(cell.value)
        for name, acc in sorted(self.accumulators.items()):
            result[f"{name}.mean"] = acc.mean
            result[f"{name}.max"] = acc.maximum if acc.count else 0.0
        for name, hist in sorted(self.histograms.items()):
            result[f"{name}.count"] = float(hist.count)
            result.setdefault(f"{name}.mean", hist.mean())
            result.setdefault(f"{name}.max",
                              float(hist.max()) if hist.count else 0.0)
            for suffix, fraction in (("p50", 0.50), ("p95", 0.95),
                                     ("p99", 0.99)):
                result[f"{name}.{suffix}"] = (float(hist.percentile(fraction))
                                              if hist.count else 0.0)
        for name, sampler in sorted(self._samplers.items()):
            result[f"{name}.samples"] = float(sampler.retained)
            result[f"{name}.samples_dropped"] = float(sampler.dropped)
        return result
