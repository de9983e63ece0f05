"""Statistics collection for simulator components.

Every module registers a :class:`StatsCollector` (usually shared across the
whole simulation) and records four kinds of data:

* counters (``stats.count("trs.alloc_requests")``),
* scalar accumulators with mean/max (``stats.record("queue.depth", 3)``),
* integer histograms (``stats.observe("chain.length", 3)``), and
* time-stamped samples (``stats.sample("window.occupancy", now, value)``)
  used by the window-occupancy analysis.

The string-keyed methods are convenient but pay a key hash (and, at the call
site, usually an f-string build) per observation -- too slow for the packet
hot path.  Modules that record per-packet therefore resolve their metric
names **once** at construction through :meth:`StatsCollector.counter_handle`
/ :meth:`accumulator_handle` / :meth:`histogram_handle` /
:meth:`sampler_handle` and call the returned handle's ``add`` in the hot
path; a handle is a direct reference to the metric's mutable cell, so the
per-event cost is one attribute mutation.

Everything is plain Python; the experiment layer converts to whatever
presentation it needs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple


class Counter:
    """A single named counter: the pre-bound fast path for ``count()``.

    Handles are shared: every ``counter_handle(name)`` call for the same name
    returns the same cell, so a handle-updating module and a string-keyed
    ``count()`` caller see one value.
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
    """Pre-bound handle for one time-series sample list, with capped memory.

    Long runs used to grow sample lists without bound; a sampler now holds at
    most ``cap`` entries.  When the cap is reached the series is *decimated*
    in place -- every second entry removed -- and the sampling stride doubles,
    so the retained series always spans the whole run at progressively coarser
    (but uniform) time resolution.  :attr:`dropped` counts the samples that
    were offered but are no longer retained; ``summary()`` surfaces it as
    ``<name>.samples_dropped``.

    Handles are shared per series name (see
    :meth:`StatsCollector.sampler_handle`), so the stride/drop bookkeeping
    stays consistent however many call sites record into one series.
    Decimation mutates the entry list in place, preserving its identity --
    ``stats.samples[name]`` views stay valid.
    """

    __slots__ = ("entries", "cap", "stride", "dropped", "_skip")

    def __init__(self, entries: List[Tuple[int, float]],
                 cap: int = DEFAULT_SAMPLE_CAP) -> None:
        if cap < 2:
            raise ValueError(f"sample cap must be at least 2, got {cap}")
        self.entries = entries
        self.cap = cap
        self.stride = 1
        self.dropped = 0
        self._skip = 0

    def add(self, time: int, value: float) -> None:
        """Record a time-stamped sample (subject to the decimation stride)."""
        if self._skip:
            self._skip -= 1
            self.dropped += 1
            return
        entries = self.entries
        entries.append((time, value))
        self._skip = self.stride - 1
        if len(entries) >= self.cap:
            removed = len(entries) // 2
            del entries[1::2]
            self.dropped += removed
            self.stride *= 2


class ScopedStats:
    """A prefix-applying view of a :class:`StatsCollector`.

    Returned by :meth:`StatsCollector.scoped`; every handle request and
    string-keyed call prepends ``prefix`` to the metric name before
    delegating, so a module can bind its stats once per instance
    (``stats.scoped(f"{self.name}.")``) instead of hand-building
    ``f"{self.name}.xxx"`` keys at every site.  With N module instances the
    prefix is what keeps their metrics distinct -- duplicate hand-built names
    would silently merge counters.

    The view is resolution-only: handles returned through a scope are the
    same shared cells the underlying collector would return for the full
    name, so scoped and unscoped call sites interoperate.
    """

    __slots__ = ("_stats", "prefix")

    def __init__(self, stats: "StatsCollector", prefix: str) -> None:
        self._stats = stats
        self.prefix = prefix

    # -- Pre-bound handles ---------------------------------------------------

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

    # -- String-keyed interface ----------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``prefix + name`` by ``amount``."""
        self._stats.count(self.prefix + name, amount)

    def record(self, name: str, value: float) -> None:
        """Add ``value`` to accumulator ``prefix + name``."""
        self._stats.record(self.prefix + name, value)

    def observe(self, name: str, value: int, weight: int = 1) -> None:
        """Add an observation to histogram ``prefix + name``."""
        self._stats.observe(self.prefix + name, value, weight)

    def sample(self, name: str, time: int, value: float) -> None:
        """Record a time-stamped sample under ``prefix + name``."""
        self._stats.sample(self.prefix + name, time, value)

    def counter(self, name: str) -> int:
        """Value of counter ``prefix + name`` (0 if never incremented)."""
        return self._stats.counter(self.prefix + name)

    def mean(self, name: str) -> float:
        """Mean of accumulator ``prefix + name`` (0.0 if empty)."""
        return self._stats.mean(self.prefix + name)

    def scoped(self, prefix: str) -> "ScopedStats":
        """A nested scope: prefixes compose left to right."""
        return ScopedStats(self._stats, self.prefix + prefix)


class StatsCollector:
    """Shared statistics registry for a simulation run."""

    def __init__(self, sample_cap: int = DEFAULT_SAMPLE_CAP) -> None:
        self._counters: Dict[str, Counter] = defaultdict(Counter)
        self.accumulators: Dict[str, Accumulator] = defaultdict(Accumulator)
        self.histograms: Dict[str, Histogram] = defaultdict(Histogram)
        self.samples: Dict[str, List[Tuple[int, float]]] = defaultdict(list)
        #: Per-series memory cap applied by :class:`Sampler` (see there).
        self.sample_cap = sample_cap
        self._samplers: Dict[str, Sampler] = {}

    # -- Pre-bound handles (hot-path interface) -----------------------------

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
        """The shared :class:`Sampler` for ``name``'s sample list.

        One sampler per name (created on first request), so every call site
        sees the same decimation stride and drop count.
        """
        sampler = self._samplers.get(name)
        if sampler is None:
            sampler = Sampler(self.samples[name], cap=self.sample_cap)
            self._samplers[name] = sampler
        return sampler

    def scoped(self, prefix: str) -> ScopedStats:
        """A :class:`ScopedStats` view that prepends ``prefix`` to names.

        ``prefix`` is used verbatim -- callers that want dotted namespacing
        pass the trailing dot themselves (``stats.scoped("trs3.")``).
        """
        return ScopedStats(self, prefix)

    # -- String-keyed interface ---------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """Snapshot of every counter's current value (name -> int).

        A fresh dict built per access: mutate counters through
        :meth:`count` or a :meth:`counter_handle`, never through this view.
        """
        return {name: cell.value for name, cell in self._counters.items()}

    def count(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counters[name].value += amount

    def record(self, name: str, value: float) -> None:
        """Add ``value`` to the accumulator ``name``."""
        self.accumulators[name].add(value)

    def observe(self, name: str, value: int, weight: int = 1) -> None:
        """Add an observation to histogram ``name``."""
        self.histograms[name].add(value, weight)

    def sample(self, name: str, time: int, value: float) -> None:
        """Record a time-stamped sample for time-series analysis.

        Routed through the series' shared :class:`Sampler`, so the memory
        cap applies to string-keyed recording too.
        """
        self.sampler_handle(name).add(time, value)

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
        internals); each time series contributes its retained sample count as
        ``<name>.samples`` plus ``<name>.samples_dropped`` -- the samples the
        decimating :class:`Sampler` recorded but no longer retains (0 unless
        the series hit its memory cap).

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
        for name, entries in sorted(self.samples.items()):
            result[f"{name}.samples"] = float(len(entries))
            sampler = self._samplers.get(name)
            result[f"{name}.samples_dropped"] = float(
                sampler.dropped if sampler is not None else 0)
        return result
