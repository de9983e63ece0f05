"""The :class:`Observer`: cycle-resolved telemetry recording for a run.

An observer is attached to a simulation *before* it runs (see
``TaskSuperscalarSystem(config, observer=...)``) and collects the structured
events of :mod:`repro.obs.events` from every instrumented module.  Design
rules, both load-bearing:

* **Zero overhead when off.**  Modules resolve their recording callables once
  in ``_bind_obs_handles`` (the same pre-bound-handle trick as
  ``StatsCollector.counter_handle``); with no observer attached every handle
  is the shared no-op, so the per-event cost of a disabled observer is one
  no-op call on a handful of per-task paths -- nothing per packet receive.

* **Never mutates simulator state.**  Handles only append to the observer's
  ring buffer; occupancy sampling rides the engine's read-only
  ``on_advance`` clock hook rather than scheduling events (scheduling would
  shift engine sequence numbers and break bit-identical replay).  An
  obs-on run therefore produces exactly the simulation results of an
  obs-off run -- pinned by the determinism tests.
"""

from __future__ import annotations

import time as _walltime
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.events import (
    EV_DEP_FORWARD,
    EV_MODULE_SERVICE,
    EV_MODULE_STALL,
    EV_OCCUPANCY,
    EV_STALL_SOURCE,
    EventRing,
)

#: Default ring capacity: ~40 MB of int64 columns at full occupancy, enough
#: for every event of the bench-suite scenarios without wrapping.
DEFAULT_CAPACITY = 1 << 20

#: Default cycles between occupancy-probe samples.  Sampling a round costs
#: a few microseconds (one call per probe -- 24 on the Table II machine, 72
#: with 32 TRSs -- plus one ring extend); 1024 cycles keeps hundreds of
#: samples per bench-scale run while staying well inside the obs-on
#: overhead budget the CI gate enforces.
DEFAULT_SAMPLE_INTERVAL = 1024

#: Minimum wall-clock seconds between heartbeat callbacks.
HEARTBEAT_SECONDS = 5.0


@dataclass(frozen=True)
class ObsConfig:
    """Tuning knobs for one observer."""

    #: Maximum events retained (oldest overwritten beyond this).
    capacity: int = DEFAULT_CAPACITY
    #: Cycles between occupancy samples; 0 disables occupancy sampling.
    sample_interval: int = DEFAULT_SAMPLE_INTERVAL
    #: Record one EV_MODULE_SERVICE span per packet service.  The densest
    #: event class (roughly one span per engine event), so it is opt-in:
    #: sweeps and the bench overhead gate run without spans, while
    #: ``repro obs record`` enables them for full Perfetto module tracks.
    module_spans: bool = False


@dataclass
class Recording:
    """An immutable snapshot of one observer's data (what consumers read)."""

    #: Interned name table; ``module``/probe/packet-kind ids index into it.
    names: List[str]
    #: Chronological event tuples ``(time, kind, module, task, value)``.
    events: List[Tuple[int, int, int, int, int]]
    #: Events overwritten by ring wrap-around (lost from ``events``).
    dropped: int
    #: Free-form run context (params, makespan, ...); JSON-serialisable.
    meta: Dict[str, object]


class Observer:
    """Collects structured events from an instrumented simulation."""

    def __init__(self, config: Optional[ObsConfig] = None):
        self.config = config if config is not None else ObsConfig()
        self.ring = EventRing(self.config.capacity)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Occupancy probes by name: sampled on every clock advance that
        #: crosses the sample interval (see :meth:`advance_hook`).
        self._probes: Dict[str, Tuple[int, Callable[[], int]]] = {}
        #: Optional progress callback ``heartbeat(cycle, tasks_retired)``,
        #: rate-limited by wall clock; set it before the system binds its
        #: modules (sweep workers point it at a heartbeat JSONL writer).
        self.heartbeat: Optional[Callable[[int, int], None]] = None
        self.tasks_retired = 0

    # -- Name interning ------------------------------------------------------

    def intern(self, name: str) -> int:
        """Id of ``name`` in the name table (appended if new)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- Pre-bound recording handles ----------------------------------------
    #
    # Each returns a closure with the ring's *fast path* (bounded append)
    # inlined via default arguments, so the common per-event cost is one
    # function call, one length check and one ``list.append`` -- no second
    # call into the ring.  The rare wrap-around path falls back to
    # ``EventRing.append``.  The ring's buffer list object is stable (append
    # mutates in place; it is never reassigned), which is what makes the
    # prebinding safe.

    def task_handle(self, module_name: str):
        """``record(kind, time, task_sequence, value=0)`` for lifecycle events."""
        mid = self.intern(module_name)
        ring = self.ring

        def record(kind: int, time: int, task: int, value: int = 0,
                   _buf=ring._buf, _append=ring._buf.append,
                   _limit=ring.capacity, _wrap=ring.append, _mid=mid) -> None:
            if len(_buf) < _limit:
                _append((time, kind, _mid, task, value))
            else:
                _wrap(time, kind, _mid, task, value)

        return record

    def service_handle(self, module_name: str):
        """``record(time, packet, duration)`` emitting one service span.

        Packet kinds are interned lazily per class (the gateway's tuple
        packets intern under their tag string).
        """
        mid = self.intern(module_name)
        ring = self.ring
        kind_ids: Dict[type, int] = {}

        def record(time: int, packet, duration: int,
                   _buf=ring._buf, _append=ring._buf.append,
                   _limit=ring.capacity, _wrap=ring.append,
                   _mid=mid, _kinds=kind_ids) -> None:
            cls = packet.__class__
            kid = _kinds.get(cls)
            if kid is None:
                label = str(packet[0]) if cls is tuple else cls.__name__
                kid = _kinds[cls] = self.intern(label)
            if len(_buf) < _limit:
                _append((time, EV_MODULE_SERVICE, _mid, kid, duration))
            else:
                _wrap(time, EV_MODULE_SERVICE, _mid, kid, duration)

        return record

    def stall_handle(self, module_name: str):
        """``record(time, level)`` -- module stalled (1) / resumed (0)."""
        mid = self.intern(module_name)
        append = self.ring.append

        def record(time: int, level: int, _append=append, _mid=mid) -> None:
            _append(time, EV_MODULE_STALL, _mid, -1, level)

        return record

    def stall_source_handle(self, module_name: str):
        """``record(time, source, level)`` -- gateway stall source add/remove."""
        mid = self.intern(module_name)
        append = self.ring.append

        def record(time: int, source: str, level: int,
                   _append=append, _mid=mid) -> None:
            _append(time, EV_STALL_SOURCE, _mid, self.intern(source), level)

        return record

    def dep_handle(self, module_name: str):
        """``record(time, consumer_tid, producer_tid)`` (encoded TaskIDs)."""
        mid = self.intern(module_name)
        ring = self.ring

        def record(time: int, consumer: int, producer: int,
                   _buf=ring._buf, _append=ring._buf.append,
                   _limit=ring.capacity, _wrap=ring.append, _mid=mid) -> None:
            if len(_buf) < _limit:
                _append((time, EV_DEP_FORWARD, _mid, consumer, producer))
            else:
                _wrap(time, EV_DEP_FORWARD, _mid, consumer, producer)

        return record

    def retired_handle(self):
        """``record(cycle)`` pacing the heartbeat callback on task retires.

        Counts every retire; checks the wall clock only every 32 retires so
        the hot path stays cheap, and invokes :attr:`heartbeat` at most once
        per :data:`HEARTBEAT_SECONDS`.
        """
        state = {"last": _walltime.monotonic()}

        def record(cycle: int) -> None:
            self.tasks_retired += 1
            if self.tasks_retired & 31:
                return
            callback = self.heartbeat
            if callback is None:
                return
            now = _walltime.monotonic()
            if now - state["last"] >= HEARTBEAT_SECONDS:
                state["last"] = now
                callback(cycle, self.tasks_retired)

        return record

    # -- Occupancy probes ----------------------------------------------------

    def add_probe(self, name: str, fn: Callable[[], int]) -> None:
        """Register (or re-point) the occupancy probe ``name``.

        Probes are sampled together, in registration order, whenever the
        simulated clock advances past the next sample interval.  ``fn`` must
        return an ``int`` (the sampling loop stores its result into the int64
        ring without conversion).  Re-adding a name replaces its callable
        (modules re-bind on observer attach).
        """
        existing = self._probes.get(name)
        pid = existing[0] if existing is not None else self.intern(name)
        self._probes[name] = (pid, fn)

    def clear_probes(self) -> None:
        """Forget every probe (the machine's run is over).

        Probes are closures over the modules, and the modules hold this
        observer, so a finished machine drops them to be freed by reference
        counting.  The names they interned and the samples they took stay.
        """
        self._probes.clear()

    def advance_hook(self) -> Optional[Callable[[int], int]]:
        """The ``Engine.on_advance`` callable, or None when sampling is off.

        Build it *after* every module has registered its probes.  The hook
        samples every probe and returns the next wake cycle (``now`` plus the
        sample interval) -- the engine skips invocations before that cycle
        with a plain integer compare, so between samples the only obs cost in
        the event loop is that compare.  The hook only reads module state and
        appends to the ring; it never touches the engine, so the simulation
        is bit-identical with or without it.
        """
        interval = self.config.sample_interval
        if interval <= 0 or not self._probes:
            return None
        ring = self.ring
        probes = tuple(self._probes.values())

        def on_advance(now: int, _buf=ring._buf, _extend=ring._buf.extend,
                       _room=ring.capacity - len(probes), _wrap=ring.append,
                       _probes=probes, _interval=interval) -> int:
            # Probes return ints by contract (see add_probe).  The fast path
            # is one bounds check per sample, for the whole round; a round
            # that would reach the capacity takes the ring's own append.
            if len(_buf) <= _room:
                _extend([(now, EV_OCCUPANCY, pid, -1, fn())
                         for pid, fn in _probes])
            else:
                for pid, fn in _probes:
                    _wrap(now, EV_OCCUPANCY, pid, -1, fn())
            return now + _interval

        return on_advance

    # -- Snapshot ------------------------------------------------------------

    def snapshot(self, meta: Optional[Dict[str, object]] = None) -> Recording:
        """Freeze the collected data into a :class:`Recording`."""
        return Recording(names=list(self.names),
                         events=self.ring.events(),
                         dropped=self.ring.dropped,
                         meta=dict(meta) if meta else {})
