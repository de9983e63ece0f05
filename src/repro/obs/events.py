"""Event vocabulary and the packed columnar ring buffer of ``repro.obs``.

One observability event is five signed 64-bit integers::

    (time, kind, module, task, value)

* ``time``   -- the simulation cycle the event was recorded at;
* ``kind``   -- one of the ``EV_*`` constants below;
* ``module`` -- interned name id of the emitting module (or of the probe,
  for :data:`EV_OCCUPANCY`); ``-1`` when not applicable;
* ``task``   -- event-specific subject: the task's trace ``sequence`` for
  lifecycle events, an encoded ``TaskID`` for :data:`EV_DEP_FORWARD`, an
  interned packet-kind id for :data:`EV_MODULE_SERVICE`; ``-1`` otherwise;
* ``value``  -- event-specific payload (duration, core index, encoded
  producer, 0/1 stall level, occupancy sample).

Events live in :class:`EventRing` -- a fixed-capacity ring that stores one
tuple per event: recording is a single bounds check plus one ``list.append``
until the capacity is reached, after which the oldest events are overwritten
in place and counted in :attr:`EventRing.dropped`.  Tuple-per-event beats a
flat ``array('q')`` on the hot path by ~3x (appending a tuple stores one
pointer; extending an int64 array converts five Python ints to C longs per
event), and the recording overhead is what the bench CI gate bounds.  The
*serialised* form stays packed columnar: the ``.robs`` writer in
:mod:`repro.obs.io` emits five flat int64 columns, in the columnar
container :mod:`repro.trace.packed` uses too
(:class:`repro.common.fileio.ColumnarFormat`).

Task identity: lifecycle events carry the task's trace ``sequence`` (the
stable cross-module id).  Structural ``TaskID(trs, slot)`` tuples -- which
dependence-forwarding messages are addressed with -- are encoded as
``(trs << 32) | slot``; :data:`EV_TASK_ALLOCATED` records the
sequence-to-encoded-id binding so consumers can translate.
"""

from __future__ import annotations

from typing import List, Tuple

# -- Event kinds -------------------------------------------------------------

#: Task lifecycle (``task`` = trace sequence).
EV_TASK_CREATED = 1      #: generator handed the task to the gateway
EV_TASK_ADMITTED = 2     #: gateway buffered the task
EV_TASK_WINDOW_WAIT = 3  #: task queued for TRS space (window full)
EV_TASK_ALLOCATED = 4    #: TRS slot granted; ``value`` = encoded TaskID
EV_TASK_DECODED = 5      #: every operand decoded
EV_TASK_READY = 6        #: every operand ready
EV_TASK_DISPATCHED = 7   #: scheduler started it; ``value`` = core index
EV_TASK_RETIRED = 8      #: execution finished; ``value`` = core index
EV_TASK_FREED = 9        #: TRS completion path freed its storage

#: Dependence forward along a consumer chain: ``task`` = encoded consumer
#: TaskID, ``value`` = encoded producer TaskID.
EV_DEP_FORWARD = 10

#: One packet service at a module: ``task`` = interned packet-kind id,
#: ``value`` = service duration in cycles (span start = ``time``).
EV_MODULE_SERVICE = 11

#: Module stall level change: ``value`` = 1 (stalled) / 0 (resumed).
EV_MODULE_STALL = 12

#: Gateway stall source change: ``task`` = interned source name id
#: (e.g. ``ort0``), ``value`` = 1 (added) / 0 (removed).
EV_STALL_SOURCE = 13

#: Occupancy probe sample: ``module`` = interned probe name id,
#: ``value`` = sampled occupancy.
EV_OCCUPANCY = 14

EVENT_KINDS = {
    EV_TASK_CREATED: "task_created",
    EV_TASK_ADMITTED: "task_admitted",
    EV_TASK_WINDOW_WAIT: "task_window_wait",
    EV_TASK_ALLOCATED: "task_allocated",
    EV_TASK_DECODED: "task_decoded",
    EV_TASK_READY: "task_ready",
    EV_TASK_DISPATCHED: "task_dispatched",
    EV_TASK_RETIRED: "task_retired",
    EV_TASK_FREED: "task_freed",
    EV_DEP_FORWARD: "dep_forward",
    EV_MODULE_SERVICE: "module_service",
    EV_MODULE_STALL: "module_stall",
    EV_STALL_SOURCE: "stall_source",
    EV_OCCUPANCY: "occupancy",
}

#: Ints per event in the flat column array.
STRIDE = 5


def encode_task_id(trs: int, slot: int) -> int:
    """Pack a structural ``TaskID(trs, slot)`` into one int64."""
    return (trs << 32) | slot


def decode_task_id(encoded: int) -> Tuple[int, int]:
    """Invert :func:`encode_task_id`."""
    return encoded >> 32, encoded & 0xFFFFFFFF


class EventRing:
    """Fixed-capacity ring of event tuples (newest ``capacity`` retained).

    The buffer grows by plain ``list.append`` until ``capacity`` events are
    held, then wraps: each further append overwrites the oldest event in
    place and increments :attr:`dropped`.  :meth:`events` always returns
    them in chronological (append) order.

    The ``_buf`` list object is stable for the ring's lifetime (append and
    item assignment mutate it in place; it is never reassigned), so recording
    closures may prebind ``_buf``/``_buf.append`` -- see the handle factories
    in :mod:`repro.obs.observer`.
    """

    __slots__ = ("capacity", "dropped", "_buf", "_wpos")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._buf: List[Tuple[int, int, int, int, int]] = []
        self._wpos = 0  # event index the next wrap-around append overwrites

    def append(self, time: int, kind: int, module: int, task: int,
               value: int) -> None:
        """Record one event (one bounds check plus one append or store)."""
        buf = self._buf
        if len(buf) < self.capacity:
            buf.append((time, kind, module, task, value))
            return
        buf[self._wpos] = (time, kind, module, task, value)
        wpos = self._wpos + 1
        self._wpos = 0 if wpos == self.capacity else wpos
        self.dropped += 1

    def __len__(self) -> int:
        """Number of events currently retained."""
        return len(self._buf)

    @property
    def wrapped(self) -> bool:
        """True once at least one event has been overwritten."""
        return self.dropped > 0

    def events(self) -> List[Tuple[int, int, int, int, int]]:
        """A copy of the retained events as tuples, oldest first.

        Copied by slices: the whole buffer while the ring never wrapped,
        else the part from the next write position (the oldest event) on,
        then the part before it.
        """
        buf = self._buf
        if not self.dropped:
            return buf[:]
        start = self._wpos
        return buf[start:] + buf[:start]
