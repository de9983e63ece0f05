"""The discrete-event engine: an event heap and a simulated clock.

The engine is deliberately minimal and fast.  Every event carries a
``(time, sequence)`` key; the sequence number gives a deterministic FIFO
order to events scheduled for the same cycle, which keeps every simulation
fully reproducible.  The hot-path representation (all invisible to the event
ordering, which stays exactly global ``(time, seq)``):

* queued events are plain ``(time, seq, ref, callback, args)`` tuples, so
  ``heapq`` comparisons are C-level integer compares (``seq`` is unique, so
  a comparison never reaches the third element) and dispatching an event is
  two tuple indexations plus the callback -- no event-object attribute
  traffic at all;
* events scheduled through :meth:`Engine.schedule_unref` (the
  :class:`repro.sim.module.SimModule` fast path, for callers that never
  cancel) carry ``ref=None``: the run loop skips the cancellation test for
  them with a single identity compare, and nothing is ever allocated beyond
  the entry tuple itself;
* cancellable events (:meth:`Engine.schedule` / :meth:`Engine.schedule_at`)
  carry a small :class:`Event` handle as ``ref``; cancellation stays lazy --
  the entry remains queued and is skipped (without counting towards
  ``events_processed``) when popped;
* zero-delay ``schedule(0, ...)`` calls -- the dominant pattern on the
  zero-latency module links -- bypass the heap entirely through a same-cycle
  FIFO micro-queue (append/cursor instead of two O(log n) heap operations).

Typical use::

    engine = Engine()
    engine.schedule(10, some_callback, arg1, arg2)
    engine.run()
    print(engine.now)

Components built on top of the engine (see :mod:`repro.sim.module`) should
never manipulate the heap directly; they use :meth:`Engine.schedule` /
:meth:`Engine.schedule_at` / :meth:`Engine.schedule_unref`.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.common.errors import ReproError

#: A queued event: ``(time, seq, ref, callback, args)``.  ``ref`` is None for
#: the never-cancelled fast path, or the :class:`Event` handle returned to the
#: caller of :meth:`Engine.schedule`.
_Entry = Tuple[int, int, Optional["Event"], Callable[..., None], Tuple[Any, ...]]


class SimulationLimitExceeded(ReproError):
    """Raised when a run exceeds its event or time budget.

    A deadlocked pipeline model (for example a configuration whose gateway is
    stalled forever) would otherwise simply stop making progress; the limits
    turn such bugs into loud failures.
    """


class Event:
    """A cancellation handle for a scheduled callback.

    Returned by :meth:`Engine.schedule` / :meth:`Engine.schedule_at` so
    callers can cancel.  Cancellation is lazy: the queued entry stays in its
    queue but is skipped when it is popped.
    """

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: int, seq: int, callback: Callable[..., None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event's callback from running."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}, {name}{state})"


class Engine:
    """Discrete-event simulation engine with an integer-cycle clock.

    The current time is exposed as the plain attribute :attr:`now` (written
    only by the run loop); reading it costs a single attribute load, which
    matters because every module timestamp on the packet hot path reads it.
    """

    def __init__(self, max_events: Optional[int] = None,
                 max_time: Optional[int] = None):
        """Create an engine.

        Args:
            max_events: Optional hard cap on the number of events processed in
                a single :meth:`run` call (guards against livelock in tests).
            max_time: Optional hard cap on the simulated time.
        """
        #: Heap of entry tuples; seq values are unique, so comparisons never
        #: reach the non-integer elements.
        self._heap: List[_Entry] = []
        #: Same-cycle FIFO: events scheduled with delay 0 for the current
        #: cycle, in seq order (they all carry time == the cycle they were
        #: scheduled in, and are always drained before the clock advances).
        self._ready: List[_Entry] = []
        #: Read cursor into ``_ready`` (append-and-cursor beats deque here:
        #: the list is reset whenever it drains, which is every cycle).
        self._ready_pos: int = 0
        #: Current simulated time in cycles (read-only for callers).
        self.now: int = 0
        self._seq: int = 0
        self._events_processed: int = 0
        self.max_events = max_events
        self.max_time = max_time
        #: Optional read-only clock hook ``on_advance(new_time) -> wake``,
        #: invoked just before the clock moves forward to a strictly later
        #: cycle -- but only once ``new_time`` has reached the *wake* cycle
        #: the previous invocation returned (first invocation fires on the
        #: first advance).  The returned wake cycle must be strictly greater
        #: than ``new_time`` (values at or below it are clamped to
        #: ``new_time + 1``), which maintains the invariant ``wake > now``
        #: and lets :meth:`run` test for the next firing with a single
        #: integer compare per event.  Bind the hook before calling
        #: :meth:`run`; rebinding from inside a callback is not supported
        #: (the run loop latches it at entry).  The observability layer
        #: samples occupancies here; the hook must never schedule events
        #: (that would shift sequence numbers and break deterministic
        #: replay).
        self.on_advance: Optional[Callable[[int], int]] = None
        self._advance_wake: int = 0

    # -- Clock ---------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap) + len(self._ready) - self._ready_pos

    # -- Scheduling ------------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        delay = int(delay)
        time = self.now + delay
        event = Event(time, self._seq, callback)
        entry = (time, event.seq, event, callback, args)
        self._seq += 1
        if delay == 0:
            self._ready.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        return event

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        time = int(time)
        event = Event(time, self._seq, callback)
        heapq.heappush(self._heap, (time, event.seq, event, callback, args))
        self._seq += 1
        return event

    def schedule_unref(self, delay: int, callback: Callable[..., None],
                       *args: Any) -> None:
        """Hot-path scheduling for callers that never cancel.

        Identical ordering semantics to :meth:`schedule`, but no handle is
        returned and none is allocated: the queued entry is a single tuple,
        and the run loop skips the cancellation test for it.
        :class:`SimModule.send` and :class:`SimModule.schedule` route through
        here.
        """
        seq = self._seq
        self._seq = seq + 1
        if delay == 0:
            self._ready.append((self.now, seq, None, callback, args))
        elif delay > 0:
            heapq.heappush(self._heap,
                           (self.now + int(delay), seq, None, callback, args))
        else:
            raise ValueError(f"cannot schedule into the past (delay={delay})")

    def detach(self) -> None:
        """Drop every queued event and the clock hook.

        Called when a machine's run ends.  Entries still queued (a run that
        raised leaves some) hold bound methods of modules that reference
        this engine, and the hook holds the observer's probes of those
        modules; without both, the finished machine is freed by reference
        counting.  The clock and :attr:`events_processed` stay readable.
        """
        self._heap.clear()
        self._ready.clear()
        self._ready_pos = 0
        self.on_advance = None

    # -- Execution ---------------------------------------------------------------

    def _next_entry(self) -> Optional[Tuple[_Entry, bool]]:
        """Peek the globally next event: ``(entry, from_ready)`` or None.

        The next event is the one with the smallest ``(time, seq)`` across
        the micro-queue and the heap (micro-queue events always carry the
        current cycle as their time, heap events the current cycle or later).
        """
        ready = self._ready
        pos = self._ready_pos
        if pos < len(ready):
            entry = ready[pos]
            if self._heap:
                head = self._heap[0]
                if head[0] < entry[0] or (head[0] == entry[0] and head[1] < entry[1]):
                    return head, False
            return entry, True
        if self._heap:
            return self._heap[0], False
        return None

    def _pop(self, from_ready: bool) -> None:
        if from_ready:
            self._ready_pos += 1
            if self._ready_pos >= len(self._ready):
                self._ready.clear()
                self._ready_pos = 0
        else:
            heapq.heappop(self._heap)

    def step(self) -> bool:
        """Execute the next non-cancelled event.

        Returns:
            ``True`` if an event was executed, ``False`` if nothing is queued.
        """
        while True:
            head = self._next_entry()
            if head is None:
                return False
            entry, from_ready = head
            self._pop(from_ready)
            ref = entry[2]
            if ref is not None and ref.cancelled:
                continue
            time = entry[0]
            advance = self.on_advance
            # Wake test first: it is a plain int compare and false for
            # nearly every event between samples.  The clamp keeps the
            # ``wake > now`` invariant :meth:`run` relies on.
            if (advance is not None and time >= self._advance_wake
                    and time > self.now):
                wake = advance(time)
                self._advance_wake = wake if wake > time else time + 1
            self.now = time
            self._events_processed += 1
            entry[3](*entry[4])
            return True

    def run(self, until: Optional[int] = None) -> int:
        """Run until the event queues drain (or ``until`` cycles are reached).

        Args:
            until: Optional absolute time at which to stop.  Events scheduled
                at exactly ``until`` are still executed.

        Returns:
            The simulated time after the run.

        Raises:
            SimulationLimitExceeded: if ``max_events`` or ``max_time`` is hit.
        """
        # The loop below is the simulator's innermost loop: everything it
        # touches per event is bound to a local, the ready/heap merge is
        # inlined, and the limit checks are hoisted behind cheap flags.
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        max_events = self.max_events
        max_time = self.max_time
        advance = self.on_advance
        advance_wake = self._advance_wake
        events_processed = self._events_processed
        if advance is not None and advance_wake <= self.now:
            # Establish the loop invariant ``wake > now``: with it (and the
            # clamp at the fire site below), ``event.time >= wake`` alone
            # implies a strictly later cycle, so the hot loop needs only one
            # integer compare per event to skip the hook.
            advance_wake = self._advance_wake = self.now + 1
        bounded = not (max_events is None and max_time is None and until is None)
        try:
            while True:
                pos = self._ready_pos
                if pos < len(ready):
                    entry = ready[pos]
                    from_ready = True
                    if heap:
                        head = heap[0]
                        # The heap head beats the micro-queue head only when
                        # it was scheduled earlier for this same cycle.
                        if head[0] < entry[0] or (head[0] == entry[0]
                                                  and head[1] < entry[1]):
                            entry = head
                            from_ready = False
                elif heap:
                    entry = heap[0]
                    from_ready = False
                else:
                    break
                time = entry[0]
                if bounded:
                    if until is not None and time > until:
                        break
                    if max_time is not None and time > max_time:
                        raise SimulationLimitExceeded(
                            f"simulated time exceeded max_time={max_time}"
                        )
                if from_ready:
                    pos += 1
                    if pos >= len(ready):
                        ready.clear()
                        self._ready_pos = 0
                    else:
                        self._ready_pos = pos
                else:
                    heappop(heap)
                ref = entry[2]
                if ref is not None and ref.cancelled:
                    continue
                # ``wake > now`` holds throughout (established above,
                # preserved by the clamp), so this single compare also
                # certifies a strict clock advance.
                if advance is not None and time >= advance_wake:
                    wake = advance(time)
                    if wake <= time:
                        wake = time + 1
                    advance_wake = self._advance_wake = wake
                self.now = time
                events_processed += 1
                entry[3](*entry[4])
                if bounded and max_events is not None:
                    # Flush so callbacks and the error path see a live count.
                    self._events_processed = events_processed
                    if events_processed > max_events:
                        raise SimulationLimitExceeded(
                            f"event count exceeded max_events={max_events}"
                        )
        finally:
            self._events_processed = events_processed
        # Advance the clock to `until` on every exit path (events drained or
        # next event beyond `until`) so run(until=...) always leaves
        # now == until when time was requested.
        if until is not None and until > self.now:
            self.now = until
        return self.now
