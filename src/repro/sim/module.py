"""Base classes for simulated hardware components.

Two abstractions cover everything the reproduction needs:

* :class:`SimModule` -- a named component holding references to the engine and
  the shared statistics collector, with ``schedule``/``send`` helpers.

* :class:`PacketProcessor` -- a :class:`SimModule` that serialises incoming
  packets.  The paper's pipeline modules (gateway, TRS, ORT, OVT) each have a
  controller that processes one protocol packet at a time, charging 16 cycles
  of processing per packet (multiplied by the number of operands involved) on
  top of eDRAM access latency.  ``PacketProcessor`` models exactly that: a
  FIFO input queue, a busy/idle state and, for every packet type a subclass
  registers, a service time and a handler.

Both classes sit on the simulation's hot path, so their statistics are
recorded through pre-bound :mod:`repro.sim.stats` handles that each module
resolves once in its constructor, through :attr:`SimModule.scope` -- never by
building an ``f"{self.name}..."`` key per packet.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Callable, Deque, Optional, Union

from repro.common.errors import ProtocolError
from repro.sim.engine import Engine
from repro.sim.stats import StatsCollector


def obs_noop(*_args) -> None:
    """Shared no-op observability handle (bound when no observer is attached).

    Accepting any positional arguments lets every obs emission site call its
    handle unconditionally; with no observer the whole cost of the
    instrumentation is this empty call on a handful of per-task paths.
    """


def _unbound(module: "SimModule", fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` as a function of ``(module, packet)``: a method bound to
    ``module`` becomes its plain function, anything else is kept."""
    return fn.__func__ if getattr(fn, "__self__", None) is module else fn


class SimModule:
    """A named simulation component."""

    def __init__(self, engine: Engine, name: str,
                 stats: Optional[StatsCollector] = None):
        self.engine = engine
        self.name = name
        #: Pre-bound engine scheduling method: ``send``/``schedule`` and the
        #: packet service path run once per event, so the bound-method
        #: creation is paid here instead of per call.
        self._schedule_unref = engine.schedule_unref
        #: The statistics collector (usually shared by the whole simulation).
        self.stats = stats if stats is not None else StatsCollector()
        #: Name-scoped stats view: ``self.scope.counter_handle("x")`` is the
        #: shared cell for ``f"{self.name}.x"``.  Subclasses bind their
        #: handles through it in their constructors.
        self.scope = self.stats.scoped(name + ".")
        self._observer = None
        self._bind_obs_handles()

    @property
    def observer(self):
        """The attached :class:`repro.obs.Observer`, or None."""
        return self._observer

    def bind_observer(self, observer) -> None:
        """Attach an observer (or None to detach) and re-resolve handles."""
        self._observer = observer
        self._bind_obs_handles()

    def _bind_obs_handles(self) -> None:
        """Resolve this module's observability handles.

        Called at construction (observer is None: every handle must resolve
        to :func:`obs_noop`) and again from :meth:`bind_observer`.
        Subclasses with instrumentation points override this, calling
        ``super()._bind_obs_handles()``.
        """

    @property
    def now(self) -> int:
        """Current simulated time."""
        return self.engine.now

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule a callback ``delay`` cycles in the future.

        Routed through the engine's no-reference fast path: module-scheduled
        callbacks are never cancelled, so no cancellation handle is built.
        """
        self._schedule_unref(delay, callback, *args)

    def send(self, destination: "PacketProcessor", packet: Any, latency: int = 0) -> None:
        """Deliver ``packet`` to ``destination`` after a transport latency.

        A zero-latency send goes through the engine's same-cycle micro-queue
        (no heap traffic); either way the delivery is one plain entry tuple
        with no cancellation handle.

        The entry construction is :meth:`Engine.schedule_unref` inlined --
        one delivery per protocol message makes the call overhead itself
        measurable on the simulator's hot path.
        """
        engine = self.engine
        seq = engine._seq
        engine._seq = seq + 1
        if latency > 0:
            heappush(engine._heap, (engine.now + latency, seq, None,
                                    destination.receive, (packet,)))
        elif latency == 0:
            engine._ready.append((engine.now, seq, None,
                                  destination.receive, (packet,)))
        else:
            raise ValueError(f"cannot schedule into the past (delay={latency})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class PacketProcessor(SimModule):
    """A module that processes incoming packets serially.

    Subclasses register every packet type they accept with
    :meth:`_register_packet`: its service time and the handler that applies
    the packet's effect once that time has elapsed.  A packet of any other
    type raises :class:`ProtocolError` when it reaches service.

    The processor also supports *stalling*: while stalled, packets accumulate
    in the input queue but are not serviced.  The ORT uses this to model the
    "stall the gateway until an entry is released" behaviour, and the gateway
    uses it to model back-pressure on the task-generating thread.
    """

    def __init__(self, engine: Engine, name: str,
                 stats: Optional[StatsCollector] = None):
        super().__init__(engine, name, stats)
        self._input_queue: Deque[Any] = deque()
        self._busy = False
        self._stalled = False
        self._busy_cycles: int = 0
        #: ``{packet type: (cycles or None, cost or None, handler)}`` (see
        #: :meth:`_register_packet`): one dict probe resolves a packet's
        #: service.  The callables are plain functions of ``(module,
        #: packet)``, so the table holds no reference back to the module.
        self._dispatch: dict = {}
        scope = self.scope
        self._stat_packets_received = scope.counter_handle("packets_received")
        self._stat_packets_processed = scope.counter_handle("packets_processed")
        self._stat_stalls = scope.counter_handle("stalls")

    def _register_packet(self, packet_type: type,
                         handler: Callable[..., None],
                         service: Union[int, Callable[..., int]]) -> None:
        """Register how this module serves packets of ``packet_type``.

        ``service`` is the service time in cycles or, for a cost that
        depends on the packet (a per-operand charge), a callable returning
        it; ``handler`` applies the packet's effect once that time elapses.
        Either callable is a method of this module (``self._handle_x``) or
        a function of ``(module, packet)``.  A method is stored as its plain
        function and called as ``fn(self, packet)``: a bound method would
        make the module reference itself, and a machine built of such
        modules could then only be freed by the cyclic collector.
        """
        handler = _unbound(self, handler)
        if callable(service):
            self._dispatch[packet_type] = (None, _unbound(self, service),
                                           handler)
            return
        if service < 0:
            raise ValueError(f"{self.name}: negative service time {service}")
        self._dispatch[packet_type] = (service, None, handler)

    def _bind_obs_handles(self) -> None:
        super()._bind_obs_handles()
        observer = self._observer
        if observer is not None and observer.config.module_spans:
            self._obs_service = observer.service_handle(self.name)
        else:
            # None (not a noop callable): the per-packet service path
            # branches on it instead of paying an empty call.
            self._obs_service = None
        self._obs_stall = (observer.stall_handle(self.name)
                           if observer is not None else obs_noop)

    # -- Public interface ---------------------------------------------------

    def receive(self, packet: Any) -> None:
        """Serve ``packet`` now if the module is idle, else queue it (FIFO)."""
        self._stat_packets_received.value += 1
        queue = self._input_queue
        if self._busy or self._stalled:
            queue.append(packet)
        elif queue:
            # A handler re-entering its own idle module: older packets first.
            queue.append(packet)
            self._start(queue.popleft())
        else:
            self._start(packet)

    @property
    def queue_length(self) -> int:
        """Number of packets waiting (not counting one in service)."""
        return len(self._input_queue)

    @property
    def is_busy(self) -> bool:
        """True while a packet is in service."""
        return self._busy

    @property
    def is_stalled(self) -> bool:
        """True while the module refuses to start new packets."""
        return self._stalled

    @property
    def busy_cycles(self) -> int:
        """Total cycles this module has spent servicing packets."""
        return self._busy_cycles

    def stall(self) -> None:
        """Stop servicing new packets (packets still accumulate).

        Idempotent: repeated back-pressure signals while already stalled do
        not inflate the ``<name>.stalls`` statistic (one stall episode is one
        count, however many sources assert it).
        """
        if self._stalled:
            return
        self._stalled = True
        self._stat_stalls.value += 1
        self._obs_stall(self.engine.now, 1)

    def unstall(self) -> None:
        """Resume servicing packets."""
        if self._stalled:
            self._stalled = False
            self._obs_stall(self.engine.now, 0)
            if self._input_queue and not self._busy:
                self._start(self._input_queue.popleft())

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` this module spent servicing packets."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self._busy_cycles / elapsed_cycles)

    def record_utilization(self, elapsed_cycles: int) -> None:
        """Record ``busy_cycles / elapsed`` into stats as ``<name>.utilization``.

        Called once at end of run (see
        :meth:`repro.frontend.pipeline.TaskSuperscalarFrontend
        .record_module_utilization`), so decode-rate experiments can report
        which pipeline module saturates first.
        """
        self.scope.accumulator_handle("utilization").add(
            self.utilization(elapsed_cycles))

    # -- Internal ------------------------------------------------------------------

    def _start(self, packet: Any) -> None:
        """Put ``packet`` into service; the module is idle and unstalled."""
        entry = self._dispatch.get(type(packet))
        if entry is None:
            raise ProtocolError(f"{self.name} received unexpected packet {packet!r}")
        duration, cost, handler = entry
        if duration is None:
            duration = cost(self, packet)
            if duration < 0:
                raise ValueError(f"{self.name}: negative service time {duration}")
        self._busy = True
        engine = self.engine
        now = engine.now
        obs = self._obs_service
        if obs is not None:
            obs(now, packet, duration)
        # Engine.schedule_unref inlined (one completion event per packet).
        seq = engine._seq
        engine._seq = seq + 1
        if duration:
            heappush(engine._heap, (now + duration, seq, None,
                                    self._finish, (packet, duration, handler)))
        else:
            engine._ready.append((now, seq, None,
                                  self._finish, (packet, duration, handler)))

    def _finish(self, packet: Any, duration: int,
                handler: Callable[..., None]) -> None:
        self._busy = False
        self._busy_cycles += duration
        self._stat_packets_processed.value += 1
        handler(self, packet)
        queue = self._input_queue
        if queue and not (self._busy or self._stalled):
            self._start(queue.popleft())
