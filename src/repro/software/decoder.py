"""The serial software dependency decoder.

The StarSs runtime decodes tasks on the task-generating thread (or a helper
thread): for each created task it walks the operand list, looks the operands
up in software hash tables, links the task into the dependency graph and
marks it ready once its producers have completed.  The decode itself is
serial, which is precisely the scalability limit Section II quantifies: just
over 700 ns per task on a 2.66 GHz Core Duo.

The model decodes tasks one at a time, charging ``decode_ns_per_task`` per
task, and maintains the dependency graph with the same in-order matching
rules as the gold graph builder (true dependencies only constrain execution;
the software runtime renames objects in software, so WaR/WaW do not serialise
execution -- matching StarSs behaviour).  Its task window is unbounded, as
the paper's software runtime's effectively is (Section II): every submitted
task is accepted, so the task-generating thread never stalls on it.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.common.config import SoftwareRuntimeConfig
from repro.common.units import ns_to_cycles
from repro.sim.engine import Engine
from repro.sim.module import SimModule
from repro.sim.stats import StatsCollector
from repro.trace.records import TaskRecord


class SoftwareDecoder(SimModule):
    """Serial software dependency decoder with an unbounded task window.

    Tasks are submitted in creation order via :meth:`try_submit` (the same
    call as the hardware gateway's, so the task-generating thread model is
    reused unchanged); every submission is accepted.  Each one is decoded
    after the fixed serial decode cost; decoded tasks whose true producers
    have all completed are handed to ``on_ready``.
    """

    def __init__(self, engine: Engine, config: SoftwareRuntimeConfig,
                 clock_ghz: float, on_ready: Callable[[TaskRecord], None],
                 stats: Optional[StatsCollector] = None):
        super().__init__(engine, "software_decoder", stats)
        #: The serial decode cost of one task, in cycles.
        self._decode_cycles = max(
            1, ns_to_cycles(config.decode_ns_per_task, clock_ghz))
        self.on_ready = on_ready
        self._decode_queue: Deque[TaskRecord] = deque()
        self._decoding = False
        #: Dependency bookkeeping (software hash tables), all O(window)
        #: except ``_last_writer``, which is O(objects).  A waiting
        #: consumer's entry holds its record and the producers it waits on.
        self._last_writer: Dict[int, int] = {}
        self._pending_producers: Dict[int, Tuple[TaskRecord, Set[int]]] = {}
        self._consumers: Dict[int, List[int]] = defaultdict(list)
        #: Tasks decoded and not yet completed.  A producer found in
        #: ``_last_writer`` was decoded, so it has finished unless it is here.
        self._in_flight: Set[int] = set()
        #: Decode stamps: the first, the last and how many.
        self._first_decode = 0
        self._last_decode = 0
        self.tasks_decoded = 0
        self._stat_tasks_submitted = self.stats.counter_handle(
            "software.tasks_submitted")
        self._stat_tasks_decoded = self.stats.counter_handle(
            "software.tasks_decoded")

    def detach(self) -> None:
        """Drop the callback into the machine (its run is over)."""
        self.on_ready = None

    # -- Gateway-compatible interface ----------------------------------------------

    def try_submit(self, record: TaskRecord) -> bool:
        """Submit one task for decoding; the window is unbounded, so it is
        always accepted (returns True)."""
        self._decode_queue.append(record)
        self._stat_tasks_submitted.value += 1
        self._start_next_decode()
        return True

    # -- Decoding -------------------------------------------------------------------

    def _start_next_decode(self) -> None:
        if self._decoding or not self._decode_queue:
            return
        self._decoding = True
        self.schedule(self._decode_cycles, self._finish_decode)

    def _finish_decode(self) -> None:
        record = self._decode_queue.popleft()
        self._decoding = False
        sequence = record.sequence
        producers: Set[int] = set()
        for operand in record.memory_operands:
            if operand.direction.reads:
                producer = self._last_writer.get(operand.address)
                if producer is not None and producer in self._in_flight:
                    producers.add(producer)
        for operand in record.memory_operands:
            if operand.direction.writes:
                self._last_writer[operand.address] = sequence
        self._in_flight.add(sequence)
        if not self.tasks_decoded:
            self._first_decode = self.now
        self._last_decode = self.now
        self.tasks_decoded += 1
        self._stat_tasks_decoded.value += 1
        if producers:
            self._pending_producers[sequence] = (record, producers)
            for producer in producers:
                self._consumers[producer].append(sequence)
        else:
            self.on_ready(record)
        self._start_next_decode()

    # -- Completion -------------------------------------------------------------------

    def task_completed(self, record: TaskRecord) -> None:
        """Mark a task complete and release any consumers it was blocking."""
        sequence = record.sequence
        self._in_flight.discard(sequence)
        for consumer in self._consumers.pop(sequence, ()):  # noqa: B020 - list copy not needed
            entry = self._pending_producers.get(consumer)
            if entry is None:
                continue
            waiting, pending = entry
            pending.discard(sequence)
            if not pending:
                del self._pending_producers[consumer]
                self.on_ready(waiting)

    # -- Measurements ---------------------------------------------------------------------

    def decode_rate_cycles(self) -> float:
        """Average cycles between successive additions to the task graph."""
        if self.tasks_decoded < 2:
            return 0.0
        return (self._last_decode - self._first_decode) / (self.tasks_decoded - 1)
