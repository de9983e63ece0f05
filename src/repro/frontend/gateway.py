"""The pipeline gateway (Section IV.B.1).

The gateway is the frontend's entry point.  It:

* buffers incoming tasks from the task-generating thread in a small (1 KB,
  ~20 task) buffer and back-pressures the thread when the buffer fills;
* sends allocation requests to TRSs, keeping a queue of TRSs believed to have
  free space and picking the first (the protocol is non-blocking, so requests
  for newly arrived tasks are issued while earlier replies are outstanding);
* once a TRS slot is granted, distributes the task's memory operands to the
  ORTs (selected by a hash of the operand's base address, to avoid load
  imbalance) and its scalar operands directly to the allocated TRS;
* stalls whenever an ORT or OVT runs out of space, and resumes when the
  blocking module releases an entry.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.common.config import FrontendConfig
from repro.common.errors import CapacityError, ProtocolError
from repro.common.hashing import bucket_for
from repro.common.ids import TaskID
from repro.obs.events import (
    EV_TASK_ADMITTED,
    EV_TASK_ALLOCATED,
    EV_TASK_WINDOW_WAIT,
)
from repro.frontend.messages import (
    AllocReply,
    AllocRequest,
    OperandDecodeRequest,
    ScalarOperand,
    TrsSpaceAvailable,
)
from repro.sim.engine import Engine
from repro.sim.module import PacketProcessor, obs_noop
from repro.sim.stats import StatsCollector
from repro.trace.records import TaskRecord


class _PendingTask:
    """A task sitting in the gateway's internal buffer."""

    __slots__ = ("record", "attempted_trs")

    def __init__(self, record: TaskRecord):
        self.record = record
        self.attempted_trs: Set[int] = set()


class PipelineGateway(PacketProcessor):
    """Timed model of the pipeline gateway."""

    def __init__(self, engine: Engine, config: FrontendConfig,
                 stats: Optional[StatsCollector] = None,
                 name: str = "gateway"):
        super().__init__(engine, name, stats)
        self.config = config
        #: Set by the pipeline assembly.
        self.trs_list: List = []
        self.orts: List = []
        #: Memoised ``address -> ORT index`` (see :meth:`ort_index_for`).
        self._ort_index_cache: Dict[int, int] = {}
        self._buffer: Dict[int, _PendingTask] = {}
        self._next_buffer_slot = 0
        self._free_trs: Deque[int] = deque()
        #: Buffer slots waiting for TRS space, kept sorted in creation order.
        #: A deque: arrivals append monotonically increasing slots at the
        #: back, the retry path re-queues only the slot it just popped (the
        #: smallest) at the front, and the one remaining out-of-order source
        #: (an allocation bounce re-queuing a mid-valued slot) uses a rare
        #: linear insert -- so the hot pop is O(1) instead of list.pop(0).
        self._waiting_for_space: Deque[int] = deque()
        self._space_listeners: List[Callable[[], None]] = []
        self._stall_sources: Set[str] = set()
        self._latency = config.message_latency_cycles
        # "arrival" packets are plain ("arrival", slot) tuples, so the tuple
        # type itself keys their dispatch entry.
        self._register_packet(tuple, self._handle_arrival_packet,
                              config.module_processing_cycles)
        self._register_packet(TrsSpaceAvailable, self._handle_space_available,
                              config.module_processing_cycles)
        self._register_packet(AllocReply, self._handle_alloc_reply,
                              self._alloc_reply_cycles)
        scope = self.scope
        self._stat_submit_rejected = scope.counter_handle("submit_rejected")
        self._stat_admitted = scope.counter_handle("tasks_admitted")
        self._stat_window_full_waits = scope.counter_handle("window_full_waits")
        self._stat_alloc_retries = scope.counter_handle("alloc_retries")
        self._stat_issued = scope.counter_handle("tasks_issued")

    def _bind_obs_handles(self) -> None:
        super()._bind_obs_handles()
        observer = self._observer
        if observer is not None:
            self._obs_task = observer.task_handle(self.name)
            self._obs_stall_source = observer.stall_source_handle(self.name)
        else:
            self._obs_task = obs_noop
            self._obs_stall_source = obs_noop

    # -- Assembly -----------------------------------------------------------------

    def attach(self, trs_list: List, orts: List,
               local_trs: Optional[range] = None) -> None:
        """Wire the gateway to its TRSs and ORTs (called by the pipeline).

        In a multi-frontend topology ``trs_list``/``orts`` are *global*
        directory views (remote modules appear as stubs) and ``local_trs``
        restricts allocation to this pipeline's own TRS indices; by default
        every listed TRS is local and allocatable.
        """
        self.trs_list = trs_list
        self.orts = orts
        if local_trs is None:
            local_trs = range(len(trs_list))
        self._free_trs = deque(local_trs)

    def detach(self) -> None:
        """Undo :meth:`attach` and drop the waiting space listeners."""
        self.trs_list = []
        self.orts = []
        self._space_listeners = []

    # -- Task-generating-thread interface ----------------------------------------

    @property
    def buffer_occupancy(self) -> int:
        """Number of tasks currently held in the gateway buffer."""
        return len(self._buffer)

    def can_accept(self) -> bool:
        """True if the gateway buffer has room for another task."""
        return len(self._buffer) < self.config.gateway_buffer_tasks

    def try_submit(self, record: TaskRecord) -> bool:
        """Submit a task from the task-generating thread.

        Returns False (and changes nothing) when the buffer is full; the
        caller should register a space listener via :meth:`notify_when_space`.
        """
        if not self.can_accept():
            self._stat_submit_rejected.value += 1
            return False
        slot = self._next_buffer_slot
        self._next_buffer_slot += 1
        self._buffer[slot] = _PendingTask(record)
        self._stat_admitted.value += 1
        self._obs_task(EV_TASK_ADMITTED, self.now, record.sequence)
        self.receive(("arrival", slot))
        return True

    def notify_when_space(self, callback: Callable[[], None]) -> None:
        """Invoke ``callback`` once, the next time buffer space frees up."""
        self._space_listeners.append(callback)

    # -- Stall control (used by ORTs/OVTs) ----------------------------------------

    def add_stall(self, source: str) -> None:
        """Stall the gateway on behalf of ``source`` (an ORT/OVT identifier)."""
        if not self._stall_sources:
            self.stall()
        if source not in self._stall_sources:
            self._stall_sources.add(source)
            self._obs_stall_source(self.now, source, 1)

    def remove_stall(self, source: str) -> None:
        """Remove ``source``'s stall; resume when no stall sources remain."""
        if source in self._stall_sources:
            self._stall_sources.discard(source)
            self._obs_stall_source(self.now, source, 0)
        if not self._stall_sources:
            self.unstall()

    # -- Packet service -----------------------------------------------------------

    def _alloc_reply_cycles(self, reply: AllocReply) -> int:
        if reply.task is None:
            return self.config.module_processing_cycles
        pending = self._buffer.get(reply.buffer_slot)
        operands = pending.record.num_operands if pending else 1
        # Issuing every operand is charged separately (Section V: the
        # processing overhead is multiplied by the operand count).
        return self.config.module_processing_cycles * max(1, operands)

    def _handle_arrival_packet(self, packet: tuple) -> None:
        if packet[0] != "arrival":
            raise ProtocolError(f"gateway cannot handle packet {packet!r}")
        self._handle_arrival(packet[1])

    # -- Flows -------------------------------------------------------------------

    def _enqueue_waiting(self, buffer_slot: int) -> None:
        """Queue ``buffer_slot`` for TRS space, keeping creation order.

        Arrivals append a slot larger than everything queued; the
        retry-one-waiting path re-queues the smallest slot it just popped.
        Only an allocation bounce can land mid-queue, and that path is rare
        enough for a linear insert.
        """
        waiting = self._waiting_for_space
        if not waiting or buffer_slot > waiting[-1]:
            waiting.append(buffer_slot)
        elif buffer_slot < waiting[0]:
            waiting.appendleft(buffer_slot)
        else:
            waiting.insert(bisect.bisect_left(waiting, buffer_slot), buffer_slot)

    def _handle_arrival(self, buffer_slot: int) -> None:
        if self._waiting_for_space:
            # Older tasks are already queued for TRS space; keep allocation in
            # creation order rather than letting a newcomer race past them.
            self._enqueue_waiting(buffer_slot)
            self._stat_window_full_waits.value += 1
            pending = self._buffer.get(buffer_slot)
            if pending is not None:
                self._obs_task(EV_TASK_WINDOW_WAIT, self.now,
                               pending.record.sequence)
            return
        self._request_allocation(buffer_slot)

    def _request_allocation(self, buffer_slot: int) -> None:
        pending = self._buffer.get(buffer_slot)
        if pending is None:
            raise ProtocolError(f"no pending task in gateway buffer slot {buffer_slot}")
        target = self._pick_trs(pending)
        if target is None:
            # Every TRS is believed to be full: the window is full.  Queue the
            # task for a TrsSpaceAvailable retry, keeping the queue in task
            # creation order (buffer slots are assigned monotonically) so
            # older tasks are always admitted to the window first.
            self._enqueue_waiting(buffer_slot)
            self._stat_window_full_waits.value += 1
            self._obs_task(EV_TASK_WINDOW_WAIT, self.now,
                           pending.record.sequence)
            return
        request = AllocRequest(num_operands=pending.record.num_operands,
                               buffer_slot=buffer_slot)
        pending.attempted_trs.add(target)
        self.send(self.trs_list[target], request,
                  latency=self._latency)

    def _pick_trs(self, pending: _PendingTask) -> Optional[int]:
        """First TRS in the free queue the task has not bounced off yet."""
        for _ in range(len(self._free_trs)):
            candidate = self._free_trs[0]
            self._free_trs.rotate(-1)
            if candidate not in pending.attempted_trs:
                return candidate
        return None

    def _handle_alloc_reply(self, reply: AllocReply) -> None:
        pending = self._buffer.get(reply.buffer_slot)
        if pending is None:
            raise ProtocolError(
                f"allocation reply for unknown gateway buffer slot {reply.buffer_slot}"
            )
        if reply.task is None:
            # The TRS was full after all: drop it from the free queue and retry.
            if reply.trs_index in self._free_trs:
                self._free_trs.remove(reply.trs_index)
            self._stat_alloc_retries.value += 1
            self._request_allocation(reply.buffer_slot)
            return
        self._issue_operands(pending, reply.task)
        self._obs_task(EV_TASK_ALLOCATED, self.now, pending.record.sequence,
                       (reply.task.trs << 32) | reply.task.slot)
        del self._buffer[reply.buffer_slot]
        self._stat_issued.value += 1
        self._notify_space()
        # Allocation succeeded, so there is known free space: hand the next
        # waiting task its turn (retries are serialised -- see
        # _handle_space_available -- so the TRSs are not flooded with
        # allocation requests that would mostly bounce).
        self._retry_one_waiting()

    def _issue_operands(self, pending: _PendingTask, task: TaskID) -> None:
        record = pending.record
        latency = self._latency
        trs = self.trs_list[task.trs]
        orts = self.orts
        ort_cache = self._ort_index_cache
        # Hand the trace record to the TRS (the hardware ships the packed task
        # buffer; the model shares the record object instead).
        trs.bind_record(task, record)
        for index, operand in enumerate(record.operands):
            operand_id = task.operand(index)
            if operand.is_scalar:
                self.send(trs, ScalarOperand(operand=operand_id), latency=latency)
                continue
            address = operand.address
            ort_index = ort_cache.get(address)
            if ort_index is None:
                ort_index = self.ort_index_for(address)
                ort_cache[address] = ort_index
            self.send(orts[ort_index],
                      OperandDecodeRequest(operand=operand_id,
                                           direction=operand.direction,
                                           address=address),
                      latency=latency)

    def ort_index_for(self, address: int) -> int:
        """ORT selection: a mixing hash of the operand's base address.

        Selecting directly on address bits would create load imbalance because
        object sizes (and alignments) vary; hashing -- pipelined in the
        hardware and therefore free of extra latency -- spreads objects across
        ORTs (Section IV.B.1).  The hash is pure, so ``_issue_operands``
        memoises it per address (operands of the same object recur across
        tasks).
        """
        if not self.orts:
            raise CapacityError("gateway has no ORTs attached")
        return bucket_for(address, len(self.orts), salt=0)

    def _handle_space_available(self, packet: TrsSpaceAvailable) -> None:
        if packet.trs_index not in self._free_trs:
            self._free_trs.append(packet.trs_index)
        # Retry a single waiting task.  Retries are deliberately serialised:
        # waking every queued task at once would flood the (still nearly full)
        # TRSs with allocation requests that mostly bounce, wasting their
        # controllers on rejections.  Each successful allocation wakes the
        # next waiter (_handle_alloc_reply).
        self._retry_one_waiting()

    def _retry_one_waiting(self) -> None:
        while self._waiting_for_space:
            buffer_slot = self._waiting_for_space.popleft()
            pending = self._buffer.get(buffer_slot)
            if pending is None:
                continue
            # Clear the "already tried" marks: a previously full TRS may now
            # have space.
            pending.attempted_trs.clear()
            self._request_allocation(buffer_slot)
            return

    def _notify_space(self) -> None:
        if not self.can_accept():
            return
        listeners, self._space_listeners = self._space_listeners, []
        for callback in listeners:
            callback()
