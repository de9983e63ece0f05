"""Task reservation stations (Section IV.B.2).

A TRS stores the meta-data of in-flight tasks (including the IDs of operand
data consumers) and thereby embeds the task dependency graph.  Storage is a
private eDRAM managed as fixed 128-byte blocks with the inode-style layout of
Figure 11; incoming messages carry the task ID tuple, so no associative
lookups are needed.

The TRS implements:

* allocation of task storage on a gateway request (Figure 6), replying with
  the slot number that becomes the task's ID;
* operand tracking: scalars are ready on arrival, outputs become ready when
  the OVT renames them, inputs when their producer's (or chained
  predecessor's) data-ready arrives, inouts when both halves arrive;
* **consumer chaining** (Figure 10): each operand stores at most one chained
  consumer; a reader forwards the data-ready it receives to its successor
  immediately, while a writer forwards only when its task finishes;
* dispatch of fully ready tasks to the ready queue;
* the completion path: on a task-finished message the TRS sends data-ready
  messages to the chained consumers of its written operands, notifies the
  OVTs to decrement version usage counts, frees the task's blocks and tells
  the gateway it has space again.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.common.config import FrontendConfig
from repro.common.errors import ProtocolError
from repro.common.ids import OperandID, TaskID
from repro.frontend.messages import (
    AllocReply,
    AllocRequest,
    DataReady,
    OperandInfo,
    ReadyKind,
    RegisterConsumer,
    ScalarOperand,
    TaskFinished,
    TaskReady,
    TrsSpaceAvailable,
    VersionRelease,
)
from repro.frontend.storage import BlockStorage
from repro.obs.events import EV_TASK_DECODED, EV_TASK_FREED, EV_TASK_READY
from repro.sim.engine import Engine
from repro.sim.module import PacketProcessor, obs_noop
from repro.sim.stats import StatsCollector
from repro.trace.records import Direction, TaskRecord


class _TaskEntry:
    """An in-flight task stored in the TRS (slot-indexed operand table).

    Per-operand boolean state (decoded / input half satisfied / output half
    satisfied / data available to chained consumers / forwarded) is packed
    into integer bit-vectors, one bit per operand index -- the
    model's equivalent of the valid/ready bit columns the hardware keeps in
    each task's blocks.  ``want_mask`` has one bit per operand, so "task
    fully decoded" is the single compare ``decoded_mask == want_mask`` and
    "task ready" is ``decoded_mask & input_mask & output_mask == want_mask``;
    no per-operand scan or counter bookkeeping is needed.  The few non-bool
    fields (direction, OVT index, chained consumer) live in small parallel
    per-operand lists.
    """

    __slots__ = ("task", "record", "blocks", "decode_time", "ready_time",
                 "want_mask", "decoded_mask", "input_mask", "output_mask",
                 "avail_mask", "forwarded_mask", "dir_col", "ovt_col",
                 "consumer_col")

    def __init__(self, task: TaskID, record: Optional[TaskRecord],
                 blocks: int, num_operands: int):
        self.task = task
        self.record = record
        #: TRS blocks the task's storage takes (main + indirect).
        self.blocks = blocks
        self.decode_time: Optional[int] = None
        self.ready_time: Optional[int] = None
        self.want_mask = (1 << num_operands) - 1
        self.decoded_mask = 0
        self.input_mask = 0
        self.output_mask = 0
        self.avail_mask = 0
        self.forwarded_mask = 0
        self.dir_col: List[Optional[Direction]] = [None] * num_operands
        self.ovt_col: List[Optional[int]] = [None] * num_operands
        self.consumer_col: List[Optional[OperandID]] = [None] * num_operands

    @property
    def num_operands(self) -> int:
        return len(self.dir_col)


class TaskReservationStation(PacketProcessor):
    """Timed model of one TRS tile."""

    def __init__(self, engine: Engine, index: int, config: FrontendConfig,
                 stats: Optional[StatsCollector] = None):
        super().__init__(engine, f"trs{index}", stats)
        self.index = index
        self.config = config
        self.storage = BlockStorage(
            num_blocks=config.trs_blocks_per_module,
            operands_in_main_block=config.operands_in_main_block,
            operands_per_indirect_block=config.operands_per_indirect_block,
            max_indirect_blocks=config.max_indirect_blocks,
        )
        #: Wired by the pipeline assembly.
        self.trs_list: List = []
        self.ovts: List = []
        self.gateway = None
        self.ready_queue = None
        #: Callback invoked with (task_id, record, time) when a task's decode
        #: completes; used by the pipeline for decode-rate measurement.
        self.on_task_decoded = None
        self._tasks: Dict[int, _TaskEntry] = {}
        #: Vacant chain heads of finished tasks: the memory operands that had
        #: no chained consumer yet when their task finished.  A retired
        #: operand's data is by definition available, and a late
        #: register-consumer message can still reference such an operand (its
        #: version may outlive the task while other readers drain); the
        #: hardware resolves this through the version's consumer-chain head in
        #: the OVT, the model through this set.  A head leaves the set when its
        #: one consumer registers, so scalars and chained operands never enter
        #: it; what is left after a run are heads nobody chained onto.
        self._retired: Set[OperandID] = set()
        #: Tasks currently ready but not yet finished (obs probe).
        self._ready_inflight = 0
        self._next_slot = 0
        self._reported_full = False
        self._latency = config.message_latency_cycles
        service = config.module_processing_cycles + config.edram_latency_cycles
        self._register_packet(AllocRequest, self._handle_alloc, service)
        self._register_packet(ScalarOperand, self._handle_scalar, service)
        self._register_packet(OperandInfo, self._handle_operand_info, service)
        self._register_packet(DataReady, self._handle_data_ready, service)
        self._register_packet(RegisterConsumer, self._handle_register_consumer,
                              service)
        self._register_packet(TaskFinished, self._handle_task_finished,
                              self._task_finished_cycles)
        scope = self.scope
        self._stat_alloc_rejected = scope.counter_handle("alloc_rejected")
        self._stat_tasks_allocated = scope.counter_handle("tasks_allocated")
        self._stat_scalar_operands = scope.counter_handle("scalar_operands")
        self._stat_operands_decoded = scope.counter_handle("operands_decoded")
        self._stat_consumer_registrations = scope.counter_handle(
            "consumer_registrations")
        self._stat_ready_forwarded = scope.counter_handle("ready_forwarded")
        self._stat_data_ready = scope.counter_handle("data_ready")
        self._stat_tasks_decoded = scope.counter_handle("tasks_decoded")
        self._stat_tasks_ready = scope.counter_handle("tasks_ready")
        self._stat_tasks_finished = scope.counter_handle("tasks_finished")
        # Machine-wide histogram, deliberately unscoped: chain lengths are a
        # property of the dependence structure, not of any one TRS tile.
        self._stat_chain_forwards = self.stats.histogram_handle(
            "chain.forwards_per_task")

    def _bind_obs_handles(self) -> None:
        super()._bind_obs_handles()
        observer = self._observer
        if observer is not None:
            self._obs_task = observer.task_handle(self.name)
            self._obs_dep = observer.dep_handle(self.name)
            observer.add_probe(f"{self.name}.ready_tasks",
                               lambda: self._ready_inflight)
            observer.add_probe(f"{self.name}.blocks_used",
                               lambda: self.storage.used_blocks)
        else:
            self._obs_task = obs_noop
            self._obs_dep = obs_noop

    # -- Assembly -----------------------------------------------------------------

    def attach(self, trs_list: List, ovts: List, gateway, ready_queue) -> None:
        """Wire the TRS to its peers, the OVTs, the gateway and the ready queue."""
        self.trs_list = trs_list
        self.ovts = ovts
        self.gateway = gateway
        self.ready_queue = ready_queue

    def detach(self) -> None:
        """Undo :meth:`attach` and drop the decode callback."""
        self.trs_list = []
        self.ovts = []
        self.gateway = None
        self.ready_queue = None
        self.on_task_decoded = None

    # -- Introspection ---------------------------------------------------------------

    @property
    def inflight_tasks(self) -> int:
        """Number of tasks currently stored in this TRS."""
        return len(self._tasks)

    def get_entry(self, task: TaskID) -> Optional[_TaskEntry]:
        """Return the entry for ``task`` if it is still in flight."""
        return self._tasks.get(task.slot)

    # -- Packet service --------------------------------------------------------------

    def _task_finished_cycles(self, packet: TaskFinished) -> int:
        # The completion path walks every operand of the task.
        entry = self._tasks.get(packet.task.slot)
        operands = entry.record.num_operands if entry is not None else 1
        return (self.config.module_processing_cycles * max(1, operands)
                + self.config.edram_latency_cycles)

    # -- Allocation (Figure 6) ---------------------------------------------------------

    def _handle_alloc(self, request: AllocRequest) -> None:
        latency = self._latency
        if not self.storage.can_allocate(request.num_operands):
            self._reported_full = True
            self._stat_alloc_rejected.value += 1
            self.send(self.gateway, AllocReply(trs_index=self.index,
                                               buffer_slot=request.buffer_slot,
                                               task=None), latency=latency)
            return
        blocks = self.storage.allocate(request.num_operands)
        slot = self._next_slot
        self._next_slot += 1
        task = TaskID(self.index, slot)
        # The record itself arrives with the operand messages; store a
        # placeholder entry keyed by the slot now so those messages always
        # find their task.  The gateway fills in the record via the reply path.
        self._tasks[slot] = _TaskEntry(task=task, record=None,
                                       blocks=blocks,
                                       num_operands=request.num_operands)
        self._stat_tasks_allocated.value += 1
        self.send(self.gateway, AllocReply(trs_index=self.index,
                                           buffer_slot=request.buffer_slot,
                                           task=task), latency=latency)

    def bind_record(self, task: TaskID, record: TaskRecord) -> None:
        """Associate the task's trace record with its TRS entry.

        Called by the gateway (zero-cost bookkeeping: the hardware ships the
        task buffer alongside the operand messages; the model keeps a single
        shared record object instead of serialising it).
        """
        entry = self._tasks.get(task.slot)
        if entry is None:
            raise ProtocolError(f"{self.name}: cannot bind record to unknown task {task}")
        entry.record = record
        if len(entry.dir_col) != record.num_operands:
            raise ProtocolError(
                f"{self.name}: task {task} allocated for {len(entry.dir_col)} operands "
                f"but its record has {record.num_operands}"
            )

    # -- Operand decode ------------------------------------------------------------------

    def _entry_for(self, operand: OperandID) -> Optional[_TaskEntry]:
        entry = self._tasks.get(operand.slot)
        if entry is None:
            return None
        if operand.index >= len(entry.dir_col):
            raise ProtocolError(f"{self.name}: operand index out of range: {operand}")
        return entry

    def _handle_scalar(self, packet: ScalarOperand) -> None:
        operand = packet.operand
        entry = self._entry_for(operand)
        if entry is None:
            raise ProtocolError(f"{self.name}: scalar for unknown task {operand}")
        bit = 1 << operand.index
        entry.decoded_mask |= bit
        entry.input_mask |= bit
        entry.output_mask |= bit
        entry.avail_mask |= bit
        self._stat_scalar_operands.value += 1
        self._after_operand_update(entry)

    def _handle_operand_info(self, info: OperandInfo) -> None:
        operand = info.operand
        entry = self._entry_for(operand)
        if entry is None:
            raise ProtocolError(f"{self.name}: operand info for unknown task {operand}")
        index = operand.index
        bit = 1 << index
        if entry.decoded_mask & bit:
            raise ProtocolError(f"{self.name}: operand {operand} decoded twice")
        entry.decoded_mask |= bit
        direction = info.direction
        entry.dir_col[index] = direction
        entry.ovt_col[index] = info.ovt_index
        if direction is Direction.INPUT:
            entry.output_mask |= bit
            if info.previous_user is None:
                # ORT miss: the data already lives in memory.
                entry.input_mask |= bit
                entry.avail_mask |= bit
            else:
                self._register_with(info.previous_user, operand)
        elif direction is Direction.OUTPUT:
            entry.input_mask |= bit
            # output half satisfied with the OVT's rename data-ready.
        elif direction is Direction.INOUT:
            if info.previous_user is None:
                entry.input_mask |= bit
            else:
                self._register_with(info.previous_user, operand)
            # output half satisfied when the previous version is released.
        self._stat_operands_decoded.value += 1
        self._after_operand_update(entry)

    def _register_with(self, target: OperandID, consumer: OperandID) -> None:
        """Send a register-consumer request to the TRS holding ``target``."""
        self.send(self.trs_list[target.trs],
                  RegisterConsumer(target=target, consumer=consumer),
                  latency=self._latency)
        self._stat_consumer_registrations.value += 1

    # -- Consumer chaining (Figure 10) ------------------------------------------------------

    def _handle_register_consumer(self, packet: RegisterConsumer) -> None:
        target = packet.target
        entry = self._entry_for(target)
        if entry is None:
            # The target task already finished and was freed; its data is
            # necessarily available, so complete the chain immediately.
            if target not in self._retired:
                # Slots are numbered monotonically, so a slot at or past the
                # next one never existed; any other operand is not a vacant
                # head.
                if target.slot >= self._next_slot:
                    raise ProtocolError(
                        f"{self.name}: register-consumer for unknown operand "
                        f"{target}")
                raise ProtocolError(
                    f"{self.name}: operand {target} already has a chained "
                    "consumer (or was never a chain head)")
            self._retired.remove(target)
            self._forward_ready(target, packet.consumer)
            return
        index = target.index
        existing = entry.consumer_col[index]
        if existing is not None:
            raise ProtocolError(
                f"{self.name}: operand {target} already has a chained consumer "
                f"({existing}); the ORT should chain new consumers "
                "after the most recent user"
            )
        entry.consumer_col[index] = packet.consumer
        if entry.avail_mask & (1 << index):
            entry.forwarded_mask |= 1 << index
            self._forward_ready(target, packet.consumer)

    def _forward_ready(self, source: OperandID, consumer: OperandID) -> None:
        """Forward a data-ready message along the consumer chain."""
        self.send(self.trs_list[consumer.trs],
                  DataReady(operand=consumer, kind=ReadyKind.INPUT_DATA),
                  latency=self._latency)
        self._stat_ready_forwarded.value += 1
        self._obs_dep(self.now, (consumer.trs << 32) | consumer.slot,
                      (source.trs << 32) | source.slot)

    # -- Data-ready handling ----------------------------------------------------------------

    def _handle_data_ready(self, packet: DataReady) -> None:
        operand = packet.operand
        entry = self._entry_for(operand)
        if entry is None:
            # The owning task finished before this message arrived.  This can
            # only happen for OUTPUT_BUFFER messages racing a chain forward
            # (the task cannot have dispatched without all its ready halves),
            # so it indicates a protocol bug -- fail loudly.
            raise ProtocolError(
                f"{self.name}: data-ready for retired operand {operand}"
            )
        index = operand.index
        bit = 1 << index
        if not (entry.decoded_mask & bit):
            raise ProtocolError(
                f"{self.name}: data-ready for operand {operand} before its "
                "operand-info message"
            )
        kind = packet.kind
        if kind is ReadyKind.INPUT_DATA or kind is ReadyKind.FULL:
            entry.input_mask |= bit
            # Readers forward along the chain as soon as their data arrives --
            # the version's data exists, so further readers may proceed.
            # Writers (output/inout) must NOT be treated as forwardable yet:
            # their consumers wait for the data the *writer* will produce,
            # which only exists once the writer's task finishes.
            if entry.dir_col[index] is Direction.INPUT:
                entry.avail_mask |= bit
                consumer = entry.consumer_col[index]
                if consumer is not None and not (entry.forwarded_mask & bit):
                    entry.forwarded_mask |= bit
                    self._forward_ready(operand, consumer)
        if kind is ReadyKind.OUTPUT_BUFFER or kind is ReadyKind.FULL:
            entry.output_mask |= bit
        self._stat_data_ready.value += 1
        self._after_operand_update(entry)

    # -- Readiness and dispatch ---------------------------------------------------------------

    def _after_operand_update(self, entry: _TaskEntry) -> None:
        want = entry.want_mask
        if entry.decode_time is None and entry.decoded_mask == want:
            entry.decode_time = self.now
            self._stat_tasks_decoded.value += 1
            self._obs_task(EV_TASK_DECODED, self.now, entry.record.sequence)
            if self.on_task_decoded is not None:
                self.on_task_decoded(entry.task, entry.record, self.now)
        if (entry.ready_time is None
                and (entry.decoded_mask & entry.input_mask
                     & entry.output_mask) == want):
            entry.ready_time = self.now
            self._stat_tasks_ready.value += 1
            self._ready_inflight += 1
            self._obs_task(EV_TASK_READY, self.now, entry.record.sequence)
            self.send(self.ready_queue, TaskReady(task=entry.task, record=entry.record),
                      latency=self._latency)

    # -- Completion path -----------------------------------------------------------------------

    def _handle_task_finished(self, packet: TaskFinished) -> None:
        entry = self._tasks.get(packet.task.slot)
        if entry is None:
            raise ProtocolError(f"{self.name}: finish for unknown task {packet.task}")
        if entry.ready_time is None:
            raise ProtocolError(f"{self.name}: task {packet.task} finished before ready")
        latency = self._latency
        task = entry.task
        trs_index = self.index
        dir_col = entry.dir_col
        ovt_col = entry.ovt_col
        consumer_col = entry.consumer_col
        ovts = self.ovts
        retired = self._retired
        forwarded = entry.forwarded_mask
        chain_len = 0
        # Single pass over the operand columns: release the version of every
        # non-scalar operand, publish the written data to chained consumers,
        # and keep the vacant chain heads for late register-consumer messages.
        # Message order (per operand: version release, then writer forward)
        # matches the hardware's walk over the task's operand blocks.
        for index in range(len(dir_col)):
            operand_id = OperandID(trs_index, task.slot, index)
            ovt_index = ovt_col[index]
            if ovt_index is not None:
                # Scalars never acquire an OVT index, so this also skips them.
                self.send(ovts[ovt_index], VersionRelease(operand=operand_id),
                          latency=latency)
            consumer = consumer_col[index]
            direction = dir_col[index]
            if direction is Direction.OUTPUT or direction is Direction.INOUT:
                entry.avail_mask |= 1 << index
                if consumer is not None and not (forwarded & (1 << index)):
                    forwarded |= 1 << index
                    self._forward_ready(operand_id, consumer)
            if consumer is not None:
                chain_len += 1
            elif direction is not None:
                # Scalars never get a direction, so this keeps memory
                # operands only.
                retired.add(operand_id)
        entry.forwarded_mask = forwarded
        self._stat_chain_forwards.add(chain_len)
        self.storage.free(entry.blocks)
        del self._tasks[packet.task.slot]
        self._ready_inflight -= 1
        self._stat_tasks_finished.value += 1
        self._obs_task(EV_TASK_FREED, self.now, entry.record.sequence)
        if self._reported_full:
            # The gateway dropped this TRS from its free queue after a
            # rejected allocation; tell it storage is available again.
            self._reported_full = False
            self.send(self.gateway, TrsSpaceAvailable(trs_index=self.index),
                      latency=latency)
