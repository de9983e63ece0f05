"""Object renaming tables (Section IV.B.3).

An ORT maps memory operands to the most recent task operand accessing the
same memory object -- the task-level analogue of the register renaming table.
Storing *any* user (producer or consumer) rather than only real producers is
what enables TRS consumer chaining.

Key behaviours reproduced from the paper:

* Maps are organised as a 16-way set-associative cache over the object base
  address; tags are read from eDRAM (two sequential 64 B blocks) and matched
  against the full address.
* The ORT **never evicts**: when an insertion targets a full set, the ORT
  stalls the gateway until an entry is released (entries are released by the
  paired OVT when the newest version of the object dies).
* Read-only operands that hit (RaR/RaW) forward the previous user's operand
  ID to the designated TRS; writer operands (output/inout) create a new
  version in the paired OVT; misses create a new version as well.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import FrontendConfig
from repro.common.errors import ProtocolError
from repro.frontend.messages import (
    EntryRelease,
    OperandDecodeRequest,
    OperandInfo,
    VersionKind,
    VersionRequest,
    VersionUse,
)
from repro.frontend.storage import RenamingTable
from repro.sim.engine import Engine
from repro.sim.module import PacketProcessor
from repro.sim.stats import StatsCollector
from repro.trace.records import Direction


class BackPressureTile(PacketProcessor):
    """A frontend tile whose table back-pressures the gateway (ORT and OVT).

    Subclasses set ``table`` (anything with ``is_pressured()``); the
    pipeline assembly wires ``gateway``.
    """

    def __init__(self, engine: Engine, name: str,
                 stats: Optional[StatsCollector] = None):
        super().__init__(engine, name, stats)
        self.gateway = None
        self._stalling = False
        self._stat_gateway_stalls = self.scope.counter_handle("gateway_stalls")

    def update_pressure(self) -> None:
        """Stall or resume the gateway based on table occupancy.

        The hardware stalls the gateway whenever an allocation targets a full
        set, and resumes once the paired OVT releases an entry.  The model
        expresses the same behaviour as a level-triggered condition: while the
        table is pressured (for the ORT, a set at/over its associativity or
        the table at its nominal capacity; for the OVT, the table full) no
        new tasks are admitted; operands already inside the pipeline keep
        decoding so forward progress is always possible (see
        :class:`repro.frontend.storage.RenamingTable`).
        """
        if self.gateway is None:
            return
        pressured = self.table.is_pressured()
        if pressured and not self._stalling:
            self._stalling = True
            self._stat_gateway_stalls.value += 1
            self.gateway.add_stall(self.name)
        elif not pressured and self._stalling:
            self._stalling = False
            self.gateway.remove_stall(self.name)


class ObjectRenamingTable(BackPressureTile):
    """Timed model of one ORT tile."""

    def __init__(self, engine: Engine, index: int, config: FrontendConfig,
                 stats: Optional[StatsCollector] = None):
        super().__init__(engine, f"ort{index}", stats)
        self.index = index
        self.table = RenamingTable(num_sets=config.ort_sets_per_module,
                                   assoc=config.ort_assoc)
        #: Wired by the pipeline assembly.
        self.ovt = None
        self.trs_list: List = []
        self._next_version = 0
        self._latency = config.message_latency_cycles
        processing = config.module_processing_cycles
        edram = config.edram_latency_cycles
        # Tag blocks are read sequentially from eDRAM (two 64 B blocks)
        # before the entry itself is accessed.
        self._register_packet(OperandDecodeRequest, self._handle_decode_packet,
                              processing + 2 * edram)
        self._register_packet(EntryRelease, self._handle_release_packet,
                              processing + edram)
        scope = self.scope
        self._stat_reader_hits = scope.counter_handle("reader_hits")
        self._stat_reader_misses = scope.counter_handle("reader_misses")
        self._stat_writer_decodes = scope.counter_handle("writer_decodes")
        self._stat_inout_decodes = scope.counter_handle("inout_decodes")
        self._stat_entries_released = scope.counter_handle("entries_released")

    def _bind_obs_handles(self) -> None:
        super()._bind_obs_handles()
        if self._observer is not None:
            self._observer.add_probe(f"{self.name}.entries",
                                     lambda: self.table.occupancy)

    # -- Assembly -----------------------------------------------------------------

    def attach(self, ovt, trs_list: List, gateway) -> None:
        """Wire the ORT to its paired OVT, the TRSs and the gateway."""
        self.ovt = ovt
        self.trs_list = trs_list
        self.gateway = gateway

    def detach(self) -> None:
        """Undo :meth:`attach`."""
        self.ovt = None
        self.trs_list = []
        self.gateway = None

    # -- Packet service -----------------------------------------------------------

    def _handle_decode_packet(self, request: OperandDecodeRequest) -> None:
        self._decode_operand(request)
        self.update_pressure()

    def _handle_release_packet(self, release: EntryRelease) -> None:
        self._release_entry(release)
        self.update_pressure()

    # -- Decode flows (Figures 7, 8, 9) ------------------------------------------------

    def _decode_operand(self, request: OperandDecodeRequest) -> None:
        direction = request.direction
        if direction is Direction.INPUT:
            self._decode_input(request)
        elif direction is Direction.OUTPUT:
            self._decode_output(request)
        elif direction is Direction.INOUT:
            self._decode_inout(request)
        else:  # pragma: no cover - Direction is a closed enum
            raise ProtocolError(f"unknown operand direction {direction!r}")

    def _decode_input(self, request: OperandDecodeRequest) -> None:
        """Figure 8: match the reader with the most recent user of the object."""
        table = self.table
        entry = table.entries.get(request.address)
        latency = self._latency
        if entry is not None:
            previous_user, version_id = entry
            self.send(self.ovt, VersionUse(operand=request.operand,
                                           version=version_id),
                      latency=latency)
            self._send_operand_info(request, previous_user)
            table.insert(request.address, request.operand, version_id)
            self._stat_reader_hits.value += 1
        else:
            # Miss: the data is already in memory.  A new version is created to
            # track the object's in-flight readers (the paper creates a version
            # on every miss), and the operand is immediately data-ready.
            version_id = self._allocate_version_id()
            self.send(self.ovt, VersionRequest(operand=request.operand,
                                               address=request.address,
                                               kind=VersionKind.READER_MISS,
                                               version_id=version_id,
                                               previous_version=None), latency=latency)
            table.insert(request.address, request.operand, version_id)
            self._send_operand_info(request, None)
            self._stat_reader_misses.value += 1

    def _decode_output(self, request: OperandDecodeRequest) -> None:
        """Figure 7: rename the object; the operand is ready once renamed."""
        table = self.table
        entry = table.entries.get(request.address)
        previous_version = entry[1] if entry is not None else None
        version_id = self._allocate_version_id()
        latency = self._latency
        self._send_operand_info(request, None)
        self.send(self.ovt, VersionRequest(operand=request.operand,
                                           address=request.address,
                                           kind=VersionKind.OUTPUT,
                                           version_id=version_id,
                                           previous_version=previous_version),
                  latency=latency)
        table.insert(request.address, request.operand, version_id)
        self._stat_writer_decodes.value += 1

    def _decode_inout(self, request: OperandDecodeRequest) -> None:
        """Figure 9: true dependency -- chain the input, gate the output."""
        table = self.table
        entry = table.entries.get(request.address)
        if entry is not None:
            previous_user, previous_version = entry
        else:
            previous_user = previous_version = None
        version_id = self._allocate_version_id()
        latency = self._latency
        self._send_operand_info(request, previous_user)
        self.send(self.ovt, VersionRequest(operand=request.operand,
                                           address=request.address,
                                           kind=VersionKind.INOUT,
                                           version_id=version_id,
                                           previous_version=previous_version),
                  latency=latency)
        table.insert(request.address, request.operand, version_id)
        self._stat_inout_decodes.value += 1

    # -- Helpers -------------------------------------------------------------------------

    def _allocate_version_id(self) -> int:
        version_id = self._next_version
        self._next_version += 1
        return version_id

    def _send_operand_info(self, request: OperandDecodeRequest,
                           previous_user) -> None:
        info = OperandInfo(operand=request.operand, direction=request.direction,
                           previous_user=previous_user, ovt_index=self.index)
        self.send(self.trs_list[request.operand.trs], info,
                  latency=self._latency)

    def _release_entry(self, release: EntryRelease) -> None:
        if self.table.remove(release.address, release.version):
            self._stat_entries_released.value += 1
