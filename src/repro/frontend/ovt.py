"""Object versioning tables (Section IV.B.4).

An OVT accounts for the live versions of memory operands.  It breaks anti-
and output-dependencies either by renaming (an output operand gets a fresh
buffer -- the analogue of allocating a free physical register -- and is
ready at once) or by chaining inout operands and unblocking them in order
(sending a data-ready message whenever the previous version is released).
The paper allocates rename buffers from OS-assigned memory through
power-of-two buckets; the model charges the same fixed service time without
tracking their addresses.

Each OVT entry holds the object's address, a usage count (reported by the
ORT) and the inout operand waiting on the version.  When a version's usage
count reaches zero the OVT:

* notifies a waiting inout operand of the superseding version (its output
  half becomes ready),
* tells its paired ORT to release the object's entry if the dead version is
  still the newest one (which is what un-stalls a gateway blocked on a full
  ORT set).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import FrontendConfig
from repro.frontend.messages import (
    DataReady,
    EntryRelease,
    ReadyKind,
    VersionKind,
    VersionRelease,
    VersionRequest,
    VersionUse,
)
from repro.frontend.ort import BackPressureTile
from repro.frontend.storage import VersionTable
from repro.sim.engine import Engine
from repro.sim.stats import StatsCollector


class ObjectVersioningTable(BackPressureTile):
    """Timed model of one OVT tile.

    A full OVT back-pressures the gateway exactly like a pressured ORT (the
    paper's OVT design-space exploration trades capacity against the
    achievable window the same way), while versions required for the
    correctness of operands already in the pipeline are still created and
    accounted as overflow.
    """

    def __init__(self, engine: Engine, index: int, config: FrontendConfig,
                 stats: Optional[StatsCollector] = None):
        super().__init__(engine, f"ovt{index}", stats)
        self.table = VersionTable(capacity=config.ovt_entries_per_module)
        #: Wired by the pipeline assembly.
        self.ort = None
        self.trs_list: List = []
        self._latency = config.message_latency_cycles
        service = config.module_processing_cycles + config.edram_latency_cycles
        self._register_packet(VersionRequest, self._handle_create_packet, service)
        self._register_packet(VersionUse, self._handle_use_packet, service)
        self._register_packet(VersionRelease, self._handle_release_packet, service)
        scope = self.scope
        self._stat_reader_miss_versions = scope.counter_handle(
            "reader_miss_versions")
        self._stat_renames = scope.counter_handle("renames")
        self._stat_inout_waits = scope.counter_handle("inout_waits")
        self._stat_inout_immediate = scope.counter_handle("inout_immediate")
        self._stat_use_after_release = scope.counter_handle("use_after_release")
        self._stat_inout_released = scope.counter_handle("inout_released")
        self._stat_versions_released = scope.counter_handle("versions_released")

    def _bind_obs_handles(self) -> None:
        super()._bind_obs_handles()
        if self._observer is not None:
            self._observer.add_probe(f"{self.name}.versions",
                                     lambda: self.table.live_versions)

    # -- Assembly -----------------------------------------------------------------

    def attach(self, ort, trs_list: List, gateway=None) -> None:
        """Wire the OVT to its paired ORT, the TRSs and (optionally) the gateway."""
        self.ort = ort
        self.trs_list = trs_list
        self.gateway = gateway

    def detach(self) -> None:
        """Undo :meth:`attach`."""
        self.ort = None
        self.trs_list = []
        self.gateway = None

    # -- Packet service -----------------------------------------------------------

    def _handle_create_packet(self, request: VersionRequest) -> None:
        self._create_version(request)
        self.update_pressure()

    def _handle_use_packet(self, use: VersionUse) -> None:
        self._add_user(use)
        self.update_pressure()

    def _handle_release_packet(self, release: VersionRelease) -> None:
        self._release_use(release)
        self.update_pressure()

    # -- Version management --------------------------------------------------------

    def _create_version(self, request: VersionRequest) -> None:
        table = self.table
        producer = None if request.kind is VersionKind.READER_MISS else request.operand
        version = table.create(address=request.address, producer=producer,
                               version_id=request.version_id)
        if request.kind is VersionKind.READER_MISS:
            # Track the missing reader as a user so the version lives until it
            # finishes (create() only auto-registers writers).
            table.add_user(version, request.operand)
            self._stat_reader_miss_versions.value += 1
            return
        latency = self._latency
        trs = self.trs_list[request.operand.trs]
        if request.kind is VersionKind.OUTPUT:
            # Renamed: the output buffer is available immediately (Figure 7).
            self.send(trs, DataReady(operand=request.operand,
                                     kind=ReadyKind.OUTPUT_BUFFER),
                      latency=latency)
            self._stat_renames.value += 1
            return
        # INOUT: the output half is gated on the release of the previous
        # version (Figure 9).  If there is no live previous version, the
        # buffer is free right away.
        previous = table.versions.get(request.previous_version)
        if previous is not None and previous.usage > 0:
            previous.waiting = request.operand
            self._stat_inout_waits.value += 1
        else:
            self.send(trs, DataReady(operand=request.operand,
                                     kind=ReadyKind.OUTPUT_BUFFER), latency=latency)
            self._stat_inout_immediate.value += 1

    def _add_user(self, use: VersionUse) -> None:
        table = self.table
        version = table.versions.get(use.version)
        if version is None:
            # The version died between the ORT's lookup and this message being
            # processed; the reader's data is already in memory, so nothing is
            # lost -- just account for it.
            self._stat_use_after_release.value += 1
            return
        table.add_user(version, use.operand)

    def _release_use(self, release: VersionRelease) -> None:
        table = self.table
        version = table.release_use(release.operand)
        if version is None:
            return
        latency = self._latency
        waiting = version.waiting
        if waiting is not None:
            # Unblock the inout operand of the superseding version: all the
            # readers of the previous version have drained.
            trs = self.trs_list[waiting.trs]
            self.send(trs, DataReady(operand=waiting,
                                     kind=ReadyKind.OUTPUT_BUFFER), latency=latency)
            self._stat_inout_released.value += 1
        if self.ort is not None:
            self.send(self.ort, EntryRelease(address=version.address,
                                             version=version.id),
                      latency=latency)
        table.remove(version)
        self._stat_versions_released.value += 1
