"""Storage models for the frontend's eDRAM structures.

Three untimed data structures back the timed pipeline modules:

* :class:`BlockStorage` -- the TRS's private eDRAM, managed as fixed
  128-byte blocks.  Variable-size tasks use an inode-inspired layout
  (Figure 11): one main block holding the task globals and the first four
  operands, plus up to three indirect blocks of five operands each (19
  operands maximum).
* :class:`RenamingTable` -- the ORT's map from object base address to its most
  recent user and current version, organised as a 16-way set-associative
  cache that never evicts (a full set stalls the gateway instead).
* :class:`VersionTable` -- the OVT's live versions (:class:`Version`): object
  address, usage count and the inout operand waiting for the version to die.

Only state that a timing decision, a statistic or a check reads is kept.
The paper charges each ORT and OVT access a fixed service time, so object
sizes and rename-buffer addresses would change no result.  Likewise, a
result depends on which table entries are live and on how many TRS blocks
are in use, never on where an entry or a block sits.  So each table is one
dict keyed by what the hardware matches on (an object address in the ORT, a
version ID in the OVT), the model's O(1) stand-in for the hardware's
parallel tag compare, and a TRS's eDRAM is a count of used blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import AllocationError, CapacityError
from repro.common.hashing import bucket_for
from repro.common.ids import OperandID


# ---------------------------------------------------------------------------
# TRS block storage (Figure 11)
# ---------------------------------------------------------------------------

class BlockStorage:
    """Fixed-size block allocator modelling a TRS's private eDRAM.

    Args:
        num_blocks: Total number of blocks (of 128 B in the paper) in the
            eDRAM array.
        operands_in_main_block: Operands stored in a task's main block (4).
        operands_per_indirect_block: Operands per indirect block (5).
        max_indirect_blocks: Maximum indirect blocks per task (3).

    Whether a task fits depends only on how many blocks are free, so the
    storage is the count ``used_blocks``; an eDRAM of any nominal size costs
    the same.  The paper caches the head of the free list in a small SRAM
    buffer so a typical allocation takes one cycle; the model does not time
    allocations here (the TRS charges one fixed service time per allocation
    request).
    """

    def __init__(self, num_blocks: int, operands_in_main_block: int = 4,
                 operands_per_indirect_block: int = 5,
                 max_indirect_blocks: int = 3):
        if num_blocks <= 0:
            raise CapacityError(f"TRS must have at least one block, got {num_blocks}")
        self.num_blocks = num_blocks
        self.operands_in_main_block = operands_in_main_block
        self.operands_per_indirect_block = operands_per_indirect_block
        self.max_indirect_blocks = max_indirect_blocks
        #: Blocks currently allocated.
        self.used_blocks = 0

    # -- Layout ------------------------------------------------------------------

    @property
    def max_operands(self) -> int:
        """Maximum operands a task may have under the inode layout (19)."""
        return (self.operands_in_main_block
                + self.max_indirect_blocks * self.operands_per_indirect_block)

    def blocks_for(self, num_operands: int) -> int:
        """Number of blocks (main + indirect) needed for ``num_operands``.

        Raises:
            CapacityError: if the operand count exceeds the layout's maximum.
        """
        if num_operands < 0:
            raise AllocationError(f"operand count must be non-negative, got {num_operands}")
        if num_operands > self.max_operands:
            raise CapacityError(
                f"a task with {num_operands} operands exceeds the {self.max_operands}-"
                "operand limit of the main+indirect block layout"
            )
        extra = max(0, num_operands - self.operands_in_main_block)
        indirect = (extra + self.operands_per_indirect_block - 1) // self.operands_per_indirect_block
        return 1 + indirect

    # -- Allocation ----------------------------------------------------------------

    def can_allocate(self, num_operands: int) -> bool:
        """True if a task with ``num_operands`` operands fits right now."""
        return self.used_blocks + self.blocks_for(num_operands) <= self.num_blocks

    def allocate(self, num_operands: int) -> int:
        """Allocate the blocks of a task and return how many it took.

        Raises:
            AllocationError: if there is not enough free space (callers are
                expected to check :meth:`can_allocate` first -- the hardware
                gateway only sends allocation requests to TRSs with space).
        """
        needed = self.blocks_for(num_operands)
        used = self.used_blocks + needed
        if used > self.num_blocks:
            raise AllocationError(
                f"cannot allocate {needed} blocks; only "
                f"{self.num_blocks - self.used_blocks} free")
        self.used_blocks = used
        return needed

    def free(self, blocks: int) -> None:
        """Return the ``blocks`` blocks of a finished task.

        Raises:
            AllocationError: if more blocks are returned than are in use (a
                double free), or a task returns no blocks at all.
        """
        if not 0 < blocks <= self.used_blocks:
            raise AllocationError(
                f"freeing {blocks} blocks with {self.used_blocks} in use "
                "(double free?)")
        self.used_blocks -= blocks


# ---------------------------------------------------------------------------
# ORT renaming table
# ---------------------------------------------------------------------------

class RenamingTable:
    """Set-associative object-renaming table that never evicts.

    The table is organised as ``num_sets`` sets of ``assoc`` ways.  The
    hardware hashes the object's base address to a set and matches the full
    address within it; the model holds every live entry in one dict,
    ``entries``, mapping ``address -> (last_user, version)``, which callers
    read directly.  :meth:`insert` and :meth:`remove` are its only writers,
    also for a reader hit that only updates the last user.  Each set keeps
    only its live-entry count, which the capacity policy below reads, so a
    lookup or an update of a live entry never hashes the address to its set;
    only adding or removing an entry does.

    Capacity policy: the hardware stalls the *gateway* when an allocation
    targets a full set, so no new work is admitted until an entry is released
    by the paired OVT.  Operands already inside the pipeline, however, must
    still decode correctly (dropping the mapping would silently lose a
    dependency), so the model lets a set transiently exceed its associativity
    and reports it through :meth:`is_pressured`, which the ORT converts into
    gateway back-pressure.  This keeps the
    performance effect of a small ORT (a throttled task window) while
    guaranteeing forward progress.  The divergence from the strict never-
    overflow hardware is counted in the ``overflow_insertions`` attribute,
    which tests read and no result reports; it stays tiny for the
    configurations of the paper.
    """

    def __init__(self, num_sets: int, assoc: int = 16):
        if num_sets <= 0:
            raise CapacityError("ORT must have at least one set")
        if assoc <= 0:
            raise CapacityError("ORT associativity must be positive")
        self.num_sets = num_sets
        self.assoc = assoc
        #: Total number of ways across all sets.
        self.capacity = num_sets * assoc
        #: ``address -> (last_user, version)`` over every set.
        self.entries: Dict[int, Tuple[OperandID, int]] = {}
        #: Live entries per set; only adding or removing an entry touches it.
        self._set_live: List[int] = [0] * num_sets
        #: Memoised ``address -> set index`` (the hash is pure, and operand
        #: addresses repeat across the tasks touching the same object).
        self._set_cache: Dict[int, int] = {}
        self._pressured_sets: int = 0
        self.overflow_insertions = 0

    def set_index(self, address: int) -> int:
        """Set index for ``address``.

        The paper hashes the address (rather than using low-order bits
        directly) to avoid load imbalance from varying object sizes and
        alignments.
        """
        index = self._set_cache.get(address)
        if index is None:
            index = bucket_for(address, self.num_sets, salt=1)
            self._set_cache[address] = index
        return index

    def insert(self, address: int, last_user: OperandID, version: int) -> None:
        """Insert or update the entry for ``address``.

        Adding an entry to a full set is allowed (see the class docstring) but
        recorded as an overflow and reflected by :meth:`is_pressured`.
        """
        entries = self.entries
        if address not in entries:
            index = self._set_cache.get(address)
            if index is None:
                index = self.set_index(address)
            live = self._set_live[index] + 1
            self._set_live[index] = live
            if live > self.assoc:
                self.overflow_insertions += 1
            elif live == self.assoc:
                self._pressured_sets += 1
        entries[address] = (last_user, version)

    def is_pressured(self) -> bool:
        """True when the table should back-pressure the gateway.

        The table is pressured while any set is at or beyond its
        associativity, or the total occupancy has reached the nominal
        capacity -- the situations in which the hardware would be stalling the
        gateway waiting for a release.  Checked on every ORT packet, so both
        terms are O(1) maintained counts, never scans.
        """
        return self._pressured_sets > 0 or len(self.entries) >= self.capacity

    def remove(self, address: int, version: int) -> bool:
        """Remove the entry for ``address`` if it still refers to ``version``.

        A later writer may already have superseded the version, in which case
        the entry stays.

        Returns:
            True if an entry was removed.
        """
        entry = self.entries.get(address)
        if entry is None or entry[1] != version:
            return False
        del self.entries[address]
        # Adding the entry memoised its set, so this never misses.
        index = self._set_cache[address]
        live = self._set_live[index] - 1
        self._set_live[index] = live
        if live == self.assoc - 1:
            # The set just dropped back below its associativity.
            self._pressured_sets -= 1
        return True

    @property
    def occupancy(self) -> int:
        """Total number of live entries."""
        return len(self.entries)


# ---------------------------------------------------------------------------
# OVT version table
# ---------------------------------------------------------------------------

@dataclass(slots=True, eq=False)
class Version:
    """One live version of a memory object, as an OVT entry holds it."""

    #: The identifier the paired ORT assigned.
    id: int
    #: The object's base address.
    address: int
    #: Operands still using the version (its writer and its readers).
    usage: int
    #: The inout operand of the superseding version, waiting for this one to
    #: die.
    waiting: Optional[OperandID] = None


class VersionTable:
    """The OVT's table of live versions plus per-operand version membership.

    ``versions`` maps each live version ID to its :class:`Version`; callers
    read it directly.  :meth:`create`, :meth:`add_user`,
    :meth:`release_use` and :meth:`remove` are its writers, and take and
    return :class:`Version` records.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise CapacityError("OVT capacity must be positive")
        self.capacity = capacity
        #: ``version_id -> Version`` for every live version.
        self.versions: Dict[int, Version] = {}
        #: ``operand -> version_id`` membership (kept on version IDs, not
        #: records: a mapping may legitimately outlive its version).
        self.operand_version: Dict[OperandID, int] = {}
        self.overflow_creations = 0

    @property
    def live_versions(self) -> int:
        """Number of versions currently live."""
        return len(self.versions)

    def is_pressured(self) -> bool:
        """True when the table is at or beyond its nominal capacity.

        Like the ORT (see :class:`RenamingTable`), a full OVT back-pressures
        the gateway rather than blocking operands already in the pipeline;
        versions created while pressured are counted in ``overflow_creations``.
        """
        return len(self.versions) >= self.capacity

    def create(self, address: int, producer: Optional[OperandID],
               version_id: int) -> Version:
        """Create a new version and return it.

        Args:
            producer: The writer operand, registered as the version's first
                user; ``None`` for a reader-miss version.
            version_id: The identifier the paired ORT assigned.  The ORT
                numbers versions itself so it can keep decoding without
                waiting for the OVT's reply.

        Raises:
            AllocationError: if ``version_id`` is already live.
        """
        versions = self.versions
        if len(versions) >= self.capacity:
            self.overflow_creations += 1
        if version_id in versions:
            raise AllocationError(f"version id {version_id} is already live")
        if producer is None:
            version = Version(version_id, address, 0)
        else:
            version = Version(version_id, address, 1)
            self.operand_version[producer] = version_id
        versions[version_id] = version
        return version

    def add_user(self, version: Version, operand: OperandID) -> None:
        """Register reader ``operand`` on ``version``: usage + 1 and
        ``operand -> version`` membership."""
        version.usage += 1
        self.operand_version[operand] = version.id

    def release_use(self, operand: OperandID) -> Optional[Version]:
        """Decrement the usage count of the version ``operand`` maps to.

        Returns:
            The version if the decrement drove its count to zero (i.e. the
            version is now dead and should be released), else ``None``.
        """
        version_id = self.operand_version.pop(operand, None)
        if version_id is None:
            return None
        version = self.versions.get(version_id)
        if version is None:
            return None
        usage = version.usage - 1
        if usage < 0:
            raise AllocationError(
                f"usage count of version {version_id} "
                f"(@{version.address:#x}) went negative"
            )
        version.usage = usage
        return version if usage == 0 else None

    def remove(self, version: Version) -> None:
        """Delete a (dead) version from the table."""
        del self.versions[version.id]
