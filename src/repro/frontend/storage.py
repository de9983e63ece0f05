"""Storage models for the frontend's eDRAM structures.

Three untimed data structures back the timed pipeline modules:

* :class:`BlockStorage` -- the TRS's private eDRAM, managed as an array of
  fixed 128-byte blocks.  Variable-size tasks use an inode-inspired layout
  (Figure 11): one main block holding the task globals and the first four
  operands, plus up to three indirect blocks of five operands each (19
  operands maximum).  Returned blocks are kept on a LIFO free list; blocks
  never handed out are not materialised at all, so an eDRAM of any nominal
  size costs only what its live window uses.
* :class:`RenamingTable` -- the ORT's map from object base address to its most
  recent user and current version, organised as a 16-way set-associative
  cache that never evicts (a full set stalls the gateway instead).
* :class:`VersionTable` -- the OVT's version records: object address, usage
  count and the inout operand waiting for the version to die.

Only state that a timing decision, a statistic or a check reads is kept:
the paper charges each ORT and OVT access a fixed service time, so object
sizes and rename-buffer addresses would change no result.

The renaming and version tables are stored **structure-of-arrays**: one
``array('q')`` column per integer field (version, use count, ...) plus
parallel object columns for the operand IDs, indexed by a recycled row
number.  This mirrors the hardware's fixed tag/payload arrays -- a live entry
is a row whose valid bit is set, not a Python object -- and removes the
per-entry object allocation and attribute traffic that previously dominated
the decode hot path.  Row lookup goes through one index dict per table, the
model's O(1) stand-in for the hardware's parallel 16-way tag compare; the ORT
keeps only a live-row count per set, which is all its capacity policy reads.
Each table has one interface -- row lookup, insert, release, remove and
direct column access -- used the same way by the timed modules
(:mod:`repro.frontend.ort`, :mod:`repro.frontend.ovt`) and by the unit and
property-based tests.
"""

from __future__ import annotations

from array import array
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

    The free list is kept lazily: blocks returned by :meth:`free` sit on a
    LIFO and are popped first, and blocks never handed out are taken in
    ascending order from a bump pointer.  That is the order an eagerly built
    LIFO of every block (lowest index on top) would give, while costing only
    the blocks that have been in use at once.

    The paper caches the head of the free list in a small SRAM buffer so a
    typical allocation takes one cycle; the model does not time allocations
    here (the TRS charges one fixed service time per allocation request).
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
        #: Returned blocks, a LIFO popped before any fresh block.
        self._free: List[int] = []
        #: Bump pointer: blocks ``[_next, num_blocks)`` were never handed out.
        self._next = 0

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

    @property
    def free_blocks(self) -> int:
        """Number of currently free blocks."""
        return self.num_blocks - self._next + len(self._free)

    @property
    def used_blocks(self) -> int:
        """Number of currently allocated blocks."""
        return self._next - len(self._free)

    def can_allocate(self, num_operands: int) -> bool:
        """True if a task with ``num_operands`` operands fits right now."""
        return (self.blocks_for(num_operands)
                <= self.num_blocks - self._next + len(self._free))

    def allocate(self, num_operands: int) -> Tuple[int, List[int]]:
        """Allocate blocks for a task.

        Returns:
            ``(main_block, indirect_blocks)``.  Block indices are storage
            addresses only; the TRS numbers its task slots separately.

        Raises:
            AllocationError: if there is not enough free space (callers are
                expected to check :meth:`can_allocate` first -- the hardware
                gateway only sends allocation requests to TRSs with space).
        """
        needed = self.blocks_for(num_operands)
        free = self._free
        if needed <= len(free):
            blocks = [free.pop() for _ in range(needed)]
        else:
            fresh = self._next
            stop = fresh + needed - len(free)
            if stop > self.num_blocks:
                raise AllocationError(
                    f"cannot allocate {needed} blocks; only "
                    f"{self.num_blocks - fresh + len(free)} free"
                )
            blocks = free[::-1]
            free.clear()
            blocks.extend(range(fresh, stop))
            self._next = stop
        return blocks[0], blocks[1:]

    def free(self, main_block: int, indirect_blocks: List[int]) -> None:
        """Return a task's blocks to the free list.

        Raises:
            AllocationError: if a block was never handed out, or if more
                blocks are returned than are in use (a double free).
        """
        blocks = [main_block, *indirect_blocks]
        handed_out = self._next
        for block in blocks:
            if block < 0 or block >= handed_out:
                raise AllocationError(f"block index {block} was never allocated")
        free = self._free
        if len(free) + len(blocks) > handed_out:
            raise AllocationError(
                f"freeing {len(blocks)} blocks with only "
                f"{handed_out - len(free)} in use (double free?)"
            )
        free.extend(blocks)

    def utilization(self) -> float:
        """Fraction of blocks currently allocated."""
        return self.used_blocks / self.num_blocks


# ---------------------------------------------------------------------------
# ORT renaming table
# ---------------------------------------------------------------------------

class RenamingTable:
    """Set-associative object-renaming table that never evicts.

    The table is organised as ``num_sets`` sets of ``assoc`` ways.  Lookups
    hash the object's base address to a set and match the full address within
    the set.

    Storage is structure-of-arrays: ``version_col`` is an ``array('q')``
    column and ``user_col`` the parallel object column holding each row's
    last-user operand ID.  A freed row's ``user_col`` entry is reset to
    ``None`` and the row is recycled through a free list.  The hardware
    locates an entry with a parallel tag compare across the 16 ways of a
    set; the model's O(1) equivalent is one ``{address: row}`` index dict
    over all sets.  Each set keeps only its live-row count, which the
    capacity policy below reads, so a lookup or an update of a live row never
    hashes the address to its set; only inserting or removing a row does.
    The interface is :meth:`lookup_row` / :meth:`insert_row` /
    :meth:`remove` plus direct column access.

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
        #: Packed columns, indexed by row; rows are recycled via ``_free_rows``.
        self.version_col = array("q")
        self.user_col: List[Optional[OperandID]] = []
        self._free_rows: List[int] = []
        #: ``{address: row}`` over every set (the parallel tag compare).
        self._row_of: Dict[int, int] = {}
        #: Live rows per set; only inserting or removing a row touches it.
        self._set_rows: List[int] = [0] * num_sets
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

    def lookup_row(self, address: int) -> int:
        """Row holding ``address``, or -1."""
        return self._row_of.get(address, -1)

    def insert_row(self, address: int, last_user: OperandID,
                   version: int) -> int:
        """Insert or update the row for ``address`` and return it.

        Inserting into a full set is allowed (see the class docstring) but
        recorded as an overflow and reflected by :meth:`is_pressured`.
        """
        row = self._row_of.get(address, -1)
        if row >= 0:
            self.version_col[row] = version
            self.user_col[row] = last_user
            return row
        index = self._set_cache.get(address)
        if index is None:
            index = self.set_index(address)
        live = self._set_rows[index] + 1
        self._set_rows[index] = live
        if live > self.assoc:
            self.overflow_insertions += 1
        elif live == self.assoc:
            self._pressured_sets += 1
        free = self._free_rows
        if free:
            row = free.pop()
            self.version_col[row] = version
            self.user_col[row] = last_user
        else:
            row = len(self.user_col)
            self.version_col.append(version)
            self.user_col.append(last_user)
        self._row_of[address] = row
        return row

    def is_pressured(self) -> bool:
        """True when the table should back-pressure the gateway.

        The table is pressured while any set is at or beyond its
        associativity, or the total occupancy has reached the nominal
        capacity -- the situations in which the hardware would be stalling the
        gateway waiting for a release.  Checked on every ORT packet, so both
        terms are O(1) maintained counts, never scans.
        """
        return self._pressured_sets > 0 or len(self._row_of) >= self.capacity

    def remove(self, address: int, version: Optional[int] = None) -> bool:
        """Remove the entry for ``address``.

        Args:
            address: Base address of the object.
            version: If given, only remove the entry when it still refers to
                this version (a later writer may have already superseded it).

        Returns:
            True if an entry was removed.
        """
        row = self._row_of.get(address, -1)
        if row < 0:
            return False
        if version is not None and self.version_col[row] != version:
            return False
        del self._row_of[address]
        self.user_col[row] = None
        self._free_rows.append(row)
        # Inserting the row memoised its set, so this never misses.
        index = self._set_cache[address]
        live = self._set_rows[index] - 1
        self._set_rows[index] = live
        if live == self.assoc - 1:
            # The set just dropped back below its associativity.
            self._pressured_sets -= 1
        return True

    @property
    def occupancy(self) -> int:
        """Total number of live entries."""
        return len(self._row_of)


# ---------------------------------------------------------------------------
# OVT version table
# ---------------------------------------------------------------------------

class VersionTable:
    """The OVT's table of live versions plus per-operand version membership.

    Structure-of-arrays: every live version is a row across the packed
    columns ``vid_col`` / ``addr_col`` / ``usage_col`` (``array('q')``) and
    the parallel object column ``waiting_col``, the inout operand of the
    superseding version waiting for this one to die.  Rows are located
    through the ``{version_id: row}`` index and recycled through a free
    list; a freed row's ``vid_col`` is reset to ``-1`` (its valid bit).
    The interface is :meth:`create` / :meth:`row_of` / :meth:`add_user_row` /
    :meth:`release_use_row` / :meth:`remove_row` plus direct column access.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise CapacityError("OVT capacity must be positive")
        self.capacity = capacity
        #: Packed columns, indexed by row; rows are recycled via ``_free_rows``.
        self.vid_col = array("q")
        self.addr_col = array("q")
        self.usage_col = array("q")
        self.waiting_col: List[Optional[OperandID]] = []
        self._row_of: Dict[int, int] = {}
        self._free_rows: List[int] = []
        #: ``operand -> version_id`` membership (kept on version IDs, not
        #: rows: a mapping may legitimately outlive its version, and rows are
        #: recycled).
        self.operand_version: Dict[OperandID, int] = {}
        self.overflow_creations = 0

    @property
    def live_versions(self) -> int:
        """Number of versions currently live."""
        return len(self._row_of)

    def is_pressured(self) -> bool:
        """True when the table is at or beyond its nominal capacity.

        Like the ORT (see :class:`RenamingTable`), a full OVT back-pressures
        the gateway rather than blocking operands already in the pipeline;
        versions created while pressured are counted in ``overflow_creations``.
        """
        return len(self._row_of) >= self.capacity

    def create(self, address: int, producer: Optional[OperandID],
               version_id: int) -> int:
        """Create a new version and return its row.

        Args:
            producer: The writer operand, registered as the version's first
                user; ``None`` for a reader-miss version.
            version_id: The identifier the paired ORT assigned.  The ORT
                numbers versions itself so it can keep decoding without
                waiting for the OVT's reply.

        Raises:
            AllocationError: if ``version_id`` is already live.
        """
        if len(self._row_of) >= self.capacity:
            self.overflow_creations += 1
        if version_id in self._row_of:
            raise AllocationError(f"version id {version_id} is already live")
        usage = 0
        if producer is not None:
            usage = 1
            self.operand_version[producer] = version_id
        free = self._free_rows
        if free:
            row = free.pop()
            self.vid_col[row] = version_id
            self.addr_col[row] = address
            self.usage_col[row] = usage
        else:
            row = len(self.vid_col)
            self.vid_col.append(version_id)
            self.addr_col.append(address)
            self.usage_col.append(usage)
            self.waiting_col.append(None)
        self._row_of[version_id] = row
        return row

    def row_of(self, version_id: Optional[int]) -> int:
        """Row of a live version, or -1 if it was already released."""
        if version_id is None:
            return -1
        return self._row_of.get(version_id, -1)

    def add_user_row(self, row: int, operand: OperandID) -> None:
        """Register reader ``operand`` on the version in ``row``: usage + 1
        and ``operand -> version`` membership."""
        self.usage_col[row] += 1
        self.operand_version[operand] = self.vid_col[row]

    def release_use_row(self, operand: OperandID) -> int:
        """Decrement the usage count of the version ``operand`` maps to.

        Returns:
            The version's row if the decrement drove the count to zero (i.e.
            the version is now dead and should be released), else ``-1``.
        """
        version_id = self.operand_version.pop(operand, None)
        if version_id is None:
            return -1
        row = self._row_of.get(version_id, -1)
        if row < 0:
            return -1
        usage = self.usage_col[row] - 1
        if usage < 0:
            raise AllocationError(
                f"usage count of version {version_id} "
                f"(@{self.addr_col[row]:#x}) went negative"
            )
        self.usage_col[row] = usage
        return row if usage == 0 else -1

    def remove_row(self, row: int) -> None:
        """Delete a (dead) version row from the table."""
        version_id = self.vid_col[row]
        del self._row_of[version_id]
        self.vid_col[row] = -1
        self.waiting_col[row] = None
        self._free_rows.append(row)
