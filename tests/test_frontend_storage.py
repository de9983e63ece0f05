"""Tests for the TRS block allocator, ORT renaming table and OVT version table."""

import tracemalloc

import pytest

from repro.backend.system import TaskSuperscalarSystem
from repro.common.config import default_table2_config
from repro.common.errors import AllocationError, CapacityError
from repro.common.ids import OperandID
from repro.common.units import MB
from repro.frontend.storage import (
    BlockStorage,
    RenamingTable,
    VersionTable,
)


class TestBlockStorage:
    def test_inode_layout_block_counts(self):
        storage = BlockStorage(num_blocks=100)
        # Figure 11: main block holds 4 operands, indirect blocks hold 5 each.
        assert storage.blocks_for(0) == 1
        assert storage.blocks_for(4) == 1
        assert storage.blocks_for(5) == 2
        assert storage.blocks_for(9) == 2
        assert storage.blocks_for(10) == 3
        assert storage.blocks_for(14) == 3
        assert storage.blocks_for(15) == 4
        assert storage.blocks_for(19) == 4

    def test_max_operands_is_19(self):
        storage = BlockStorage(num_blocks=10)
        assert storage.max_operands == 19
        with pytest.raises(CapacityError):
            storage.blocks_for(20)

    def test_allocate_and_free_roundtrip(self):
        storage = BlockStorage(num_blocks=8)
        main, indirect = storage.allocate(7)   # 2 blocks
        assert storage.used_blocks == 2
        assert storage.free_blocks == 6
        storage.free(main, indirect)
        assert storage.used_blocks == 0
        assert storage.free_blocks == 8

    def test_allocation_exhaustion(self):
        storage = BlockStorage(num_blocks=3)
        storage.allocate(4)
        storage.allocate(4)
        storage.allocate(4)
        assert not storage.can_allocate(1)
        with pytest.raises(AllocationError):
            storage.allocate(1)

    def test_blocks_are_not_double_allocated(self):
        storage = BlockStorage(num_blocks=16)
        seen = set()
        allocations = []
        for _ in range(8):
            main, indirect = storage.allocate(6)
            allocations.append((main, indirect))
            for block in [main, *indirect]:
                assert block not in seen
                seen.add(block)
        for main, indirect in allocations:
            storage.free(main, indirect)
        assert storage.free_blocks == 16

    def test_free_rejects_out_of_range(self):
        # (blocks to free first, block to free) -- each case on a fresh
        # storage of four blocks whose blocks 0 and 1 are handed out.
        cases = [
            ([], (10, [])),        # beyond the eDRAM
            ([], (-1, [])),        # negative
            ([], (3, [])),         # in range but never handed out
            ([], (0, [2])),        # an indirect block never handed out
            ([(0, []), (1, [])], (0, [])),  # a double free with none in use
            ([(0, [])], (1, [0])),  # block 0 freed again alongside block 1
        ]
        for freed, (main, indirect) in cases:
            storage = BlockStorage(num_blocks=4)
            storage.allocate(0)
            storage.allocate(0)
            for block, extra in freed:
                storage.free(block, extra)
            with pytest.raises(AllocationError):
                storage.free(main, indirect)
            assert storage.used_blocks == 2 - len(freed)

    def test_utilization(self):
        storage = BlockStorage(num_blocks=10)
        assert storage.utilization() == 0.0
        storage.allocate(4)
        assert storage.utilization() == pytest.approx(0.1)

    def test_system_build_memory_is_independent_of_trs_capacity(self):
        # 32 TRSs x 131,072 blocks: an effectively unbounded task window.
        # Storage is sized by the blocks in use, not by the nominal eDRAM,
        # so building the machine allocates next to nothing.
        config = default_table2_config().with_frontend(
            num_trs=32, total_trs_capacity_bytes=512 * MB)
        tracemalloc.start()
        try:
            TaskSuperscalarSystem(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * MB


def insert(table, address, version=0):
    return table.insert_row(address, OperandID(0, 0, 0), version)


class TestRenamingTable:
    def test_lookup_hit_and_miss(self):
        table = RenamingTable(num_sets=8, assoc=2)
        assert table.lookup_row(0x1000) == -1
        insert(table, 0x1000)
        row = table.lookup_row(0x1000)
        assert row >= 0 and table.user_col[row] == OperandID(0, 0, 0)

    def test_update_existing_entry_does_not_grow(self):
        table = RenamingTable(num_sets=4, assoc=2)
        row = insert(table, 0x1000, version=0)
        assert insert(table, 0x1000, version=1) == row
        assert table.occupancy == 1
        assert table.version_col[table.lookup_row(0x1000)] == 1

    def test_overflow_is_allowed_but_flagged(self):
        table = RenamingTable(num_sets=1, assoc=2)
        insert(table, 0x1000)
        insert(table, 0x2000)
        assert table.is_pressured()
        insert(table, 0x3000)
        assert table.overflow_insertions == 1
        assert table.occupancy == 3

    def test_pressure_clears_after_removal(self):
        table = RenamingTable(num_sets=1, assoc=2)
        insert(table, 0x1000, version=1)
        insert(table, 0x2000, version=2)
        assert table.is_pressured()
        assert table.remove(0x1000, version=1)
        assert not table.is_pressured()

    def test_versioned_removal_ignores_stale_version(self):
        table = RenamingTable(num_sets=2, assoc=4)
        insert(table, 0x1000, version=3)
        assert not table.remove(0x1000, version=2)
        assert table.lookup_row(0x1000) >= 0
        assert table.remove(0x1000, version=3)
        assert table.lookup_row(0x1000) == -1

    def test_remove_missing_returns_false(self):
        table = RenamingTable(num_sets=2, assoc=4)
        assert not table.remove(0xdead)

    def test_aligned_addresses_spread_across_sets(self):
        table = RenamingTable(num_sets=64, assoc=16)
        sets = {table.set_index(0x1000_0000 + i * 16 * 1024) for i in range(256)}
        assert len(sets) > 32

    def test_capacity_property(self):
        assert RenamingTable(num_sets=8, assoc=16).capacity == 128


class TestVersionTable:
    def test_writer_version_lifecycle(self):
        table = VersionTable(capacity=16)
        producer = OperandID(0, 0, 0)
        row = table.create(0x1000, producer=producer, version_id=7)
        assert table.usage_col[row] == 1
        assert table.addr_col[row] == 0x1000
        assert table.operand_version[producer] == 7
        assert table.release_use_row(producer) == row
        assert table.vid_col[row] == 7
        table.remove_row(row)
        assert table.live_versions == 0

    def test_reader_usage_counting(self):
        table = VersionTable(capacity=16)
        producer = OperandID(0, 0, 0)
        row = table.create(0x1000, producer=producer, version_id=0)
        readers = [OperandID(0, i + 1, 0) for i in range(3)]
        for reader in readers:
            table.add_user_row(row, reader)
        assert table.usage_col[row] == 4
        assert table.operand_version[readers[0]] == 0
        assert table.release_use_row(producer) == -1
        assert table.release_use_row(readers[0]) == -1
        assert table.release_use_row(readers[1]) == -1
        assert table.release_use_row(readers[2]) == row

    def test_release_unknown_operand_is_noop(self):
        table = VersionTable(capacity=4)
        assert table.release_use_row(OperandID(0, 9, 9)) == -1

    def test_external_version_ids(self):
        table = VersionTable(capacity=4)
        row = table.create(0x1000, producer=OperandID(0, 0, 0), version_id=42)
        assert table.vid_col[row] == 42
        assert table.row_of(42) == row
        with pytest.raises(AllocationError):
            table.create(0x2000, producer=None, version_id=42)

    def test_overflow_counted_not_fatal(self):
        table = VersionTable(capacity=1)
        table.create(0x1000, producer=None, version_id=0)
        assert table.is_pressured()
        table.create(0x2000, producer=None, version_id=1)
        assert table.overflow_creations == 1
        assert table.live_versions == 2

    def test_double_release_is_noop(self):
        table = VersionTable(capacity=4)
        producer = OperandID(0, 0, 0)
        row = table.create(0x1000, producer=producer, version_id=0)
        assert table.release_use_row(producer) == row
        # Releasing again is a no-op because the operand mapping is gone.
        assert table.release_use_row(producer) == -1

    def test_negative_usage_detected(self):
        table = VersionTable(capacity=4)
        table.create(0x1000, producer=None, version_id=5)
        # A reader-miss version starts with no users; a mapping made without
        # add_user_row leaves its usage count at zero.
        reader = OperandID(0, 1, 0)
        table.operand_version[reader] = 5
        with pytest.raises(AllocationError, match="went negative"):
            table.release_use_row(reader)

    def test_find_none(self):
        table = VersionTable(capacity=4)
        assert table.row_of(None) == -1
        assert table.row_of(123) == -1

