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
        blocks = storage.allocate(7)
        assert blocks == 2
        assert storage.used_blocks == 2
        storage.free(blocks)
        assert storage.used_blocks == 0

    def test_allocation_exhaustion(self):
        storage = BlockStorage(num_blocks=3)
        storage.allocate(4)
        storage.allocate(4)
        storage.allocate(4)
        assert not storage.can_allocate(1)
        with pytest.raises(AllocationError):
            storage.allocate(1)
        assert storage.used_blocks == 3

    def test_free_rejects_out_of_range(self):
        # (counts to free first, count to free) -- each case on a fresh
        # storage of four blocks with two one-block tasks allocated.
        cases = [
            ([], 3),        # more blocks than are in use
            ([1, 1], 1),    # a double free with none in use
            ([1], 2),       # a block freed again alongside the last one
            ([], 0),        # a task always holds at least its main block
            ([], -1),       # negative
        ]
        for freed, blocks in cases:
            storage = BlockStorage(num_blocks=4)
            storage.allocate(0)
            storage.allocate(0)
            for count in freed:
                storage.free(count)
            with pytest.raises(AllocationError):
                storage.free(blocks)
            assert storage.used_blocks == 2 - len(freed)

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
    table.insert(address, OperandID(0, 0, 0), version)


class TestRenamingTable:
    def test_lookup_hit_and_miss(self):
        table = RenamingTable(num_sets=8, assoc=2)
        assert table.entries.get(0x1000) is None
        insert(table, 0x1000)
        assert table.entries[0x1000] == (OperandID(0, 0, 0), 0)

    def test_update_existing_entry_does_not_grow(self):
        table = RenamingTable(num_sets=4, assoc=2)
        insert(table, 0x1000, version=0)
        insert(table, 0x1000, version=1)
        assert table.occupancy == 1
        assert table.entries[0x1000][1] == 1
        # A reader hit only replaces the last user.
        table.insert(0x1000, OperandID(0, 5, 0), 1)
        assert table.occupancy == 1
        assert table.entries[0x1000] == (OperandID(0, 5, 0), 1)
        assert table.overflow_insertions == 0

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
        assert table.remove(0x1000, 1)
        assert not table.is_pressured()

    def test_versioned_removal_ignores_stale_version(self):
        table = RenamingTable(num_sets=2, assoc=4)
        insert(table, 0x1000, version=3)
        assert not table.remove(0x1000, 2)
        assert 0x1000 in table.entries
        assert table.remove(0x1000, 3)
        assert 0x1000 not in table.entries

    def test_remove_missing_returns_false(self):
        table = RenamingTable(num_sets=2, assoc=4)
        assert not table.remove(0xdead, 0)

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
        version = table.create(0x1000, producer=producer, version_id=7)
        assert (version.id, version.address, version.usage) == (7, 0x1000, 1)
        assert version.waiting is None
        assert table.versions[7] is version
        assert table.operand_version[producer] == 7
        assert table.release_use(producer) is version
        table.remove(version)
        assert table.live_versions == 0
        assert table.versions == {}

    def test_reader_usage_counting(self):
        table = VersionTable(capacity=16)
        producer = OperandID(0, 0, 0)
        version = table.create(0x1000, producer=producer, version_id=0)
        readers = [OperandID(0, i + 1, 0) for i in range(3)]
        for reader in readers:
            table.add_user(version, reader)
        assert version.usage == 4
        assert table.operand_version[readers[0]] == 0
        assert table.release_use(producer) is None
        assert table.release_use(readers[0]) is None
        assert table.release_use(readers[1]) is None
        assert table.release_use(readers[2]) is version
        assert version.usage == 0

    def test_release_unknown_operand_is_noop(self):
        table = VersionTable(capacity=4)
        assert table.release_use(OperandID(0, 9, 9)) is None

    def test_external_version_ids(self):
        table = VersionTable(capacity=4)
        version = table.create(0x1000, producer=OperandID(0, 0, 0), version_id=42)
        assert version.id == 42
        assert table.versions.get(42) is version
        with pytest.raises(AllocationError):
            table.create(0x2000, producer=None, version_id=42)
        assert table.live_versions == 1

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
        version = table.create(0x1000, producer=producer, version_id=0)
        assert table.release_use(producer) is version
        # Releasing again is a no-op because the operand mapping is gone.
        assert table.release_use(producer) is None

    def test_release_after_the_version_was_removed_is_noop(self):
        # A mapping may outlive its version: the release finds nothing.
        table = VersionTable(capacity=4)
        producer, reader = OperandID(0, 0, 0), OperandID(0, 1, 0)
        version = table.create(0x1000, producer=producer, version_id=0)
        table.add_user(version, reader)
        table.remove(version)
        assert table.release_use(reader) is None
        assert table.operand_version == {producer: 0}

    def test_negative_usage_detected(self):
        table = VersionTable(capacity=4)
        table.create(0x1000, producer=None, version_id=5)
        # A reader-miss version starts with no users; a mapping made without
        # add_user leaves its usage count at zero.
        reader = OperandID(0, 1, 0)
        table.operand_version[reader] = 5
        with pytest.raises(AllocationError, match="went negative"):
            table.release_use(reader)

    def test_find_none(self):
        table = VersionTable(capacity=4)
        assert table.versions.get(None) is None
        assert table.versions.get(123) is None
