"""Edge-case tests for the frontend tables and the packed TRS operand state.

The ORT/OVT tables are dicts of live entries with per-set counts, and the
TRS operand state is packed into bitmasks (see :mod:`repro.frontend.storage`
and :mod:`repro.frontend.trs`).  These tests pin the boundaries of that
representation:

* a renaming-table set filled to its associativity stalls the gateway and
  drains again on entry release, and released entries leave nothing behind
  in the table or its set counts;
* a consumer chain registered against an operand of an already-freed task
  resolves through its vacant chain head, and the one-consumer-per-operand
  invariant survives the task's storage being recycled;
* a 15-operand task -- main block plus all three indirect blocks, with
  chain activity above bit 7 -- decodes, readies and frees through the wide
  bit-vectors.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.common.errors import ProtocolError
from repro.common.ids import OperandID, TaskID
from repro.frontend.messages import RegisterConsumer
from repro.trace.records import Direction, OperandRecord

from tests.test_frontend_modules import mem, record, small_frontend


def colliding_addresses(table, count, start=0x100000, stride=0x1000):
    """``count`` distinct object addresses hashing to one renaming-table set."""
    by_set = {}
    address = start
    while True:
        bucket = by_set.setdefault(table.set_index(address), [])
        bucket.append(address)
        if len(bucket) == count:
            return bucket
        address += stride


class TestRenamingTableSetPressure:
    def test_full_set_stalls_gateway_and_drains_on_release(self):
        engine, frontend = small_frontend(num_trs=1, ort_assoc=2)
        ort = frontend.orts[0]
        addresses = colliding_addresses(ort.table, 3)
        # Two writers fill the 2-way set exactly; the third overflows it.
        for i, address in enumerate(addresses):
            frontend.try_submit(record(i, [mem(address, Direction.OUTPUT)]))
        engine.run()
        assert ort.table.is_pressured()
        assert ort.table.overflow_insertions == 1
        assert frontend.gateway.is_stalled
        assert frontend.stats.counter("ort0.gateway_stalls") == 1
        # Finishing the tasks releases their versions; the resulting
        # EntryRelease messages empty the set and lift the stall.
        for i in range(3):
            frontend.notify_finished(TaskID(0, i))
        engine.run()
        assert ort.table.occupancy == 0
        assert not ort.table.is_pressured()
        assert not frontend.gateway.is_stalled

    def test_released_entries_leave_nothing_behind(self):
        engine, frontend = small_frontend(num_trs=1)
        ort, ovt = frontend.orts[0], frontend.ovts[0]

        def assert_holds_exactly(addresses):
            table = ort.table
            assert set(table.entries) == set(addresses)
            per_set = Counter(table.set_index(a) for a in addresses)
            assert table._set_live == [per_set[i]
                                       for i in range(table.num_sets)]
            assert ovt.table.live_versions == len(addresses)

        first = [0x10000 + i * 0x1000 for i in range(4)]
        for i, address in enumerate(first):
            frontend.try_submit(record(i, [mem(address, Direction.OUTPUT)]))
        engine.run()
        assert_holds_exactly(first)
        for i in range(4):
            frontend.notify_finished(TaskID(0, i))
        engine.run()
        assert_holds_exactly([])
        assert ovt.table.operand_version == {}
        # A fresh wave of objects holds exactly its own entries.
        second = [0x90000 + i * 0x1000 for i in range(4)]
        for i, address in enumerate(second):
            frontend.try_submit(record(4 + i, [mem(address,
                                                   Direction.OUTPUT)]))
        engine.run()
        assert_holds_exactly(second)


class TestRetiredOperandStubs:
    def test_late_registration_resolves_through_retired_stub(self):
        engine, frontend = small_frontend(num_trs=1)
        trs = frontend.trs_list[0]
        frontend.try_submit(record(0, [mem(0x5000, Direction.OUTPUT)]))
        frontend.try_submit(record(1, [mem(0x6000, Direction.INPUT)]))
        engine.run()
        # Free the producer: its operand's chain head is still vacant.
        frontend.notify_finished(TaskID(0, 0))
        engine.run()
        producer_op = OperandID(0, 0, 0)
        assert trs.get_entry(TaskID(0, 0)) is None
        # A straggling register-consumer must complete the chain from the
        # stub: the data of a finished writer is by definition available.
        forwarded_before = trs.stats.counter("trs0.ready_forwarded")
        trs.receive(RegisterConsumer(target=producer_op,
                                     consumer=OperandID(0, 1, 0)))
        engine.run()
        assert trs.stats.counter("trs0.ready_forwarded") == forwarded_before + 1
        # The head is now taken: one consumer per operand, even after the
        # task's storage is gone.
        trs.receive(RegisterConsumer(target=producer_op,
                                     consumer=OperandID(0, 9, 0)))
        with pytest.raises(ProtocolError, match="already has a chained"):
            engine.run()
        assert trs.stats.counter("trs0.ready_forwarded") == forwarded_before + 1

    def test_retired_stub_rejects_second_consumer(self):
        engine, frontend = small_frontend(num_trs=1)
        trs = frontend.trs_list[0]
        producer = record(0, [mem(0x5000, Direction.OUTPUT)])
        consumer = record(1, [mem(0x5000, Direction.INPUT)])
        frontend.try_submit(producer)
        frontend.try_submit(consumer)
        engine.run()
        assert trs.stats.counter("trs0.consumer_registrations") == 1
        frontend.notify_finished(TaskID(0, 0))
        engine.run()
        # The chain head was taken by the in-flight registration before the
        # free; the retired stub must keep enforcing one consumer per
        # operand even though the task's storage is gone.
        forwarded_before = trs.stats.counter("trs0.ready_forwarded")
        trs.receive(RegisterConsumer(target=OperandID(0, 0, 0),
                                     consumer=OperandID(0, 9, 0)))
        with pytest.raises(ProtocolError, match="already has a chained"):
            engine.run()
        assert trs.stats.counter("trs0.ready_forwarded") == forwarded_before

    def test_registration_for_never_allocated_operand_rejected(self):
        engine, frontend = small_frontend(num_trs=1)
        trs = frontend.trs_list[0]
        frontend.try_submit(record(0, [mem(0x5000, Direction.OUTPUT)]))
        engine.run()
        frontend.notify_finished(TaskID(0, 0))
        engine.run()
        # Slot 0 is freed, but operand index 3 never existed on it: the
        # retired map must distinguish that from a vacant chain head.
        trs.receive(RegisterConsumer(target=OperandID(0, 0, 3),
                                     consumer=OperandID(0, 1, 0)))
        with pytest.raises(ProtocolError):
            engine.run()

    def test_registration_for_a_slot_never_handed_out_rejected(self):
        engine, frontend = small_frontend(num_trs=1)
        trs = frontend.trs_list[0]
        frontend.try_submit(record(0, [mem(0x5000, Direction.OUTPUT)]))
        engine.run()
        frontend.notify_finished(TaskID(0, 0))
        engine.run()
        # Slot 1 was never allocated: no task, no retired state, and the
        # error names the operand as unknown.
        trs.receive(RegisterConsumer(target=OperandID(0, 1, 0),
                                     consumer=OperandID(0, 0, 0)))
        with pytest.raises(ProtocolError, match="unknown operand"):
            engine.run()


class TestWideOperandVectors:
    @staticmethod
    def wide_record(sequence, base, reads_address=None):
        """A 15-operand task: 12 memory operands, 3 scalars.

        ``reads_address`` (if given) replaces the *last* operand -- index 14,
        above the low byte of every bitmask -- with an input of that address.
        """
        operands = []
        for i in range(6):
            operands.append(mem(base + i * 0x1000, Direction.INPUT))
        for i in range(5):
            operands.append(mem(base + (6 + i) * 0x1000, Direction.OUTPUT))
        operands.append(mem(base + 11 * 0x1000, Direction.INOUT))
        operands.extend([OperandRecord(address=0, size=8,
                                       direction=Direction.INPUT,
                                       is_scalar=True)] * 3)
        if reads_address is not None:
            operands[-1] = mem(reads_address, Direction.INPUT)
        return record(sequence, operands)

    def test_fifteen_operand_task_uses_all_indirect_blocks(self):
        engine, frontend = small_frontend(num_trs=1)
        trs = frontend.trs_list[0]
        frontend.try_submit(self.wide_record(0, 0x100000))
        engine.run()
        entry = trs.get_entry(TaskID(0, 0))
        assert entry.want_mask == (1 << 15) - 1
        assert entry.decoded_mask == entry.want_mask
        assert entry.ready_time is not None
        # 15 operands = main block (4) + three full indirect blocks (5 each).
        assert entry.blocks == 4
        assert trs.storage.used_blocks == 4
        assert len(frontend.ready_queue) == 1
        frontend.notify_finished(TaskID(0, 0))
        engine.run()
        assert trs.storage.used_blocks == 0
        # Every non-scalar operand released its version.
        assert frontend.ovts[0].table.live_versions == 0

    def test_chain_through_high_operand_index(self):
        engine, frontend = small_frontend(num_trs=1)
        trs = frontend.trs_list[0]
        frontend.try_submit(record(0, [mem(0x500000, Direction.OUTPUT)]))
        frontend.try_submit(self.wide_record(1, 0x100000,
                                             reads_address=0x500000))
        engine.run()
        consumer = trs.get_entry(TaskID(0, 1))
        high_bit = 1 << 14
        # The wide task is fully decoded but blocked on exactly the high
        # operand's input half.
        assert consumer.decoded_mask == consumer.want_mask
        assert consumer.ready_time is None
        assert not consumer.input_mask & high_bit
        assert consumer.want_mask - consumer.input_mask == high_bit
        # The producer's finish forwards along the chain into bit 14.
        frontend.notify_finished(TaskID(0, 0))
        engine.run()
        assert consumer.input_mask & high_bit
        assert consumer.ready_time is not None
        assert len(frontend.ready_queue) == 2
