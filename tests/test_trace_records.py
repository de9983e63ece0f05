"""Tests for task/operand records and trace containers."""

import pytest

from repro.common.errors import TraceFormatError
from repro.experiments.common import experiment_trace
from repro.runtime.annotations import task
from repro.runtime.memory import AddressSpace
from repro.runtime.recorder import TaskProgram
from repro.trace.io import read_trace, write_trace
from repro.trace.records import (Direction, OperandRecord, OperandTable,
                                 TaskRecord, TaskTrace)
from repro.trace.store import TraceStore

from tests.conftest import make_operand, make_task


class TestDirection:
    def test_reads_and_writes(self):
        assert Direction.INPUT.reads and not Direction.INPUT.writes
        assert Direction.OUTPUT.writes and not Direction.OUTPUT.reads
        assert Direction.INOUT.reads and Direction.INOUT.writes


class TestOperandRecord:
    def test_memory_operand(self):
        op = OperandRecord(address=0x1000, size=2048, direction=Direction.INOUT)
        assert op.tracks_dependencies
        assert op.size == 2048

    def test_scalar_must_be_input(self):
        with pytest.raises(TraceFormatError):
            OperandRecord(address=0, size=8, direction=Direction.OUTPUT, is_scalar=True)

    def test_scalar_does_not_track_dependencies(self):
        op = OperandRecord(address=0, size=8, direction=Direction.INPUT, is_scalar=True)
        assert not op.tracks_dependencies

    def test_negative_size_rejected(self):
        with pytest.raises(TraceFormatError):
            OperandRecord(address=0x1000, size=-1, direction=Direction.INPUT)

    def test_negative_address_rejected(self):
        with pytest.raises(TraceFormatError):
            OperandRecord(address=-4, size=8, direction=Direction.INPUT)


class TestTaskRecord:
    def test_views(self):
        task = make_task(0, [
            make_operand(0x1000, size=100, direction=Direction.INPUT),
            make_operand(0x2000, size=200, direction=Direction.OUTPUT),
            make_operand(0x3000, size=300, direction=Direction.INOUT),
            make_operand(0, scalar=True),
        ])
        assert task.num_operands == 4
        assert len(task.memory_operands) == 3
        assert task.data_bytes == 600
        assert {op.address for op in task.reads()} == {0x1000, 0x3000}
        assert {op.address for op in task.writes()} == {0x2000, 0x3000}

    def test_runtime_us_uses_default_clock(self):
        task = make_task(0, [make_operand(0x1000)], runtime=3200)
        assert task.runtime_us == pytest.approx(1.0)

    def test_negative_runtime_rejected(self):
        with pytest.raises(TraceFormatError):
            make_task(0, [make_operand(0x1000)], runtime=-1)

    def test_negative_sequence_rejected(self):
        with pytest.raises(TraceFormatError):
            make_task(-1, [make_operand(0x1000)])


class TestTaskTrace:
    def test_sequences_must_be_dense(self):
        good = TaskTrace("t", [make_task(0, [make_operand(0x1000)]),
                               make_task(1, [make_operand(0x2000)])])
        assert len(good) == 2
        with pytest.raises(TraceFormatError):
            TaskTrace("t", [make_task(1, [make_operand(0x1000)])])

    def test_total_runtime_is_sequential_time(self):
        trace = TaskTrace("t", [make_task(i, [make_operand(0x1000 * (i + 1))],
                                          runtime=100 * (i + 1)) for i in range(4)])
        assert trace.total_runtime_cycles == 100 + 200 + 300 + 400

    def test_runtime_stats(self):
        trace = TaskTrace("t", [make_task(i, [make_operand(0x1000 * (i + 1))],
                                          runtime=r)
                                for i, r in enumerate((3200, 6400, 12800))])
        minimum, median, mean = trace.runtime_stats_us()
        assert minimum == pytest.approx(1.0)
        assert median == pytest.approx(2.0)
        assert mean == pytest.approx((1 + 2 + 4) / 3)

    def test_average_data_kb(self):
        trace = TaskTrace("t", [make_task(0, [make_operand(0x1000, size=2048)]),
                                make_task(1, [make_operand(0x2000, size=4096)])])
        assert trace.average_data_kb() == pytest.approx(3.0)

    def test_kernels_in_first_appearance_order(self):
        trace = TaskTrace("t", [make_task(0, [make_operand(0x1000)], kernel="b"),
                                make_task(1, [make_operand(0x2000)], kernel="a"),
                                make_task(2, [make_operand(0x3000)], kernel="b")])
        assert trace.kernels == ["b", "a"]

    def test_empty_trace_statistics_raise(self):
        trace = TaskTrace("empty", [])
        with pytest.raises(TraceFormatError):
            trace.runtime_stats_us()
        with pytest.raises(TraceFormatError):
            trace.average_data_kb()

    def test_max_operands(self):
        trace = TaskTrace("t", [make_task(0, [make_operand(0x1000), make_operand(0x2000)]),
                                make_task(1, [make_operand(0x3000)])])
        assert trace.max_operands() == 2


def generated(tmp_path):
    return list(experiment_trace("H264", scale_factor=0.3, max_tasks=300))


def written_and_read(tmp_path):
    path = tmp_path / "h264.jsonl"
    write_trace(experiment_trace("H264", scale_factor=0.3, max_tasks=300),
                path)
    return list(read_trace(path))


def loaded_from_the_store(tmp_path):
    store = TraceStore(tmp_path / "traces")
    params = {"workload": "H264", "max_tasks": 300}

    def generate():
        return experiment_trace("H264", scale_factor=0.3, max_tasks=300)

    store.get_or_bake(params, generate)
    packed, baked = store.get_or_bake(params, generate)
    assert not baked
    views = list(packed)
    # A replay of the same packed trace builds no new records.
    replayed = [op for view in packed for op in view.operands]
    assert all(old is new for old, new in zip(
        (op for view in views for op in view.operands), replayed))
    return views


def recorded(tmp_path):
    @task(src="input", dst="output")
    def copy(src, dst, count):
        pass

    space = AddressSpace()
    first, second = space.alloc(64), space.alloc(64)
    with TaskProgram("ping_pong") as program:
        for _ in range(4):
            copy(first, second, 1)
            copy(second, first, 1)
    return list(program.trace())


class TestSharedOperandRecords:
    def test_table_builds_each_distinct_operand_once(self):
        table = OperandTable()
        op = table.record(0x1000, 64, Direction.INOUT, name="a")
        assert op == OperandRecord(address=0x1000, size=64,
                                   direction=Direction.INOUT, name="a")
        assert table.record(0x1000, 64, Direction.INOUT, name="a") is op
        assert table.record(0x1000, 64, Direction.INPUT, name="a") is not op
        assert table.record(0x1000, 64, Direction.INOUT) is not op
        with pytest.raises(TraceFormatError):
            table.record(0, 8, Direction.OUTPUT, is_scalar=True)

    @pytest.mark.parametrize("build", [generated, written_and_read,
                                       loaded_from_the_store, recorded])
    def test_equal_operands_within_a_trace_are_one_record(self, build,
                                                          tmp_path):
        operands = [op for record in build(tmp_path)
                    for op in record.operands]
        first = {}
        for op in operands:
            assert first.setdefault(op, op) is op
        assert len(first) < len(operands)
        scalars = [op for op in operands if op.is_scalar]
        assert len(set(scalars)) < len(scalars)
