"""Tests for the packed structure-of-arrays trace representation.

The packed form must be a *lossless* encoding of ``TaskTrace`` -- including
``creation_cycles=None``, scalar operands, unnamed operands, the 19-operand
TRS layout limit and empty traces -- and its lazy views must answer the whole
``TaskRecord`` read API identically, because the simulators consume packed
traces directly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceFormatError
from repro.trace.packed import (PACKED_FORMAT_VERSION, PACKED_MAGIC,
                                PackedTaskTrace, pack_trace, read_packed,
                                read_packed_header, write_packed)
from repro.trace.records import Direction, OperandRecord, TaskRecord, TaskTrace

from tests.conftest import fork_join_trace


# -- Hypothesis strategies ---------------------------------------------------

_addresses = st.integers(min_value=0, max_value=2**48)
_sizes = st.integers(min_value=0, max_value=2**32)
_names = st.one_of(st.none(), st.text(min_size=0, max_size=8))


@st.composite
def operands(draw):
    if draw(st.booleans()):
        return OperandRecord(address=draw(_addresses), size=draw(_sizes),
                             direction=draw(st.sampled_from(list(Direction))),
                             name=draw(_names))
    return OperandRecord(address=0, size=8, direction=Direction.INPUT,
                         is_scalar=True, name=draw(_names))


@st.composite
def traces(draw):
    num_tasks = draw(st.integers(min_value=0, max_value=12))
    tasks = []
    for sequence in range(num_tasks):
        ops = draw(st.lists(operands(), min_size=0, max_size=19))
        tasks.append(TaskRecord(
            sequence=sequence,
            kernel=draw(st.sampled_from(("potrf", "trsm", "gemm", "syrk"))),
            operands=tuple(ops),
            runtime_cycles=draw(st.integers(min_value=0, max_value=2**40)),
            creation_cycles=draw(st.one_of(
                st.none(), st.integers(min_value=0, max_value=2**20))),
        ))
    metadata = draw(st.dictionaries(
        st.sampled_from(("seed", "scale", "note")),
        st.one_of(st.integers(), st.text(max_size=6)), max_size=3))
    return TaskTrace(draw(st.sampled_from(("t", "trace-x"))), tasks, metadata)


def assert_tasks_equal(expected: TaskTrace, actual) -> None:
    assert len(actual) == len(expected)
    for mine, theirs in zip(expected, actual):
        assert theirs.sequence == mine.sequence
        assert theirs.kernel == mine.kernel
        assert theirs.runtime_cycles == mine.runtime_cycles
        assert theirs.creation_cycles == mine.creation_cycles
        assert tuple(theirs.operands) == mine.operands


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(trace=traces())
    def test_pack_unpack_is_lossless(self, trace):
        packed = pack_trace(trace)
        rebuilt = packed.to_task_trace()
        assert rebuilt.name == trace.name
        assert rebuilt.metadata == trace.metadata
        assert list(rebuilt) == list(trace)

    @settings(max_examples=30, deadline=None)
    @given(trace=traces())
    def test_binary_round_trip_is_lossless(self, trace):
        packed = PackedTaskTrace.from_bytes(pack_trace(trace).to_bytes())
        assert packed.name == trace.name
        assert packed.metadata == trace.metadata
        assert_tasks_equal(trace, packed)

    def test_empty_trace_round_trips(self):
        trace = TaskTrace("empty", [], {"note": "no tasks"})
        packed = pack_trace(trace)
        assert len(packed) == 0
        assert packed.total_runtime_cycles == 0
        assert packed.max_operands() == 0
        rebuilt = PackedTaskTrace.from_bytes(packed.to_bytes()).to_task_trace()
        assert len(rebuilt) == 0
        assert rebuilt.metadata == trace.metadata

    def test_nineteen_operand_task_round_trips(self):
        ops = tuple(OperandRecord(address=0x1000 * (i + 1), size=64,
                                  direction=Direction.INPUT, name=f"in{i}")
                    for i in range(18))
        ops += (OperandRecord(address=0x90000, size=64,
                              direction=Direction.OUTPUT, name="out"),)
        task = TaskRecord(sequence=0, kernel="wide", operands=ops,
                          runtime_cycles=100)
        trace = TaskTrace("wide", [task])
        packed = pack_trace(trace)
        assert packed[0].num_operands == 19
        assert packed.max_operands() == 19
        assert_tasks_equal(trace, PackedTaskTrace.from_bytes(packed.to_bytes()))

    def test_negative_creation_cycles_is_unrepresentable(self):
        """The packed sentinel (-1 = None) can never alias a real value
        because TaskRecord rejects negative creation costs at the source."""
        with pytest.raises(TraceFormatError):
            TaskRecord(sequence=0, kernel="k", operands=(), runtime_cycles=1,
                       creation_cycles=-1)

    def test_creation_cycles_none_and_zero_are_distinct(self):
        tasks = [
            TaskRecord(sequence=0, kernel="k", operands=(), runtime_cycles=1,
                       creation_cycles=None),
            TaskRecord(sequence=1, kernel="k", operands=(), runtime_cycles=1,
                       creation_cycles=0),
        ]
        packed = pack_trace(TaskTrace("cc", tasks))
        assert packed[0].creation_cycles is None
        assert packed[1].creation_cycles == 0


class TestViews:
    def test_views_mirror_records(self):
        trace = fork_join_trace(width=3)
        packed = pack_trace(trace)
        for record, view in zip(trace, packed):
            assert view.num_operands == record.num_operands
            assert view.data_bytes == record.data_bytes
            assert view.runtime_us == record.runtime_us
            assert [op.address for op in view.memory_operands] == \
                   [op.address for op in record.memory_operands]
            assert [op.address for op in view.reads()] == \
                   [op.address for op in record.reads()]
            assert [op.address for op in view.writes()] == \
                   [op.address for op in record.writes()]
            assert view.to_record() == record

    def test_operand_tuple_is_cached_per_view(self):
        packed = pack_trace(fork_join_trace(width=2))
        view = packed[0]
        assert view.operands is view.operands

    def test_indexing_and_iteration(self):
        trace = fork_join_trace(width=4)
        packed = pack_trace(trace)
        assert len(packed) == len(trace)
        assert packed[-1].sequence == len(trace) - 1
        assert [v.sequence for v in packed] == [t.sequence for t in trace]
        with pytest.raises(IndexError):
            packed[len(trace)]

    def test_aggregates_match_task_trace(self):
        trace = fork_join_trace(width=5)
        packed = pack_trace(trace)
        assert packed.total_runtime_cycles == trace.total_runtime_cycles
        assert packed.max_operands() == trace.max_operands()


class TestFileFormat:
    def test_write_read_with_annotations(self, tmp_path):
        trace = fork_join_trace(width=2)
        path = tmp_path / "t.rpt"
        write_packed(trace, path, annotations={"trace_params": {"seed": 3}})
        loaded = read_packed(path)
        assert_tasks_equal(trace, loaded)
        header = read_packed_header(path)
        assert header["annotations"]["trace_params"] == {"seed": 3}
        assert header["num_tasks"] == len(trace)

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "bad.rpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TraceFormatError):
            read_packed(path)

    def test_version_mismatch_is_rejected(self, tmp_path):
        raw = bytearray(pack_trace(fork_join_trace(width=2)).to_bytes())
        raw[4:8] = (PACKED_FORMAT_VERSION + 1).to_bytes(4, "little")
        path = tmp_path / "future.rpt"
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceFormatError):
            read_packed(path)

    def test_truncated_file_is_rejected(self, tmp_path):
        raw = pack_trace(fork_join_trace(width=2)).to_bytes()
        path = tmp_path / "cut.rpt"
        path.write_bytes(raw[:len(raw) - 9])
        with pytest.raises(TraceFormatError):
            read_packed(path)

    def test_magic_is_stable(self):
        raw = pack_trace(TaskTrace("m", [])).to_bytes()
        assert raw[:4] == PACKED_MAGIC

    def test_corrupt_offset_column_is_rejected(self):
        """A non-monotonic offsets column must fail validation, not slice
        silently wrong operand ranges."""
        packed = pack_trace(fork_join_trace(width=3))
        packed.operand_offsets[2] = packed.operand_offsets[3] + 1
        with pytest.raises(TraceFormatError):
            PackedTaskTrace.from_bytes(packed.to_bytes())
