"""Tests for trace serialisation (JSON-lines reader/writer)."""

import gzip
import json

import pytest

from repro.common.errors import TraceFormatError
from repro.trace.io import (read_trace, read_trace_header, read_trace_tasks,
                            write_trace)
from repro.trace.records import Direction, TaskTrace
from repro.workloads.cholesky import CholeskyWorkload

from tests.conftest import chain_trace, fork_join_trace


class TestRoundTrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        original = fork_join_trace(width=3)
        original.metadata["note"] = "fixture"
        path = tmp_path / "trace.jsonl"
        write_trace(original, path)
        loaded = read_trace(path)
        assert loaded.name == original.name
        assert loaded.metadata == original.metadata
        assert len(loaded) == len(original)
        for a, b in zip(original, loaded):
            assert a.sequence == b.sequence
            assert a.kernel == b.kernel
            assert a.runtime_cycles == b.runtime_cycles
            assert a.operands == b.operands

    def test_roundtrip_workload_trace(self, tmp_path):
        original = CholeskyWorkload().generate(scale=5)
        path = tmp_path / "cholesky.jsonl"
        write_trace(original, path)
        loaded = read_trace(path)
        assert len(loaded) == 35
        assert loaded.total_runtime_cycles == original.total_runtime_cycles
        assert [t.kernel for t in loaded] == [t.kernel for t in original]

    def test_file_is_line_oriented_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(chain_trace(3), path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 4  # header + 3 tasks
        header = json.loads(lines[0])
        assert header["trace"] == "chain"
        record = json.loads(lines[1])
        assert record["seq"] == 0
        assert record["operands"][0][2] == Direction.OUTPUT.value


class TestGzip:
    def test_gz_suffix_round_trips(self, tmp_path):
        original = fork_join_trace(width=3)
        original.metadata["note"] = "compressed"
        path = tmp_path / "trace.jsonl.gz"
        write_trace(original, path)
        loaded = read_trace(path)
        assert loaded.name == original.name
        assert loaded.metadata == original.metadata
        assert list(loaded) == list(original)

    def test_gz_file_is_actually_gzipped(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        write_trace(chain_trace(3), path)
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        assert header["trace"] == "chain"
        assert path.read_bytes()[:2] == b"\x1f\x8b"  # gzip magic


class TestStreaming:
    def test_read_trace_tasks_streams_records(self, tmp_path):
        original = chain_trace(5)
        path = tmp_path / "trace.jsonl"
        write_trace(original, path)
        stream = read_trace_tasks(path)
        first = next(stream)
        assert first.sequence == 0
        rest = list(stream)
        assert [t.sequence for t in rest] == [1, 2, 3, 4]

    def test_read_trace_header_only(self, tmp_path):
        original = fork_join_trace(width=2)
        original.metadata["note"] = "hdr"
        path = tmp_path / "trace.jsonl"
        write_trace(original, path)
        header = read_trace_header(path)
        assert header["trace"] == original.name
        assert header["metadata"]["note"] == "hdr"

    def test_streaming_validates_header(self, tmp_path):
        path = tmp_path / "noheader.jsonl"
        path.write_text('{"seq": 0}\n')
        with pytest.raises(TraceFormatError):
            list(read_trace_tasks(path))


class TestErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.jsonl"
        path.write_text('{"seq": 0}\n')
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"trace": "x", "metadata": {}}\nnot json\n')
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text('{"trace": "x", "metadata": {}}\n{"seq": 0, "kernel": "k"}\n')
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_unknown_direction(self, tmp_path):
        path = tmp_path / "direction.jsonl"
        path.write_text(
            '{"trace": "x", "metadata": {}}\n'
            '{"seq": 0, "kernel": "k", "runtime_cycles": 1, '
            '"operands": [[4096, 64, "sideways", false, null]]}\n'
        )
        with pytest.raises(TraceFormatError):
            read_trace(path)
