"""Reading and writing task traces as JSON lines.

The on-disk format is one JSON object per line.  The first line is a header
record ``{"trace": <name>, "metadata": {...}}``; every subsequent line is one
task ``{"seq": ..., "kernel": ..., "runtime_cycles": ..., "operands": [...]}``
with operands encoded as ``[address, size, direction, is_scalar, name]``
arrays.  The format is intentionally simple so traces can be inspected with
standard text tools and diffed.

Paths ending in ``.gz`` are compressed/decompressed transparently (the text
format gzips to a small fraction of its size), and reading streams the file
line by line: :func:`read_trace_tasks` yields one task at a time in constant
memory, and :func:`read_trace` parses header and tasks in a single pass over
one open handle.  A damaged file -- bytes that are not UTF-8, a broken gzip
stream, a malformed or mistyped record -- raises :class:`TraceFormatError`
naming the file; no line is ever skipped.  For a binary format that loads
in bulk, see :mod:`repro.trace.packed`.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import tempfile
import zlib
from contextlib import closing
from pathlib import Path
from typing import IO, Iterator, Tuple, Union

from repro.common.errors import TraceFormatError
from repro.trace.records import (Direction, OperandRecord, OperandTable,
                                 TaskRecord, TaskTrace)

PathLike = Union[str, Path]


def _operand_to_json(operand: OperandRecord) -> list:
    return [operand.address, operand.size, operand.direction.value,
            operand.is_scalar, operand.name]


def _operand_from_json(data: list, table: OperandTable) -> OperandRecord:
    if not isinstance(data, list) or len(data) != 5:
        raise TraceFormatError(f"malformed operand record: {data!r}")
    address, size, direction, is_scalar, name = data
    try:
        parsed_direction = Direction(direction)
    except ValueError as exc:
        raise TraceFormatError(f"unknown operand direction {direction!r}") from exc
    return table.record(address, size, parsed_direction, bool(is_scalar), name)


def write_trace(trace: TaskTrace, path: PathLike) -> None:
    """Write ``trace`` to ``path`` in JSON-lines format (``.gz`` = gzipped).

    The write is atomic (``mkstemp`` temp file in the destination directory,
    then ``os.replace``): a process killed mid-write can never leave a
    truncated trace behind, and concurrent readers only ever observe the old
    file or the complete new one.  Compression follows the *destination*
    suffix, not the temp file's.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        raw = os.fdopen(fd, "wb")
        if path.suffix == ".gz":
            handle: IO[str] = gzip.open(raw, "wt", encoding="utf-8")
        else:
            handle = io.TextIOWrapper(raw, encoding="utf-8")
        try:
            header = {"trace": trace.name, "metadata": trace.metadata}
            handle.write(json.dumps(header) + "\n")
            for task in trace:
                record = {
                    "seq": task.sequence,
                    "kernel": task.kernel,
                    "runtime_cycles": task.runtime_cycles,
                    "operands": [_operand_to_json(op) for op in task.operands],
                }
                if task.creation_cycles is not None:
                    record["creation_cycles"] = task.creation_cycles
                handle.write(json.dumps(record) + "\n")
        finally:
            handle.close()
            raw.close()
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def _read_lines(path: Path) -> Iterator[Tuple[int, str]]:
    """Yield ``(line number, text)`` for each non-empty line of a trace file.

    Lines are read as bytes and decoded one at a time, so bytes that are not
    UTF-8 -- or a damaged gzip stream -- raise :class:`TraceFormatError`
    naming the file, never a bare decoding error.  A missing file raises
    ``FileNotFoundError``.
    """
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as handle:
        try:
            for lineno, raw in enumerate(handle, 1):
                line = raw.decode("utf-8").strip()
                if line:
                    yield lineno, line
        except (UnicodeDecodeError, gzip.BadGzipFile, zlib.error,
                EOFError) as exc:
            raise TraceFormatError(
                f"trace file {path} has unreadable bytes ({exc})") from exc


def _parse_header(lines: Iterator[Tuple[int, str]], path: Path) -> dict:
    """Parse and validate the header record (the first non-empty line)."""
    for _, line in lines:
        try:
            header = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"trace file {path} has a malformed header") from exc
        if not (isinstance(header, dict)
                and isinstance(header.get("trace"), str)
                and isinstance(header.get("metadata", {}), dict)):
            raise TraceFormatError(
                f"trace file {path} is missing the header record")
        return header
    raise TraceFormatError(f"trace file {path} is empty")


def _parse_task(line: str, path: Path, lineno: int,
                table: OperandTable) -> TaskRecord:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}:{lineno}: malformed JSON") from exc
    try:
        return TaskRecord(
            sequence=record["seq"],
            kernel=record["kernel"],
            operands=tuple(_operand_from_json(op, table)
                           for op in record["operands"]),
            runtime_cycles=record["runtime_cycles"],
            creation_cycles=record.get("creation_cycles"),
        )
    except KeyError as exc:
        raise TraceFormatError(f"{path}:{lineno}: missing field {exc}") from exc
    except TypeError as exc:
        raise TraceFormatError(
            f"{path}:{lineno}: malformed task record ({exc})") from exc


def _parse_tasks(lines: Iterator[Tuple[int, str]],
                 path: Path) -> Iterator[TaskRecord]:
    """Parse the task records remaining on ``lines`` after the header.

    The tasks share one :class:`OperandTable`, which lives as long as the
    parse.
    """
    table = OperandTable()
    for lineno, line in lines:
        yield _parse_task(line, path, lineno, table)


def read_trace_header(path: PathLike) -> dict:
    """Read only the header record ``{"trace": ..., "metadata": ...}``."""
    path = Path(path)
    with closing(_read_lines(path)) as lines:
        return _parse_header(lines, path)


def read_trace_tasks(path: PathLike) -> Iterator[TaskRecord]:
    """Stream the tasks of a trace file one record at a time.

    The file is never accumulated as a whole: each line is parsed and yielded
    before the next is read, so arbitrarily large traces stream in constant
    memory.  The header line is validated and skipped.

    Raises:
        TraceFormatError: if the file is malformed or its bytes are damaged.
    """
    path = Path(path)
    with closing(_read_lines(path)) as lines:
        _parse_header(lines, path)
        yield from _parse_tasks(lines, path)


def read_trace(path: PathLike) -> TaskTrace:
    """Read a trace previously written with :func:`write_trace`.

    Single pass: the header is parsed and the task records stream straight
    into the :class:`TaskTrace` constructor from one open handle.

    Raises:
        TraceFormatError: if the file is malformed or its bytes are damaged.
    """
    path = Path(path)
    with closing(_read_lines(path)) as lines:
        header = _parse_header(lines, path)
        return TaskTrace(header["trace"], _parse_tasks(lines, path),
                         header.get("metadata", {}))
