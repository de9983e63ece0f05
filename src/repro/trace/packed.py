"""Packed structure-of-arrays task traces.

A :class:`repro.trace.records.TaskTrace` is a list of ``TaskRecord`` objects,
each holding a tuple of ``OperandRecord`` objects -- convenient to build, but
expensive to regenerate (pure-Python object construction) and expensive to
ship between processes.  :class:`PackedTaskTrace` stores the same information
as flat 64-bit columns:

* per-task columns: ``runtime_cycles``, ``creation_cycles`` (``-1`` encodes
  ``None``) and an interned kernel-name id;
* a CSR-style offset index (``operand_offsets[i] .. operand_offsets[i+1]``
  delimits task ``i``'s operands);
* per-operand columns: ``address``, ``size``, ``flags`` (direction code plus
  a scalar bit) and an interned operand-name id (``-1`` encodes ``None``).

The packing is **lossless**: :meth:`PackedTaskTrace.to_task_trace` rebuilds a
``TaskTrace`` whose records compare equal to the originals field by field.
Simulations do not need that rebuild, though -- ``PackedTaskTrace`` itself
satisfies the trace interface the consumers use (``len``, indexing,
iteration, ``name``/``metadata``/``total_runtime_cycles``), and
indexing returns an O(1) :class:`PackedTaskView` whose operand records are
materialised lazily (once, then cached on the view) when a pipeline module
first touches them.  Replaying a packed trace is bit-identical to replaying
the ``TaskTrace`` it was packed from.

The on-disk format (:func:`write_packed` / :func:`read_packed`) is the
shared columnar container of :mod:`repro.common.fileio` (:data:`PACKED_FORMAT`:
magic ``RPTT``, version 1): a JSON header (name, metadata, string tables,
column directory) followed by the raw little-endian column bytes, loaded with
bulk ``array.frombytes`` instead of per-line JSON parsing.  That bulk load is
what makes the cross-process trace store (:mod:`repro.trace.store`) fast
enough to hand one baked trace to a whole sweep fleet.  A header field of the
wrong type, like any other damage, raises ``TraceFormatError``; a file of
another version raises its subclass ``StaleFormatError``.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.common.errors import TraceFormatError
from repro.common.fileio import ColumnarFormat, atomic_write_bytes
from repro.common.units import cycles_to_us
from repro.trace.records import (Direction, OperandRecord, OperandTable,
                                 TaskRecord, TaskTrace)

PathLike = Union[str, Path]

#: Bump when the column layout or header contract changes; readers raise
#: ``StaleFormatError`` for a mismatched version (the trace store re-bakes).
PACKED_FORMAT_VERSION = 1

#: File magic of the binary format.
PACKED_MAGIC = b"RPTT"

#: ``creation_cycles`` / operand-name columns encode ``None`` as -1.
_NONE_SENTINEL = -1

#: Operand ``flags`` column: low two bits are the direction, bit 2 is the
#: scalar marker.
_DIRECTIONS: Tuple[Direction, ...] = (Direction.INPUT, Direction.OUTPUT,
                                      Direction.INOUT)
_DIRECTION_CODE: Dict[Direction, int] = {d: i for i, d in enumerate(_DIRECTIONS)}
_SCALAR_BIT = 1 << 2

#: Binary column name -> PackedTaskTrace attribute, in file order.
_COLUMN_ATTRS = {
    "runtime_cycles": "runtime_column",
    "creation_cycles": "creation_column",
    "kernel_ids": "kernel_ids",
    "operand_offsets": "operand_offsets",
    "op_addresses": "op_addresses",
    "op_sizes": "op_sizes",
    "op_flags": "op_flags",
    "op_name_ids": "op_name_ids",
}

#: The ``.rpt`` container (:class:`repro.common.fileio.ColumnarFormat`).
PACKED_FORMAT = ColumnarFormat(
    what="packed trace", magic=PACKED_MAGIC, version=PACKED_FORMAT_VERSION,
    columns=tuple(_COLUMN_ATTRS),
    fields={"name": str, "metadata": dict, "kernels": list,
            "operand_names": list, "num_tasks": int, "num_operands": int,
            "annotations": (dict, type(None))})


class _Interner:
    """Assigns dense ids to strings in first-appearance order."""

    def __init__(self) -> None:
        self.ids: Dict[str, int] = {}
        self.strings: List[str] = []

    def intern(self, text: Optional[str]) -> int:
        if text is None:
            return _NONE_SENTINEL
        index = self.ids.get(text)
        if index is None:
            index = len(self.strings)
            self.ids[text] = index
            self.strings.append(text)
        return index


class PackedTaskView:
    """O(1) lazy view of one task in a :class:`PackedTaskTrace`.

    Exposes the full read API of :class:`TaskRecord` (``sequence``,
    ``kernel``, ``operands``, ``runtime_cycles``, ``creation_cycles`` and the
    derived properties), so the task-generating thread, the hardware frontend
    and the software decoder consume packed tasks unchanged.  The operand
    tuple is materialised as real ``OperandRecord`` objects on first access
    and cached, so one pipeline traversal pays the lookup cost at most once
    per task; the records themselves come from the trace's
    :class:`~repro.trace.records.OperandTable`, so each distinct operand is
    built once per packed trace, however often it is replayed.
    """

    __slots__ = ("_trace", "sequence", "_operands")

    def __init__(self, trace: "PackedTaskTrace", sequence: int):
        self._trace = trace
        self.sequence = sequence
        self._operands: Optional[Tuple[OperandRecord, ...]] = None

    @property
    def kernel(self) -> str:
        return self._trace.kernels[self._trace.kernel_ids[self.sequence]]

    @property
    def runtime_cycles(self) -> int:
        return self._trace.runtime_column[self.sequence]

    @property
    def creation_cycles(self) -> Optional[int]:
        cycles = self._trace.creation_column[self.sequence]
        return None if cycles == _NONE_SENTINEL else cycles

    @property
    def num_operands(self) -> int:
        offsets = self._trace.operand_offsets
        return offsets[self.sequence + 1] - offsets[self.sequence]

    @property
    def operands(self) -> Tuple[OperandRecord, ...]:
        if self._operands is None:
            trace = self._trace
            start = trace.operand_offsets[self.sequence]
            stop = trace.operand_offsets[self.sequence + 1]
            self._operands = tuple(trace._operand_record(i)
                                   for i in range(start, stop))
        return self._operands

    # -- Derived views matching TaskRecord ---------------------------------

    @property
    def memory_operands(self) -> List[OperandRecord]:
        return [op for op in self.operands if not op.is_scalar]

    @property
    def data_bytes(self) -> int:
        return sum(op.size for op in self.memory_operands)

    @property
    def runtime_us(self) -> float:
        return cycles_to_us(self.runtime_cycles)

    def reads(self) -> List[OperandRecord]:
        return [op for op in self.memory_operands if op.direction.reads]

    def writes(self) -> List[OperandRecord]:
        return [op for op in self.memory_operands if op.direction.writes]

    def to_record(self) -> TaskRecord:
        """Materialise the equivalent :class:`TaskRecord`."""
        return TaskRecord(sequence=self.sequence, kernel=self.kernel,
                          operands=self.operands,
                          runtime_cycles=self.runtime_cycles,
                          creation_cycles=self.creation_cycles)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PackedTaskView(seq={self.sequence}, kernel={self.kernel!r}, "
                f"operands={self.num_operands})")


class PackedTaskTrace:
    """Structure-of-arrays representation of a :class:`TaskTrace`."""

    def __init__(self, name: str, metadata: Dict[str, object],
                 kernels: List[str], operand_names: List[str],
                 runtime_column: array, creation_column: array,
                 kernel_ids: array, operand_offsets: array,
                 op_addresses: array, op_sizes: array, op_flags: array,
                 op_name_ids: array):
        self.name = name
        self.metadata = metadata
        self.kernels = kernels
        self.operand_names = operand_names
        self.runtime_column = runtime_column
        self.creation_column = creation_column
        self.kernel_ids = kernel_ids
        self.operand_offsets = operand_offsets
        self.op_addresses = op_addresses
        self.op_sizes = op_sizes
        self.op_flags = op_flags
        self.op_name_ids = op_name_ids
        self._operand_table = OperandTable()
        self._validate()

    def _validate(self) -> None:
        num_tasks = len(self.runtime_column)
        if (len(self.creation_column) != num_tasks
                or len(self.kernel_ids) != num_tasks
                or len(self.operand_offsets) != num_tasks + 1):
            raise TraceFormatError(
                f"packed trace {self.name!r}: inconsistent task column lengths")
        num_operands = len(self.op_addresses)
        if (len(self.op_sizes) != num_operands
                or len(self.op_flags) != num_operands
                or len(self.op_name_ids) != num_operands):
            raise TraceFormatError(
                f"packed trace {self.name!r}: inconsistent operand column lengths")
        offsets = self.operand_offsets
        if offsets[0] != 0 or offsets[num_tasks] != num_operands:
            raise TraceFormatError(
                f"packed trace {self.name!r}: operand offset index does not "
                f"span the operand columns")
        previous = 0
        for value in offsets:
            if value < previous:
                raise TraceFormatError(
                    f"packed trace {self.name!r}: operand offset index is "
                    f"not monotonically non-decreasing")
            previous = value

    # -- Packing / unpacking ------------------------------------------------

    @classmethod
    def from_trace(cls, trace: TaskTrace) -> "PackedTaskTrace":
        """Pack a :class:`TaskTrace` (lossless; see :meth:`to_task_trace`)."""
        kernels = _Interner()
        names = _Interner()
        runtime_column = array("q")
        creation_column = array("q")
        kernel_ids = array("q")
        operand_offsets = array("q", [0])
        op_addresses = array("q")
        op_sizes = array("q")
        op_flags = array("q")
        op_name_ids = array("q")
        for task in trace:
            runtime_column.append(task.runtime_cycles)
            creation_column.append(_NONE_SENTINEL if task.creation_cycles is None
                                   else task.creation_cycles)
            kernel_ids.append(kernels.intern(task.kernel))
            for op in task.operands:
                op_addresses.append(op.address)
                op_sizes.append(op.size)
                op_flags.append(_DIRECTION_CODE[op.direction]
                                | (_SCALAR_BIT if op.is_scalar else 0))
                op_name_ids.append(names.intern(op.name))
            operand_offsets.append(len(op_addresses))
        return cls(name=trace.name, metadata=dict(trace.metadata),
                   kernels=kernels.strings, operand_names=names.strings,
                   runtime_column=runtime_column,
                   creation_column=creation_column, kernel_ids=kernel_ids,
                   operand_offsets=operand_offsets, op_addresses=op_addresses,
                   op_sizes=op_sizes, op_flags=op_flags,
                   op_name_ids=op_name_ids)

    def _operand_record(self, index: int) -> OperandRecord:
        name_id = self.op_name_ids[index]
        flags = self.op_flags[index]
        return self._operand_table.record(
            self.op_addresses[index], self.op_sizes[index],
            _DIRECTIONS[flags & 0b11], bool(flags & _SCALAR_BIT),
            None if name_id == _NONE_SENTINEL else self.operand_names[name_id])

    def to_task_trace(self) -> TaskTrace:
        """Rebuild the original :class:`TaskTrace` (exact round-trip)."""
        return TaskTrace(self.name, (view.to_record() for view in self),
                         dict(self.metadata))

    # -- Trace interface ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.runtime_column)

    def __getitem__(self, sequence: int) -> PackedTaskView:
        if sequence < 0:
            sequence += len(self)
        if not 0 <= sequence < len(self):
            raise IndexError(sequence)
        return PackedTaskView(self, sequence)

    def __iter__(self) -> Iterator[PackedTaskView]:
        return (PackedTaskView(self, i) for i in range(len(self)))

    @property
    def num_operand_entries(self) -> int:
        """Total operand rows across all tasks."""
        return len(self.op_addresses)

    @property
    def total_runtime_cycles(self) -> int:
        return sum(self.runtime_column)

    def max_operands(self) -> int:
        offsets = self.operand_offsets
        return max((offsets[i + 1] - offsets[i] for i in range(len(self))),
                   default=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PackedTaskTrace(name={self.name!r}, tasks={len(self)}, "
                f"operands={self.num_operand_entries})")

    # -- Binary serialisation ----------------------------------------------

    def to_bytes(self, annotations: Optional[Dict[str, object]] = None) -> bytes:
        """Serialise to the versioned binary format.

        Args:
            annotations: Optional JSON-serialisable dict stored in the header
                (the trace store records the generating parameters there); it
                does not affect the trace content.
        """
        header = {
            "name": self.name,
            "metadata": self.metadata,
            "kernels": self.kernels,
            "operand_names": self.operand_names,
            "num_tasks": len(self),
            "num_operands": self.num_operand_entries,
        }
        if annotations:
            header["annotations"] = annotations
        return PACKED_FORMAT.encode(
            header, [getattr(self, attr) for attr in _COLUMN_ATTRS.values()])

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PackedTaskTrace":
        """Parse :meth:`to_bytes` output (raises ``TraceFormatError``)."""
        return cls._from_container(*PACKED_FORMAT.decode(raw))

    @classmethod
    def _from_container(cls, header: Dict,
                        columns: Dict[str, array]) -> "PackedTaskTrace":
        return cls(name=header["name"], metadata=header["metadata"],
                   kernels=header["kernels"],
                   operand_names=header["operand_names"],
                   **{attr: columns[name]
                      for name, attr in _COLUMN_ATTRS.items()})


def pack_trace(trace: TaskTrace) -> PackedTaskTrace:
    """Convenience alias for :meth:`PackedTaskTrace.from_trace`."""
    return PackedTaskTrace.from_trace(trace)


def write_packed(packed: Union[PackedTaskTrace, TaskTrace], path: PathLike,
                 annotations: Optional[Dict[str, object]] = None) -> Path:
    """Atomically write a packed trace file (packs a ``TaskTrace`` first)."""
    if isinstance(packed, TaskTrace):
        packed = PackedTaskTrace.from_trace(packed)
    return atomic_write_bytes(path, packed.to_bytes(annotations=annotations))


def read_packed(path: PathLike) -> PackedTaskTrace:
    """Load a packed trace file written by :func:`write_packed`."""
    return PackedTaskTrace._from_container(*PACKED_FORMAT.read(path))


def read_packed_header(path: PathLike) -> Dict[str, object]:
    """Read only the JSON header of a packed trace file (cheap inspection).

    The file size must match the header's column directory, so the store's
    ``contains``/``entries``/``gc`` answer exactly as :func:`read_packed`
    would (see :meth:`~repro.common.fileio.ColumnarFormat.read_header`).
    """
    return PACKED_FORMAT.read_header(path)


__all__ = [
    "PACKED_FORMAT",
    "PACKED_FORMAT_VERSION",
    "PACKED_MAGIC",
    "PackedTaskTrace",
    "PackedTaskView",
    "pack_trace",
    "read_packed",
    "read_packed_header",
    "write_packed",
]
