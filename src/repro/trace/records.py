"""Task and operand records.

A *task* is a dynamic instance of an annotated kernel function.  Its operands
are memory objects (base pointer + size) or scalars, each tagged with a
directionality: ``input``, ``output`` or ``inout`` (Section III.A of the
paper).  Scalars are equivalent to immediate values and can only be inputs;
they do not participate in dependency tracking.

A :class:`TaskTrace` is the ordered stream of tasks produced by the sequential
task-generating thread.  Order matters: in-order decode of that stream is what
lets the pipeline (and the gold dependency-graph builder) match consumers to
the most recent producer.

A trace holds one :class:`TaskRecord` per task and one :class:`OperandRecord`
per *distinct* operand: tasks name the same memory objects again and again,
so everything that builds a trace goes through an :class:`OperandTable`,
which builds (and validates) each distinct operand once and hands the same
frozen record to every task that repeats it.  The table lives as long as
the builder, reader or packed trace that owns it; there is no record cache
across traces.  Both record classes are ``slots=True`` dataclasses with no
``__dict__``: compare them with ``==`` (dataclass equality), never by
identity, since two tasks' equal operands are one object.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.common.errors import TraceFormatError
from repro.common.units import cycles_to_us


class Direction(enum.Enum):
    """Directionality of a task operand."""

    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"

    @property
    def reads(self) -> bool:
        """True if the operand reads the memory object."""
        return self in (Direction.INPUT, Direction.INOUT)

    @property
    def writes(self) -> bool:
        """True if the operand writes the memory object."""
        return self in (Direction.OUTPUT, Direction.INOUT)


@dataclass(frozen=True, slots=True)
class OperandRecord:
    """One task operand.

    Attributes:
        address: Base pointer of the memory object (ignored for scalars).
        size: Object size in bytes.
        direction: ``input`` / ``output`` / ``inout``.
        is_scalar: True for scalar (by-value) operands, which are always
            inputs and bypass dependency tracking.
        name: Optional symbolic name, useful for debugging and examples.
    """

    address: int
    size: int
    direction: Direction
    is_scalar: bool = False
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise TraceFormatError(f"operand size must be non-negative, got {self.size}")
        if self.is_scalar and self.direction is not Direction.INPUT:
            raise TraceFormatError(
                "scalar operands can only be inputs (they are immediate values), "
                f"got direction={self.direction.value}"
            )
        if not self.is_scalar and self.address < 0:
            raise TraceFormatError(f"memory operand address must be non-negative, "
                                   f"got {self.address}")

    @property
    def tracks_dependencies(self) -> bool:
        """True if this operand participates in dependency decoding."""
        return not self.is_scalar


class OperandTable:
    """The operand records of one trace, one per distinct operand.

    :meth:`record` returns the table's record with the given fields,
    building it -- and so running its checks -- only the first time.
    Records are frozen, so sharing one between tasks is safe.
    """

    __slots__ = ("_records",)

    def __init__(self) -> None:
        self._records: Dict[tuple, OperandRecord] = {}

    def record(self, address: int, size: int, direction: Direction,
               is_scalar: bool = False,
               name: Optional[str] = None) -> OperandRecord:
        """The record ``OperandRecord(address, size, direction, is_scalar,
        name)``, shared with every earlier request for the same fields."""
        key = (address, size, direction, is_scalar, name)
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = OperandRecord(
                address, size, direction, is_scalar, name)
        return record


@dataclass(slots=True)
class TaskRecord:
    """One dynamic task instance in creation order.

    Attributes:
        sequence: Creation index within the trace (0-based, strictly
            increasing).
        kernel: Name of the kernel function (e.g. ``"spotrf"``).
        operands: The task's operands in declaration order.
        runtime_cycles: The task's execution time on a worker core, in cycles.
        creation_cycles: Optional override for the task-generating thread's
            cost of creating this task; ``None`` uses the configured model.
    """

    sequence: int
    kernel: str
    operands: Tuple[OperandRecord, ...]
    runtime_cycles: int
    creation_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sequence < 0:
            raise TraceFormatError(f"task sequence must be non-negative, got {self.sequence}")
        if self.runtime_cycles < 0:
            raise TraceFormatError(
                f"task runtime must be non-negative, got {self.runtime_cycles}"
            )
        if self.creation_cycles is not None and self.creation_cycles < 0:
            raise TraceFormatError(
                f"task creation cost must be non-negative or None, got "
                f"{self.creation_cycles}"
            )
        self.operands = tuple(self.operands)

    # -- Convenience views ---------------------------------------------------

    @property
    def num_operands(self) -> int:
        """Total number of operands (including scalars)."""
        return len(self.operands)

    @property
    def memory_operands(self) -> List[OperandRecord]:
        """Operands that participate in dependency tracking."""
        return [op for op in self.operands if op.tracks_dependencies]

    @property
    def data_bytes(self) -> int:
        """Total bytes touched by the task's memory operands."""
        return sum(op.size for op in self.memory_operands)

    @property
    def runtime_us(self) -> float:
        """Task runtime in microseconds at the default 3.2 GHz clock."""
        return cycles_to_us(self.runtime_cycles)

    def reads(self) -> List[OperandRecord]:
        """Memory operands read by the task (``input`` and ``inout``)."""
        return [op for op in self.memory_operands if op.direction.reads]

    def writes(self) -> List[OperandRecord]:
        """Memory operands written by the task (``output`` and ``inout``)."""
        return [op for op in self.memory_operands if op.direction.writes]


class TaskTrace:
    """An ordered stream of :class:`TaskRecord` with workload metadata."""

    def __init__(self, name: str, tasks: Iterable[TaskRecord],
                 metadata: Optional[Dict[str, object]] = None):
        self.name = name
        self.tasks: List[TaskRecord] = list(tasks)
        self.metadata: Dict[str, object] = dict(metadata or {})
        self._validate()

    def _validate(self) -> None:
        for expected, task in enumerate(self.tasks):
            if task.sequence != expected:
                raise TraceFormatError(
                    f"trace {self.name!r}: task at position {expected} has "
                    f"sequence {task.sequence}; traces must be numbered 0..N-1 "
                    "in creation order"
                )

    # -- Container protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[TaskRecord]:
        return iter(self.tasks)

    def __getitem__(self, index: int) -> TaskRecord:
        return self.tasks[index]

    # -- Aggregate properties -----------------------------------------------------

    @property
    def total_runtime_cycles(self) -> int:
        """Sum of all task runtimes: the sequential-execution time baseline."""
        return sum(task.runtime_cycles for task in self.tasks)

    @property
    def kernels(self) -> List[str]:
        """Distinct kernel names, in first-appearance order."""
        seen: Dict[str, None] = {}
        for task in self.tasks:
            seen.setdefault(task.kernel, None)
        return list(seen)

    def runtime_stats_us(self) -> Tuple[float, float, float]:
        """(min, median, mean) of task runtimes in microseconds.

        These are the three columns reported per application in Table I.
        """
        if not self.tasks:
            raise TraceFormatError(f"trace {self.name!r} is empty")
        runtimes = sorted(task.runtime_us for task in self.tasks)
        count = len(runtimes)
        minimum = runtimes[0]
        if count % 2 == 1:
            median = runtimes[count // 2]
        else:
            median = 0.5 * (runtimes[count // 2 - 1] + runtimes[count // 2])
        mean = sum(runtimes) / count
        return minimum, median, mean

    def average_data_kb(self) -> float:
        """Average per-task data footprint in KB (Table I's "Data Sz." column)."""
        if not self.tasks:
            raise TraceFormatError(f"trace {self.name!r} is empty")
        return sum(task.data_bytes for task in self.tasks) / len(self.tasks) / 1024.0

    def max_operands(self) -> int:
        """Largest operand count of any task in the trace."""
        return max((task.num_operands for task in self.tasks), default=0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TaskTrace(name={self.name!r}, tasks={len(self.tasks)})"
