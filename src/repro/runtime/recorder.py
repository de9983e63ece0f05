"""The task-generating thread: recording kernel invocations as a task trace.

A :class:`TaskProgram` plays the role of the sequential task-generating thread
of Figure 2.  Code written against the annotated kernels is executed inside a
``with program:`` block; every kernel call is *submitted* instead of run,
producing a :class:`RecordedTask` whose operand metadata comes from the
:class:`repro.runtime.memory.MemoryObject` arguments and whose runtime comes
from a user-supplied cost model.

The recorded program can then be:

* converted to a :class:`repro.trace.TaskTrace` and fed to any of the
  simulators (task-superscalar pipeline or software runtime), or
* executed functionally -- sequentially or in dataflow order -- to verify that
  the annotations really do expose all side effects
  (:mod:`repro.runtime.executor`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import WorkloadError
from repro.runtime.annotations import KernelSpec
from repro.runtime.memory import MemoryObject
from repro.trace.records import (Direction, OperandRecord, OperandTable,
                                 TaskRecord, TaskTrace)

#: Default runtime (in cycles) assigned to a task when no cost model is given.
DEFAULT_TASK_RUNTIME_CYCLES = 10_000

_active_programs = threading.local()


def current_program() -> Optional["TaskProgram"]:
    """Return the innermost active :class:`TaskProgram`, if any."""
    stack = getattr(_active_programs, "stack", None)
    if not stack:
        return None
    return stack[-1]


def _push_program(program: "TaskProgram") -> None:
    stack = getattr(_active_programs, "stack", None)
    if stack is None:
        stack = []
        _active_programs.stack = stack
    stack.append(program)


def _pop_program(program: "TaskProgram") -> None:
    stack = getattr(_active_programs, "stack", [])
    if not stack or stack[-1] is not program:
        raise WorkloadError("TaskProgram context exited out of order")
    stack.pop()


@dataclass
class RecordedTask:
    """A task captured by :class:`TaskProgram.submit`.

    Holds both the simulator-facing :class:`TaskRecord` and everything needed
    to execute the task functionally later (the kernel callable and its actual
    arguments).
    """

    record: TaskRecord
    function: Callable
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def execute(self) -> Any:
        """Run the kernel body with its recorded arguments."""
        body = getattr(self.function, "__wrapped__", self.function)
        return body(*self.args, **self.kwargs)


class TaskProgram:
    """Records kernel invocations made by a sequential task-generating thread.

    Args:
        name: Name for the resulting trace.
        runtime_model: Callable ``(kernel_name, data_bytes, operands) -> cycles``
            giving each task's execution time; defaults to a constant.
        execute_eagerly: If True, each submitted kernel body is also executed
            immediately (sequential semantics), which is convenient when the
            program both produces a trace and computes a functional result.
    """

    def __init__(self, name: str,
                 runtime_model: Optional[Callable[[str, int, Sequence[OperandRecord]], int]] = None,
                 execute_eagerly: bool = False):
        self.name = name
        self.runtime_model = runtime_model
        self.execute_eagerly = execute_eagerly
        self.recorded: List[RecordedTask] = []
        self.metadata: Dict[str, object] = {}
        self._operand_table = OperandTable()

    # -- Context manager ------------------------------------------------------

    def __enter__(self) -> "TaskProgram":
        _push_program(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _pop_program(self)

    # -- Submission -------------------------------------------------------------

    def submit(self, kernel: Callable, *args: Any, **kwargs: Any) -> Optional[Any]:
        """Record one invocation of an annotated kernel.

        Returns the kernel's return value when ``execute_eagerly`` is set,
        otherwise ``None`` (tasks may not return values; all effects must flow
        through ``output``/``inout`` operands).
        """
        spec: KernelSpec = getattr(kernel, "spec", None)
        if spec is None:
            raise WorkloadError(
                f"{kernel!r} is not an annotated kernel; decorate it with @task"
            )
        bound = self._bind_arguments(spec, args, kwargs)
        operands = self._build_operands(spec, bound)
        runtime = self._task_runtime(spec, operands)
        record = TaskRecord(
            sequence=len(self.recorded),
            kernel=spec.name,
            operands=tuple(operands),
            runtime_cycles=runtime,
        )
        recorded = RecordedTask(record=record, function=kernel, args=args, kwargs=dict(kwargs))
        self.recorded.append(recorded)
        if self.execute_eagerly:
            return recorded.execute()
        return None

    def _bind_arguments(self, spec: KernelSpec, args: Tuple[Any, ...],
                        kwargs: Dict[str, Any]) -> Dict[str, Any]:
        names = spec.parameters
        if len(args) > len(names):
            raise WorkloadError(
                f"kernel {spec.name!r} takes {len(names)} arguments, got {len(args)}"
            )
        bound: Dict[str, Any] = {}
        for value, param in zip(args, names):
            bound[param] = value
        for param, value in kwargs.items():
            if param not in names:
                raise WorkloadError(f"kernel {spec.name!r} has no parameter {param!r}")
            if param in bound:
                raise WorkloadError(f"parameter {param!r} given twice to kernel {spec.name!r}")
            bound[param] = value
        missing = [p for p in names if p not in bound]
        if missing:
            raise WorkloadError(f"kernel {spec.name!r} missing arguments: {missing}")
        return bound

    def _build_operands(self, spec: KernelSpec,
                        bound: Dict[str, Any]) -> List[OperandRecord]:
        record = self._operand_table.record
        operands: List[OperandRecord] = []
        for param in spec.parameters:
            value = bound[param]
            direction = spec.direction_of(param)
            if direction is None:
                # Scalar operand: an immediate value, tracked only for size bookkeeping.
                operands.append(record(0, 8, Direction.INPUT, is_scalar=True,
                                       name=param))
                continue
            if not isinstance(value, MemoryObject):
                raise WorkloadError(
                    f"parameter {param!r} of kernel {spec.name!r} is annotated as a "
                    f"{direction.value} memory operand and must be a MemoryObject, "
                    f"got {type(value).__name__}"
                )
            operands.append(record(value.address, value.size, direction,
                                   name=value.name or param))
        return operands

    def _task_runtime(self, spec: KernelSpec, operands: Sequence[OperandRecord]) -> int:
        data_bytes = sum(op.size for op in operands if not op.is_scalar)
        if self.runtime_model is None:
            return DEFAULT_TASK_RUNTIME_CYCLES
        runtime = int(self.runtime_model(spec.name, data_bytes, operands))
        if runtime < 0:
            raise WorkloadError(
                f"runtime model returned a negative runtime ({runtime}) for {spec.name!r}"
            )
        return runtime

    # -- Export -----------------------------------------------------------------

    @property
    def records(self) -> List[TaskRecord]:
        """The simulator-facing task records, in creation order."""
        return [recorded.record for recorded in self.recorded]

    def trace(self) -> TaskTrace:
        """Return the recorded program as a :class:`TaskTrace`."""
        return TaskTrace(self.name, self.records, dict(self.metadata))

    def __len__(self) -> int:
        return len(self.recorded)
