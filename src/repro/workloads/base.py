"""Common infrastructure for the benchmark workload generators.

Each workload is described by two things:

* a :class:`WorkloadSpec` carrying the *published* Table I characteristics
  (application class, average data size, min/median/average task runtime and
  the decode-rate limit for a 256-way CMP), and
* a :class:`Workload` subclass that synthesises a task trace whose dependency
  structure follows the application's algorithm and whose task runtimes are
  drawn from per-kernel :class:`KernelProfile` distributions tuned to
  approximate the Table I statistics.

The generators are deterministic given their seed, so experiments and tests
are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import WorkloadError
from repro.common.units import KB, us_to_cycles
from repro.runtime.memory import AddressSpace, MemoryObject
from repro.trace.records import Direction, OperandTable, TaskRecord, TaskTrace


@dataclass(frozen=True)
class WorkloadSpec:
    """One row of Table I.

    Attributes:
        name: Application name as printed in the paper.
        domain: Application class ("Math. kernel", "Multimedia", ...).
        description: One-line description from the table.
        avg_data_kb: Average per-task data footprint in KB.
        min_runtime_us: Minimum task runtime in microseconds.
        med_runtime_us: Median task runtime in microseconds.
        avg_runtime_us: Average task runtime in microseconds.
        decode_limit_ns: Decode-rate limit for a 256-way CMP, in ns/task
            (= min task runtime / 256).
    """

    name: str
    domain: str
    description: str
    avg_data_kb: float
    min_runtime_us: float
    med_runtime_us: float
    avg_runtime_us: float
    decode_limit_ns: float

    def decode_limit_for(self, num_processors: int) -> float:
        """Decode-rate limit R = T_min / P in nanoseconds per task."""
        if num_processors <= 0:
            raise WorkloadError("num_processors must be positive")
        return self.min_runtime_us * 1000.0 / num_processors


@dataclass(frozen=True)
class KernelProfile:
    """Runtime and operand profile for one kernel of a workload.

    Attributes:
        name: Kernel name.
        runtime_us: Nominal task runtime in microseconds.
        jitter: Fractional uniform jitter applied to the runtime (0.05 means
            +/-5%), modelling run-to-run variation of real tasks.
    """

    name: str
    runtime_us: float
    jitter: float = 0.0

    def sample_runtime_cycles(self, rng: random.Random) -> int:
        """Draw one task runtime in cycles."""
        runtime = self.runtime_us
        if self.jitter > 0.0:
            runtime *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return max(1, us_to_cycles(runtime))


class TraceLimitReached(Exception):
    """Raised by :meth:`TraceBuilder.add_task` once the trace is complete.

    :meth:`Workload.generate` catches it, so a generator stops at its
    ``max_tasks``-th task without knowing about the limit.
    """


class TraceBuilder:
    """Incrementally builds a :class:`TaskTrace` for a generator.

    Wraps an :class:`AddressSpace` plus the task list, and provides the
    ``add_task`` helper that converts ``(kernel profile, operand list)`` pairs
    into :class:`TaskRecord` entries in creation order.  Operands come from
    the builder's :class:`OperandTable`, so an operand the trace repeats is
    one record.  With ``max_tasks`` set, the call that would add one task
    more raises :class:`TraceLimitReached` instead, so the generator builds
    only the prefix that is kept.
    """

    def __init__(self, name: str, seed: int = 0,
                 metadata: Optional[Dict[str, object]] = None,
                 max_tasks: Optional[int] = None):
        self.name = name
        self.rng = random.Random(seed)
        self.address_space = AddressSpace()
        self.tasks: List[TaskRecord] = []
        self.metadata: Dict[str, object] = dict(metadata or {})
        self.metadata.setdefault("seed", seed)
        self.max_tasks = max_tasks
        self._operand_table = OperandTable()

    def alloc(self, size: int, name: Optional[str] = None) -> MemoryObject:
        """Allocate a memory object in the workload's address space."""
        return self.address_space.alloc(size, name=name)

    def alloc_blocks(self, count: int, size: int, name: str) -> List[MemoryObject]:
        """Allocate ``count`` equally sized blocks named ``name[i]``."""
        return self.address_space.alloc_array(count, size, name=name)

    def add_task(self, profile: KernelProfile,
                 operands: Sequence[Tuple[MemoryObject, Direction]],
                 scalars: int = 0,
                 runtime_cycles: Optional[int] = None) -> TaskRecord:
        """Append one task to the trace.

        Args:
            profile: Kernel profile providing the runtime distribution.
            operands: ``(memory object, direction)`` pairs in operand order.
            scalars: Number of additional scalar operands to append.
            runtime_cycles: Optional explicit runtime override.

        Returns:
            The created :class:`TaskRecord`.

        Raises:
            TraceLimitReached: The trace already holds ``max_tasks`` tasks.
        """
        if len(self.tasks) == self.max_tasks:
            raise TraceLimitReached
        record = self._operand_table.record
        records = [record(obj.address, obj.size, direction, name=obj.name)
                   for obj, direction in operands]
        for index in range(scalars):
            records.append(record(0, 8, Direction.INPUT, is_scalar=True,
                                  name=f"scalar{index}"))
        runtime = runtime_cycles
        if runtime is None:
            runtime = profile.sample_runtime_cycles(self.rng)
        task = TaskRecord(sequence=len(self.tasks), kernel=profile.name,
                          operands=tuple(records), runtime_cycles=runtime)
        self.tasks.append(task)
        return task

    def build(self) -> TaskTrace:
        """Finalize and return the trace."""
        if not self.tasks and self.max_tasks != 0:
            raise WorkloadError(f"workload {self.name!r} generated no tasks")
        return TaskTrace(self.name, self.tasks, self.metadata)


class Workload:
    """Base class for the nine benchmark generators.

    Subclasses define ``spec`` (their Table I row) and implement
    :meth:`build`, returning a :class:`TaskTrace`.  The common ``generate``
    entry point handles seeding and records generator parameters in the trace
    metadata.
    """

    #: Table I row for this workload; set by subclasses.
    spec: WorkloadSpec

    #: Default value of the ``scale`` argument, chosen so the default trace
    #: has a few thousand tasks (enough parallelism for 256 cores while
    #: remaining fast to simulate in Python).
    default_scale: int = 1

    def generate(self, scale: Optional[int] = None, seed: int = 0,
                 max_tasks: Optional[int] = None) -> TaskTrace:
        """Generate a trace.

        Args:
            scale: Problem-size knob; each workload documents its meaning
                (matrix blocks per dimension, frames, iterations, ...).
            seed: Seed for runtime jitter and any randomised structure.
            max_tasks: Stop after the first ``max_tasks`` tasks (``None``
                builds the whole trace).  The result equals the first
                ``max_tasks`` tasks of the whole trace, name and metadata
                included; ``0`` gives an empty trace.
        """
        if scale is None:
            scale = self.default_scale
        if scale <= 0:
            raise WorkloadError(f"scale must be positive, got {scale}")
        if max_tasks is not None and max_tasks < 0:
            raise ValueError(f"max_tasks must be non-negative, got {max_tasks}")
        builder = TraceBuilder(self.spec.name, seed=seed,
                               metadata={"workload": self.spec.name, "scale": scale},
                               max_tasks=max_tasks)
        try:
            self.build(builder, scale)
        except TraceLimitReached:
            pass
        return builder.build()

    def build(self, builder: TraceBuilder, scale: int) -> None:
        """Populate ``builder`` with the workload's tasks.  Subclasses override."""
        raise NotImplementedError


def block_bytes(kb: float) -> int:
    """Convenience: convert a KB figure from Table I to bytes."""
    return int(kb * KB)
