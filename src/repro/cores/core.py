"""A worker core: a processor used as a functional unit.

The backend is trace-driven (as TaskSim is): a core executes a task by
staying busy for the task's recorded runtime.  Cores are in-order and
non-preemptive; the scheduler only dispatches to idle cores.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.errors import SchedulingError
from repro.common.ids import TaskID
from repro.sim.engine import Engine
from repro.sim.module import SimModule
from repro.sim.stats import StatsCollector
from repro.trace.records import TaskRecord


class WorkerCore(SimModule):
    """One backend core executing tasks to completion."""

    def __init__(self, engine: Engine, index: int,
                 stats: Optional[StatsCollector] = None):
        super().__init__(engine, f"core{index}", stats)
        self.index = index
        self._busy = False
        self._current: Optional[TaskID] = None
        self.busy_cycles = 0
        self._stat_tasks_executed = self.stats.counter_handle("cores.tasks_executed")

    @property
    def is_busy(self) -> bool:
        """True while the core is executing a task."""
        return self._busy

    def execute(self, task: TaskID, record: TaskRecord,
                on_finish: Callable[[TaskID, TaskRecord, int], None]) -> None:
        """Start executing ``task``; call ``on_finish(task, record, core)`` when done.

        Raises:
            SchedulingError: if the core is already busy.
        """
        if self._busy:
            raise SchedulingError(f"{self.name} dispatched while busy with {self._current}")
        self._busy = True
        self._current = task
        runtime = record.runtime_cycles
        self.schedule(runtime, self._finish, task, record, runtime, on_finish)

    def _finish(self, task: TaskID, record: TaskRecord, runtime: int,
                on_finish: Callable[[TaskID, TaskRecord, int], None]) -> None:
        self._busy = False
        self._current = None
        self.busy_cycles += runtime
        self._stat_tasks_executed.value += 1
        on_finish(task, record, self.index)

    def utilization(self, elapsed_cycles: int) -> float:
        """Fraction of ``elapsed_cycles`` this core spent executing tasks."""
        if elapsed_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed_cycles)
