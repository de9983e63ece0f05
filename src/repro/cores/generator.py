"""The task-generating thread.

A single sequential thread walks the task trace in creation order.  For every
task it spends the configured creation cost (packing the kernel pointer and
operand values into the task buffer, as the StarSs source-to-source compiler's
injected code does) and then writes the task to the pipeline gateway.  The
thread only stalls when the gateway buffer is full; it resumes as soon as the
gateway frees space.  Decoupling generation from decode/execution is what
gives the pipeline its non-speculative task window.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.common.config import TaskGeneratorConfig
from repro.obs.events import EV_TASK_CREATED
from repro.sim.engine import Engine
from repro.sim.module import SimModule, obs_noop
from repro.sim.stats import StatsCollector
from repro.trace.records import TaskTrace


class TaskGeneratingThread(SimModule):
    """Feeds a trace's tasks into a frontend (hardware or software)."""

    def __init__(self, engine: Engine, trace: TaskTrace, frontend,
                 config: Optional[TaskGeneratorConfig] = None,
                 stats: Optional[StatsCollector] = None,
                 on_done: Optional[Callable[[], None]] = None):
        super().__init__(engine, "task_generator", stats)
        self.trace = trace
        self.frontend = frontend
        self.config = config if config is not None else TaskGeneratorConfig()
        self.on_done = on_done
        self._next_index = 0
        self._stall_started: Optional[int] = None
        self.stall_cycles = 0
        self._stat_tasks_submitted = self.stats.counter_handle(
            "generator.tasks_submitted")
        self._stat_stalls = self.stats.counter_handle("generator.stalls")

    def _bind_obs_handles(self) -> None:
        super()._bind_obs_handles()
        observer = self._observer
        if observer is not None:
            self._obs_task = observer.task_handle(self.name)
            self._obs_gen_stall = observer.stall_handle(self.name)
        else:
            self._obs_task = obs_noop
            self._obs_gen_stall = obs_noop

    # -- Introspection ---------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once every task of the trace has been submitted."""
        return self._next_index >= len(self.trace)

    # -- Execution -------------------------------------------------------------------

    def start(self) -> None:
        """Begin generating tasks (schedules the first creation)."""
        self._generate_next()

    def _generate_next(self) -> None:
        if self.done:
            if self.on_done is not None:
                self.on_done()
            return
        record = self.trace[self._next_index]
        if record.creation_cycles is not None:
            cost = record.creation_cycles
        else:
            cost = self.config.generation_cycles(record.num_operands)
        self.schedule(cost, self._try_submit)

    def _try_submit(self) -> None:
        record = self.trace[self._next_index]
        if self.frontend.try_submit(record):
            if self._stall_started is not None:
                self.stall_cycles += self.now - self._stall_started
                self._stall_started = None
                self._obs_gen_stall(self.now, 0)
            self._next_index += 1
            self._stat_tasks_submitted.value += 1
            self._obs_task(EV_TASK_CREATED, self.now, record.sequence)
            self._generate_next()
            return
        # Gateway buffer full: stall until it drains.
        if self._stall_started is None:
            self._stall_started = self.now
            self._stat_stalls.value += 1
            self._obs_gen_stall(self.now, 1)
        self.frontend.notify_when_space(self._try_submit)
