"""The complete software-runtime machine (the Figure 16 baseline).

:class:`SoftwareRuntimeSystem` wires the task-generating thread to a
:class:`repro.software.decoder.SoftwareDecoder`, a dispatch model and the same
worker cores used by the hardware simulator.  Dispatch charges the configured
per-task scheduling cost on top of the decode cost, and completions release
waiting consumers.  Results are reported in the same
:class:`repro.backend.system.SimulationResult` structure as the hardware
system so the two can be compared point by point.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.backend.system import SimulationResult
from repro.common.config import SimulationConfig, default_table2_config
from repro.common.errors import SchedulingError
from repro.common.units import cycles_to_ns, ns_to_cycles
from repro.cores.core import WorkerCore
from repro.cores.generator import TaskGeneratingThread
from repro.common.ids import TaskID
from repro.sim.engine import Engine
from repro.sim.machine import CompletionLog, Machine
from repro.sim.stats import StatsCollector
from repro.software.decoder import SoftwareDecoder
from repro.trace.records import TaskRecord, TaskTrace


class SoftwareRuntimeSystem(Machine):
    """A CMP driven by the StarSs-style software runtime.

    A machine runs one trace (see :meth:`run`); build a new one per run.
    """

    def __init__(self, config: Optional[SimulationConfig] = None):
        self.config = config if config is not None else default_table2_config()
        self.config.validate()
        self.engine = Engine()
        self.stats = StatsCollector()
        self.cores = [WorkerCore(self.engine, i, self.stats)
                      for i in range(self.config.cmp.num_cores)]
        self.decoder = SoftwareDecoder(self.engine, self.config.software,
                                       self.config.cmp.clock_ghz,
                                       on_ready=self._task_ready, stats=self.stats)
        self._ready: Deque[TaskRecord] = deque()
        self._idle_cores: List[int] = list(range(len(self.cores)))
        self._dispatch_cost = max(0, ns_to_cycles(self.config.software.dispatch_ns_per_task,
                                                  self.config.cmp.clock_ghz))
        self._start_times: Dict[int, int] = {}
        self.completions = CompletionLog()
        self.tasks_completed = 0
        self.last_completion_time = 0
        self._ready_peak = 0
        self._window_peak = 0

    # -- Ready/dispatch path -----------------------------------------------------------

    def _task_ready(self, record: TaskRecord) -> None:
        self._ready.append(record)
        self._ready_peak = max(self._ready_peak, len(self._ready))
        self._dispatch()

    def _dispatch(self) -> None:
        while self._idle_cores and self._ready:
            record = self._ready.popleft()
            core_index = self._idle_cores.pop()
            self.engine.schedule(self._dispatch_cost, self._start_task, record, core_index)

    def _start_task(self, record: TaskRecord, core_index: int) -> None:
        self._start_times[record.sequence] = self.engine.now
        task_id = TaskID(0, record.sequence)
        self.cores[core_index].execute(task_id, record, self._task_finished)

    def _task_finished(self, task: TaskID, record: TaskRecord, core_index: int) -> None:
        start = self._start_times.pop(record.sequence, None)
        if start is None:
            raise SchedulingError(f"completion for task {record.sequence} that never started")
        self.completions.add(record.sequence, start, self.engine.now)
        self.tasks_completed += 1
        self.last_completion_time = self.engine.now
        self._idle_cores.append(core_index)
        inflight = self.decoder.tasks_decoded - self.tasks_completed
        self._window_peak = max(self._window_peak, inflight)
        self.decoder.task_completed(record)
        self._dispatch()

    def _detach(self) -> None:
        self.decoder.detach()

    # -- Execution --------------------------------------------------------------------------

    def run(self, trace: TaskTrace, validate: bool = False) -> SimulationResult:
        """Simulate ``trace`` under the software runtime.

        A machine runs one trace.  When the run ends, also by raising, the
        machine detaches (see :meth:`repro.backend.system
        .TaskSuperscalarSystem.run`) and is freed by reference counting.
        What stays readable afterwards: ``completions.table()``,
        ``engine.events_processed`` and ``engine.now``, ``stats`` and the
        decoder's counters.

        Raises:
            ReproError: if this machine has already run a trace.
            SchedulingError: if the run drains without completing every task.
            WorkloadError: if ``validate`` is set and the schedule violates a
                true dependency of the gold graph.
        """
        with self._single_run():
            return self._run(trace, validate)

    def _run(self, trace: TaskTrace, validate: bool) -> SimulationResult:
        generator = TaskGeneratingThread(self.engine, trace, self.decoder,
                                         self.config.generator, self.stats)
        generator.start()
        self._simulate()
        if self.tasks_completed != len(trace):
            raise SchedulingError(
                f"software runtime deadlocked: completed {self.tasks_completed} of "
                f"{len(trace)} tasks"
            )
        if validate:
            self.completions.validate(trace)
        makespan = self.last_completion_time
        busy = sum(core.busy_cycles for core in self.cores)
        utilization = busy / (makespan * len(self.cores)) if makespan > 0 else 0.0
        decode_cycles = self.decoder.decode_rate_cycles()
        return SimulationResult(
            trace_name=trace.name,
            num_tasks=len(trace),
            num_cores=len(self.cores),
            makespan_cycles=makespan,
            sequential_cycles=trace.total_runtime_cycles,
            decode_rate_cycles=decode_cycles,
            decode_rate_ns=cycles_to_ns(decode_cycles, self.config.cmp.clock_ghz),
            tasks_decoded=self.decoder.tasks_decoded,
            tasks_completed=self.tasks_completed,
            window_peak_tasks=self._window_peak,
            window_mean_tasks=0.0,
            ready_queue_peak=self._ready_peak,
            generator_stall_cycles=generator.stall_cycles,
            core_utilization=utilization,
            stats=self.stats.summary(),
        )


def run_trace_software(trace: TaskTrace, config: Optional[SimulationConfig] = None,
                       num_cores: Optional[int] = None,
                       validate: bool = False) -> SimulationResult:
    """Convenience wrapper mirroring :func:`repro.backend.system.run_trace`."""
    config = config if config is not None else default_table2_config()
    if num_cores is not None:
        config = config.with_cores(num_cores)
    system = SoftwareRuntimeSystem(config)
    return system.run(trace, validate=validate)
