"""The complete simulated task-superscalar machine.

:class:`TaskSuperscalarSystem` assembles a task-generating thread, the
distributed frontend, the Carbon-like scheduler and the worker cores into one
discrete-event simulation, runs a task trace through it and returns a
:class:`SimulationResult` with the measurements the paper's evaluation uses:
makespan, speedup over sequential execution, task decode rate, task-window
occupancy and module-level statistics.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.config import SimulationConfig, default_table2_config
from repro.common.errors import SchedulingError
from repro.common.units import cycles_to_ns, cycles_to_us
from repro.cores.core import WorkerCore
from repro.cores.generator import TaskGeneratingThread
from repro.backend.scheduler import TaskScheduler
from repro.runtime.taskgraph import build_dependency_graph
from repro.topology import TaskRouter, build_frontends
from repro.sim.engine import Engine
from repro.sim.stats import StatsCollector
from repro.trace.records import TaskTrace


@dataclass
class SimulationResult:
    """Measurements from one simulated run."""

    trace_name: str
    num_tasks: int
    num_cores: int
    makespan_cycles: int
    sequential_cycles: int
    decode_rate_cycles: float
    decode_rate_ns: float
    tasks_decoded: int
    tasks_completed: int
    window_peak_tasks: int
    window_mean_tasks: float
    ready_queue_peak: int
    generator_stall_cycles: int
    core_utilization: float
    stats: Dict[str, float] = field(default_factory=dict)
    # Topology metrics (defaults keep results from single-frontend machines
    # and pre-topology cache entries loadable).
    num_frontends: int = 1
    per_frontend_tasks_decoded: List[int] = field(default_factory=list)
    per_frontend_decode_rate_cycles: List[float] = field(default_factory=list)
    tasks_stolen: int = 0
    steals_by_cluster: List[int] = field(default_factory=list)
    inter_frontend_forwards: int = 0

    @property
    def speedup(self) -> float:
        """Speedup over sequential execution of the same trace."""
        if self.makespan_cycles <= 0:
            return 0.0
        return self.sequential_cycles / self.makespan_cycles

    @property
    def makespan_us(self) -> float:
        """Makespan in microseconds at the default clock."""
        return cycles_to_us(self.makespan_cycles)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (f"{self.trace_name}: {self.num_tasks} tasks on {self.num_cores} cores -> "
                f"speedup {self.speedup:.1f}x, decode {self.decode_rate_cycles:.0f} "
                f"cycles/task ({self.decode_rate_ns:.0f} ns), "
                f"window peak {self.window_peak_tasks} tasks")


class TaskSuperscalarSystem:
    """A full simulated machine driven by the task-superscalar frontend."""

    def __init__(self, config: Optional[SimulationConfig] = None,
                 observer=None):
        self.config = config if config is not None else default_table2_config()
        self.config.validate()
        self.engine = Engine()
        self.stats = StatsCollector()
        #: Optional :class:`repro.obs.Observer`.  Attaching one records
        #: cycle-resolved telemetry but never changes simulation results
        #: (observers only read state; see :mod:`repro.obs`).
        self.observer = observer
        topology = self.config.topology
        self.topology = topology
        self.frontends, self.fabric = build_frontends(
            self.engine, self.config.frontend, topology, self.stats)
        #: First pipeline; *the* pipeline on a single-frontend machine.
        self.frontend = self.frontends[0]
        if topology.num_frontends > 1:
            self.router = TaskRouter(self.frontends, topology, self.stats)
        else:
            # The generator talks to the lone gateway directly: the trivial
            # topology carries no router state at all.
            self.router = None
        self.cores = [WorkerCore(self.engine, i, self.stats)
                      for i in range(self.config.cmp.num_cores)]
        self.scheduler = TaskScheduler(self.engine, self.config.backend, self.cores,
                                       [fe.ready_queue for fe in self.frontends],
                                       self.frontends, self.stats,
                                       topology=topology)
        self.scheduler.on_task_complete = self._on_task_complete
        if observer is not None:
            for fe in self.frontends:
                fe.bind_observer(observer)
            self.scheduler.bind_observer(observer)
        self._window_peak = 0

    # -- Hooks -----------------------------------------------------------------------

    def _on_task_complete(self, task, record) -> None:
        total = 0
        for fe in self.frontends:
            total += fe.sample_occupancy()
        if total > self._window_peak:
            self._window_peak = total

    # -- Aggregated measurements --------------------------------------------------------

    def _tasks_decoded(self) -> int:
        return sum(fe.tasks_decoded for fe in self.frontends)

    def _decode_rate_cycles(self) -> float:
        """Machine-wide decode rate: cycles between successive graph adds.

        The pipelines' decode streams are merged first (the task graph grows
        whenever *any* pipeline decodes); on a single-frontend machine this
        is exactly the pipeline's own measurement.
        """
        times = sorted(t for fe in self.frontends for t in fe.decode_times)
        if len(times) < 2:
            return 0.0
        return (times[-1] - times[0]) / (len(times) - 1)

    # -- Execution --------------------------------------------------------------------

    def run(self, trace: TaskTrace, validate: bool = False,
            max_events: Optional[int] = None) -> SimulationResult:
        """Simulate ``trace`` to completion and return the measurements.

        Args:
            trace: The task trace to execute.
            validate: If True, check the produced schedule against the gold
                dependency graph (every consumer started after its true
                producers finished).  Adds O(edges) work after the simulation.
            max_events: Optional event-count guard against deadlocks in
                experimental configurations.

        Raises:
            SchedulingError: if the simulation drains without completing every
                task (a deadlock, which indicates a configuration that cannot
                make progress or a model bug), or if validation fails.
        """
        if max_events is not None:
            self.engine.max_events = max_events
        submit_target = self.router if self.router is not None else self.frontend
        generator = TaskGeneratingThread(self.engine, trace, submit_target,
                                         self.config.generator, self.stats)
        if self.observer is not None:
            generator.bind_observer(self.observer)
            # Build the occupancy-sampling hook only now, after every module
            # (generator included) has registered its probes.
            self.engine.on_advance = self.observer.advance_hook()
        generator.start()
        # Pause the cyclic garbage collector for the event loop: the
        # simulation allocates short-lived messages and tuples at a rate that
        # triggers constant generation-0 scans, yet produces no reference
        # cycles on the hot path.  Collection (if it was enabled) resumes --
        # and runs once -- right after the loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self.engine.run()
        finally:
            if gc_was_enabled:
                gc.enable()

        if self.scheduler.tasks_completed != len(trace):
            window = sum(fe.window_occupancy() for fe in self.frontends)
            ready = sum(len(fe.ready_queue) for fe in self.frontends)
            raise SchedulingError(
                f"simulation deadlocked: completed {self.scheduler.tasks_completed} of "
                f"{len(trace)} tasks (decoded {self._tasks_decoded()}, "
                f"window {window}, ready queue {ready})"
            )

        if validate:
            graph = build_dependency_graph(trace)
            table = self.scheduler.schedule_table()
            starts = {seq: start for seq, (start, finish) in table.items()}
            finishes = {seq: finish for seq, (start, finish) in table.items()}
            graph.validate_schedule(starts, finishes, renamed=True)

        makespan = self.scheduler.last_completion_time
        for fe in self.frontends:
            fe.record_module_utilization(makespan)
        # The machine-wide mean window occupancy is the sum of the pipelines'
        # means: every completion samples all pipelines at the same instant,
        # so the per-pipeline accumulators share one sample count.  With one
        # pipeline (empty prefix) this reads the legacy key unchanged.
        window_mean = 0.0
        for fe in self.frontends:
            acc = self.stats.accumulators.get(
                fe.prefix + "frontend.window_occupancy")
            if acc is not None and acc.count:
                window_mean += acc.mean
        busy = sum(core.busy_cycles for core in self.cores)
        utilization = 0.0
        if makespan > 0:
            utilization = busy / (makespan * len(self.cores))
        decode_rate = self._decode_rate_cycles()
        return SimulationResult(
            trace_name=trace.name,
            num_tasks=len(trace),
            num_cores=len(self.cores),
            makespan_cycles=makespan,
            sequential_cycles=trace.total_runtime_cycles,
            decode_rate_cycles=decode_rate,
            decode_rate_ns=cycles_to_ns(decode_rate, self.config.cmp.clock_ghz),
            tasks_decoded=self._tasks_decoded(),
            tasks_completed=self.scheduler.tasks_completed,
            window_peak_tasks=self._window_peak,
            window_mean_tasks=window_mean,
            ready_queue_peak=max(fe.ready_queue.peak_depth
                                 for fe in self.frontends),
            generator_stall_cycles=generator.stall_cycles,
            core_utilization=utilization,
            stats=self.stats.summary(),
            num_frontends=self.topology.num_frontends,
            per_frontend_tasks_decoded=[fe.tasks_decoded
                                        for fe in self.frontends],
            per_frontend_decode_rate_cycles=[fe.decode_rate_cycles()
                                             for fe in self.frontends],
            tasks_stolen=self.scheduler.tasks_stolen,
            steals_by_cluster=list(self.scheduler.steals_by_cluster),
            inter_frontend_forwards=(self.fabric.forwards
                                     if self.fabric is not None else 0),
        )


def run_trace(trace: TaskTrace, config: Optional[SimulationConfig] = None,
              num_cores: Optional[int] = None, validate: bool = False,
              observer=None, **frontend_overrides) -> SimulationResult:
    """Convenience wrapper: build a system and run one trace through it.

    Args:
        trace: The task trace to execute.
        config: Base configuration (Table II defaults when omitted).
        num_cores: Override the backend core count.
        validate: Check the schedule against the gold dependency graph.
        observer: Optional :class:`repro.obs.Observer` to attach.
        **frontend_overrides: Field overrides for the frontend configuration
            (e.g. ``num_trs=4, num_ort=1``).
    """
    config = config if config is not None else default_table2_config()
    if num_cores is not None:
        config = config.with_cores(num_cores)
    if frontend_overrides:
        config = config.with_frontend(**frontend_overrides)
    system = TaskSuperscalarSystem(config, observer=observer)
    return system.run(trace, validate=validate)
