"""Assembly of the task-superscalar frontend.

:class:`TaskSuperscalarFrontend` instantiates the gateway, the configured
number of TRSs, ORTs and OVTs, and the ready queue, and wires them together
with the point-to-point links of Figure 5.  It also centralises the two
measurements the evaluation section relies on:

* the **task decode rate** -- the average time between two successive
  additions to the task graph (Section VI.A measures exactly this), and
* the **task-window occupancy** -- how many in-flight tasks the TRSs hold
  over time, which is what the ORT/TRS capacity sweeps of Figures 14 and 15
  trade off against speedup.
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.config import FrontendConfig
from repro.common.ids import TaskID
from repro.common.units import cycles_to_ns
from repro.frontend.gateway import PipelineGateway
from repro.frontend.messages import TaskFinished
from repro.frontend.ort import ObjectRenamingTable
from repro.frontend.ovt import ObjectVersioningTable
from repro.frontend.ready_queue import ReadyQueue
from repro.frontend.trs import TaskReservationStation
from repro.sim.engine import Engine
from repro.sim.stats import StatsCollector
from repro.trace.records import TaskRecord


class TaskSuperscalarFrontend:
    """The distributed frontend: gateway + TRSs + ORTs + OVTs + ready queue.

    In a multi-frontend topology (:mod:`repro.topology`) each pipeline is one
    instance of this class, publishing its per-pipeline metrics under an
    ``fe<instance>.`` prefix.  Its TRS/ORT/OVT modules then carry *global*
    directory indices (``trs_base + i`` / ``ort_base + i``) so that
    structural IDs route unchanged across pipelines, and :meth:`wire` is
    called with global directory views in which remote modules appear as
    forwarding stubs.  The single-frontend default (instance 0, empty prefix,
    local self-wiring) is exactly the legacy machine.
    """

    def __init__(self, engine: Engine, config: FrontendConfig,
                 stats: Optional[StatsCollector] = None, instance: int = 0,
                 num_frontends: int = 1, trs_base: int = 0, ort_base: int = 0,
                 wire: bool = True):
        config.validate()
        self.engine = engine
        self.config = config
        self.stats = stats if stats is not None else StatsCollector()
        self.trs_base = trs_base
        #: Stat/probe namespace; empty for the (legacy) single-frontend case.
        self.prefix = "" if num_frontends == 1 else f"fe{instance}."

        prefix = self.prefix
        self.gateway = PipelineGateway(engine, config, self.stats,
                                       name=prefix + "gateway")
        self.ready_queue = ReadyQueue(engine, self.stats,
                                      name=prefix + "ready_queue")
        self.trs_list: List[TaskReservationStation] = [
            TaskReservationStation(engine, trs_base + i, config, self.stats)
            for i in range(config.num_trs)
        ]
        self.orts: List[ObjectRenamingTable] = [
            ObjectRenamingTable(engine, ort_base + i, config, self.stats)
            for i in range(config.num_ort)
        ]
        self.ovts: List[ObjectVersioningTable] = [
            ObjectVersioningTable(engine, ort_base + i, config, self.stats)
            for i in range(config.num_ort)
        ]

        #: Decode stamps, in simulation cycles: the first, the last and how
        #: many.  Stamps are taken at ``engine.now``, so they come in order.
        self.first_decode = 0
        self.last_decode = 0
        self.tasks_decoded = 0
        #: Each TRS's task table (stable for the TRS's lifetime): the window
        #: occupancy is the sum of their lengths, sampled on every retire.
        self._trs_tables = [trs._tasks for trs in self.trs_list]

        # Pre-bound metric handles for the per-task measurement paths.
        self._stat_tasks_decoded = self.stats.counter_handle(
            prefix + "frontend.tasks_decoded")
        self._stat_window_samples = self.stats.sampler_handle(
            prefix + "frontend.window_tasks")
        self._stat_window_occupancy = self.stats.accumulator_handle(
            prefix + "frontend.window_occupancy")

        if wire:
            self.wire()

    # -- Assembly --------------------------------------------------------------------

    def wire(self, trs_view: Optional[List] = None,
             ort_view: Optional[List] = None,
             ovt_view: Optional[List] = None,
             pressure_sink=None, local_trs: Optional[range] = None) -> None:
        """Connect the pipeline's modules through the given directory views.

        Without arguments (the single-frontend case) every view is the
        pipeline's own module list and capacity back-pressure targets its own
        gateway.  A multi-frontend assembly passes global views (remote
        modules as stubs), a broadcast ``pressure_sink`` and the range of
        global TRS indices this pipeline's gateway may allocate from.
        """
        trs_view = trs_view if trs_view is not None else self.trs_list
        ort_view = ort_view if ort_view is not None else self.orts
        ovt_view = ovt_view if ovt_view is not None else self.ovts
        sink = pressure_sink if pressure_sink is not None else self.gateway
        self.gateway.attach(trs_view, ort_view, local_trs=local_trs)
        for ort, ovt in zip(self.orts, self.ovts):
            ort.attach(ovt, trs_view, sink)
            ovt.attach(ort, trs_view, sink)
        for trs in self.trs_list:
            trs.attach(trs_view, ovt_view, self.gateway, self.ready_queue)
            trs.on_task_decoded = self._record_decode

    def unwire(self) -> None:
        """Undo :meth:`wire` once the run is over.

        The links make the pipeline's modules reference each other; without
        them a finished machine is freed by reference counting, and each
        module keeps its own tables and statistics readable.
        """
        self.gateway.detach()
        for module in (*self.trs_list, *self.orts, *self.ovts):
            module.detach()

    # -- Task-generating-thread interface -------------------------------------------

    def can_accept(self) -> bool:
        """True if the gateway buffer has room for another task."""
        return self.gateway.can_accept()

    def try_submit(self, record: TaskRecord) -> bool:
        """Submit a task to the gateway; returns False when the buffer is full."""
        return self.gateway.try_submit(record)

    def notify_when_space(self, callback) -> None:
        """Register a one-shot callback for when gateway buffer space frees."""
        self.gateway.notify_when_space(callback)

    # -- Backend interface ---------------------------------------------------------------

    def notify_finished(self, task: TaskID, latency: int = 0) -> None:
        """Tell the owning TRS that ``task`` completed execution.

        ``task.trs`` is a global index; the scheduler routes completions to
        the owning pipeline, so the TRS is always local here.
        """
        self.engine.schedule_unref(
            latency, self.trs_list[task.trs - self.trs_base].receive,
            TaskFinished(task))

    # -- Measurements ----------------------------------------------------------------------

    def _record_decode(self, task: TaskID, record: TaskRecord, time: int) -> None:
        if not self.tasks_decoded:
            self.first_decode = time
        self.last_decode = time
        self.tasks_decoded += 1
        self._stat_tasks_decoded.value += 1

    def decode_rate_cycles(self) -> float:
        """Average cycles between successive additions to the task graph.

        This is the metric of Figures 12 and 13.  Returns 0.0 when fewer than
        two tasks have been decoded.
        """
        if self.tasks_decoded < 2:
            return 0.0
        return (self.last_decode - self.first_decode) / (self.tasks_decoded - 1)

    def decode_rate_ns(self, clock_ghz: Optional[float] = None) -> float:
        """Decode rate in nanoseconds per task."""
        cycles = self.decode_rate_cycles()
        if clock_ghz is None:
            return cycles_to_ns(cycles)
        return cycles_to_ns(cycles, clock_ghz)

    def window_occupancy(self) -> int:
        """Number of tasks currently held across all TRSs."""
        return sum(map(len, self._trs_tables))

    def sample_occupancy(self) -> int:
        """Record a window-occupancy sample into the statistics collector
        and return it."""
        occupancy = sum(map(len, self._trs_tables))
        self._stat_window_samples.add()
        self._stat_window_occupancy.add(occupancy)
        return occupancy

    def modules(self) -> List:
        """Every packet-processing module of the frontend, gateway first."""
        return [self.gateway, *self.trs_list, *self.orts, *self.ovts,
                self.ready_queue]

    def bind_observer(self, observer) -> None:
        """Attach an observer to every frontend module and register the
        frontend-level occupancy probes (see :mod:`repro.obs`)."""
        for module in self.modules():
            module.bind_observer(observer)
        if observer is not None:
            prefix = self.prefix
            observer.add_probe(prefix + "frontend.window_tasks",
                               self.window_occupancy)
            observer.add_probe(prefix + "gateway.buffer",
                               lambda: self.gateway.buffer_occupancy)
            observer.add_probe(prefix + "ready_queue.depth",
                               lambda: len(self.ready_queue))

    def record_module_utilization(self, elapsed_cycles: int) -> None:
        """Record each module's ``busy_cycles / elapsed`` into stats.

        Called once at the end of a run (see
        :meth:`repro.backend.system.TaskSuperscalarSystem.run`); the
        resulting ``<module>.utilization`` accumulators let decode-rate
        experiments report which pipeline module saturates first.
        """
        for module in self.modules():
            module.record_utilization(elapsed_cycles)

    def describe(self) -> str:
        """One-line summary of the frontend configuration."""
        cfg = self.config
        return (f"{cfg.num_trs} TRS / {cfg.num_ort} ORT / {cfg.num_ort} OVT, "
                f"TRS {cfg.total_trs_capacity_bytes // 1024} KB, "
                f"ORT {cfg.total_ort_capacity_bytes // 1024} KB, "
                f"OVT {cfg.total_ovt_capacity_bytes // 1024} KB")
