"""The backend task scheduler (the Carbon-like queuing system).

Ready tasks arrive in per-pipeline :class:`repro.frontend.ready_queue
.ReadyQueue` instances; the scheduler partitions the worker cores into one
contiguous *cluster* per pipeline and dispatches each queue's tasks onto its
cluster's idle cores, charging a small hardware dispatch latency, and notifies
the owning TRS when a task completes (plus a completion latency).  Dispatch
order within a cluster is FIFO.

The paper's evaluated system has a single frontend and no task stealing --
that remains the default (one cluster covering every core, ``steal_policy
"none"``), and it runs through the same code as every other machine size.
For multi-frontend topologies (:mod:`repro.topology`) the scheduler
additionally supports work stealing between clusters: a cluster whose own
queue has drained may pull tasks from another pipeline's queue (``random``
picks a victim uniformly among backlogged clusters, ``nearest`` scans the
ring of clusters outward), paying the inter-frontend forward latency on top
of the dispatch latency for the remote pull.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.config import BackendConfig, TopologyConfig
from repro.common.errors import SchedulingError
from repro.common.ids import TaskID
from repro.cores.core import WorkerCore
from repro.frontend.messages import TaskReady
from repro.frontend.ready_queue import ReadyQueue
from repro.obs.events import EV_TASK_DISPATCHED, EV_TASK_RETIRED
from repro.sim.engine import Engine
from repro.sim.module import SimModule, obs_noop
from repro.sim.stats import StatsCollector
from repro.trace.records import TaskRecord


class TaskScheduler(SimModule):
    """Dispatches ready tasks onto worker cores and reports completions."""

    def __init__(self, engine: Engine, config: BackendConfig, cores: List[WorkerCore],
                 ready_queues: List[ReadyQueue], frontends: List,
                 stats: Optional[StatsCollector] = None,
                 topology: Optional[TopologyConfig] = None):
        # Parallel lists: one ready queue and one frontend per pipeline.
        if len(frontends) != len(ready_queues):
            raise SchedulingError(
                f"{len(frontends)} frontends for {len(ready_queues)} ready queues")
        if len(cores) < len(ready_queues):
            raise SchedulingError(
                f"cannot cluster {len(cores)} cores for {len(ready_queues)} "
                "ready queues")
        super().__init__(engine, "scheduler", stats)
        self._steal_policy = topology.steal_policy if topology is not None else "none"
        self.config = config
        self.cores = cores
        self.ready_queues = ready_queues
        self.frontends = frontends
        #: Global TRS index -> owning frontend (completion routing).
        self._trs_per_fe = frontends[0].config.num_trs

        # Contiguous core clusters, one per pipeline; remainder cores go to
        # the leading clusters.  A single pipeline owns every core.
        num_clusters = len(ready_queues)
        base, extra = divmod(len(cores), num_clusters)
        self._cluster_idle: List[List[int]] = []
        self._core_cluster: List[int] = []
        lo = 0
        for c in range(num_clusters):
            hi = lo + base + (1 if c < extra else 0)
            self._cluster_idle.append(list(range(lo, hi)))
            self._core_cluster.extend([c] * (hi - lo))
            lo = hi
        for c, queue in enumerate(ready_queues):
            queue.on_task_available = self._make_available_hook(c)

        self._steal_latency = (topology.forward_latency_cycles
                               if topology is not None else 0)
        self._steal_rng = random.Random(0xC0FFEE)
        self.tasks_stolen = 0
        self.steals_by_cluster = [0] * num_clusters
        #: Completion log: (task sequence, start cycle, finish cycle, core index).
        self.completions: List[Tuple[int, int, int, int]] = []
        self._start_times: Dict[TaskID, int] = {}
        self.tasks_completed = 0
        self.last_completion_time = 0
        #: Optional callback fired on every task completion.
        self.on_task_complete: Optional[Callable[[TaskID, TaskRecord], None]] = None
        scope = self.scope
        self._stat_dispatches = scope.counter_handle("dispatches")
        self._stat_completions = scope.counter_handle("completions")
        # Always 0; kept so pinned goldens and benchmark digests stay equal.
        scope.counter_handle("transfer_cycles")
        # Steal accounting only exists on stealing topologies: a trivial
        # machine must not grow new stat keys.
        if self._steal_policy != "none":
            self._stat_steals = scope.counter_handle("steals")

    def _bind_obs_handles(self) -> None:
        super()._bind_obs_handles()
        observer = self._observer
        if observer is not None:
            self._obs_task = observer.task_handle(self.name)
            self._obs_retired = observer.retired_handle()
            observer.add_probe("scheduler.idle_cores",
                               lambda: sum(map(len, self._cluster_idle)))
        else:
            self._obs_task = obs_noop
            self._obs_retired = obs_noop

    # -- Dispatch --------------------------------------------------------------------

    def _make_available_hook(self, cluster: int) -> Callable[[], None]:
        if self._steal_policy == "none":
            return lambda: self._dispatch_cluster(cluster)

        def hook() -> None:
            self._dispatch_cluster(cluster)
            # Work arrived: idle clusters elsewhere may steal the backlog.
            self._balance()
        return hook

    def _dispatch_cluster(self, cluster: int) -> None:
        idle = self._cluster_idle[cluster]
        queue = self.ready_queues[cluster]
        while idle and len(queue) > 0:
            ready = queue.pop()
            if ready is None:  # pragma: no cover - guarded by the length check
                break
            core_index = idle.pop()
            self.schedule(self.config.dispatch_latency_cycles,
                          self._start_task, ready, core_index)
        if idle and self._steal_policy != "none":
            self._steal_into(cluster)

    # -- Work stealing ---------------------------------------------------------------

    def _pick_victim(self, cluster: int) -> Optional[int]:
        """A backlogged cluster to steal from, or None."""
        queues = self.ready_queues
        if self._steal_policy == "nearest":
            num = len(queues)
            for step in range(1, num):
                victim = (cluster + step) % num
                if len(queues[victim]) > 0:
                    return victim
            return None
        # random
        candidates = [c for c in range(len(queues))
                      if c != cluster and len(queues[c]) > 0]
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        return self._steal_rng.choice(candidates)

    def _steal_into(self, cluster: int) -> None:
        """Pull tasks from other clusters' queues onto this cluster's cores."""
        idle = self._cluster_idle[cluster]
        while idle:
            victim = self._pick_victim(cluster)
            if victim is None:
                return
            ready = self.ready_queues[victim].pop()
            if ready is None:  # pragma: no cover - victim was non-empty
                return
            core_index = idle.pop()
            self.tasks_stolen += 1
            self.steals_by_cluster[cluster] += 1
            self._stat_steals.value += 1
            # A remote pull crosses the inter-frontend fabric.
            self.schedule(
                self.config.dispatch_latency_cycles + self._steal_latency,
                self._start_task, ready, core_index)

    def _balance(self) -> None:
        for cluster, idle in enumerate(self._cluster_idle):
            if idle and len(self.ready_queues[cluster]) == 0:
                self._steal_into(cluster)

    # -- Execution -------------------------------------------------------------------

    def _start_task(self, ready: TaskReady, core_index: int) -> None:
        core = self.cores[core_index]
        self._start_times[ready.task] = self.now
        self._stat_dispatches.value += 1
        record = ready.record
        self._obs_task(EV_TASK_DISPATCHED, self.now, record.sequence, core_index)
        core.execute(ready.task, record, self._task_finished)

    def _task_finished(self, task: TaskID, record: TaskRecord, core_index: int) -> None:
        start = self._start_times.pop(task, None)
        if start is None:
            raise SchedulingError(f"completion for task {task} that never started")
        self.completions.append((record.sequence, start, self.now, core_index))
        self.tasks_completed += 1
        self.last_completion_time = self.now
        self._stat_completions.value += 1
        self._obs_task(EV_TASK_RETIRED, self.now, record.sequence, core_index)
        self._obs_retired(self.now)
        cluster = self._core_cluster[core_index]
        self._cluster_idle[cluster].append(core_index)
        if self.on_task_complete is not None:
            self.on_task_complete(task, record)
        # Notify the owning frontend (global TRS index -> pipeline) so the
        # TRS can run the completion path.
        self.frontends[task.trs // self._trs_per_fe].notify_finished(
            task, latency=self.config.completion_latency_cycles)
        # The freed core may immediately pick up more work.
        self._dispatch_cluster(cluster)

    # -- Introspection -----------------------------------------------------------------

    def schedule_table(self) -> Dict[int, Tuple[int, int]]:
        """Mapping of task sequence -> (start, finish) cycles."""
        return {seq: (start, finish) for seq, start, finish, _ in self.completions}
