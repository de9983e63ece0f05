"""The ready queue between the frontend and the execution backend.

The paper's backend pushes runnable tasks into "a queuing system similar to
Carbon" (hardware task queues with fast dispatch; the evaluated system does
not support task stealing).  The model is a simple FIFO that notifies a
listener -- the backend scheduler -- whenever a task arrives.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.frontend.messages import TaskReady
from repro.sim.engine import Engine
from repro.sim.module import PacketProcessor
from repro.sim.stats import StatsCollector


class ReadyQueue(PacketProcessor):
    """FIFO of ready tasks feeding the backend scheduler."""

    def __init__(self, engine: Engine, stats: Optional[StatsCollector] = None,
                 name: str = "ready_queue"):
        super().__init__(engine, name, stats)
        self._ready_tasks: Deque[TaskReady] = deque()
        #: Callback invoked (with no arguments) whenever a task is enqueued.
        self.on_task_available: Optional[Callable[[], None]] = None
        self._peak_depth = 0
        # Hardware task queues enqueue in a handful of cycles.
        self._register_packet(TaskReady, self._handle_task_ready, 1)
        self._stat_enqueued = self.scope.counter_handle("enqueued")
        self._stat_dequeued = self.scope.counter_handle("dequeued")

    def _handle_task_ready(self, packet: TaskReady) -> None:
        self._ready_tasks.append(packet)
        depth = len(self._ready_tasks)
        if depth > self._peak_depth:
            self._peak_depth = depth
        self._stat_enqueued.value += 1
        if self.on_task_available is not None:
            self.on_task_available()

    # -- Scheduler interface ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ready_tasks)

    @property
    def peak_depth(self) -> int:
        """Largest queue depth observed during the run."""
        return self._peak_depth

    def pop(self) -> Optional[TaskReady]:
        """Dequeue the oldest ready task, or None when empty."""
        if not self._ready_tasks:
            return None
        self._stat_dequeued.value += 1
        return self._ready_tasks.popleft()
