"""What the simulated machines share: one run of one trace.

:class:`repro.backend.system.TaskSuperscalarSystem` and
:class:`repro.software.runtime_sim.SoftwareRuntimeSystem` wire their modules
to each other with peer references and callbacks, so while a machine runs it
is one reference cycle.  When ``run`` ends, also by raising, the machine
*detaches*: it drops every sideways and upward reference and keeps the
downward tree (machine -> modules -> their tables, statistics, engine
counters, the observer and its ring), so the caller's last reference frees
it at once by reference counting and everything read after a run still
reads.  A detached machine cannot run again.

Both machines also log task completions the same way, in a
:class:`CompletionLog`.
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from typing import Dict, Iterator, Tuple

from repro.common.errors import ReproError
from repro.runtime.taskgraph import build_dependency_graph
from repro.sim.engine import Engine
from repro.trace.records import TaskTrace


class CompletionLog:
    """When each completed task ran: one int64 column per field (task
    sequence, start cycle, finish cycle) and one row per task, in
    completion order."""

    __slots__ = ("sequence", "start", "finish")

    def __init__(self) -> None:
        self.sequence = array("q")
        self.start = array("q")
        self.finish = array("q")

    def add(self, sequence: int, start: int, finish: int) -> None:
        self.sequence.append(sequence)
        self.start.append(start)
        self.finish.append(finish)

    def table(self) -> Dict[int, Tuple[int, int]]:
        """Mapping of task sequence -> (start, finish) cycles."""
        return dict(zip(self.sequence, zip(self.start, self.finish)))

    def validate(self, trace: TaskTrace) -> None:
        """Check the log against the gold dependency graph of ``trace``:
        every consumer started after its true producers finished.

        Raises:
            WorkloadError: on a missing task or a violated edge.
        """
        build_dependency_graph(trace).validate_schedule(
            dict(zip(self.sequence, self.start)),
            dict(zip(self.sequence, self.finish)), renamed=True)


class Machine:
    """Base of a simulated machine: one engine, one run, then detached."""

    engine: Engine
    #: Set when ``run`` starts: a machine runs one trace.
    _ran = False

    @contextmanager
    def _single_run(self) -> Iterator[None]:
        """Wrap the body of ``run``: refuse a second run, detach on exit."""
        if self._ran:
            raise ReproError(
                f"this {type(self).__name__} has already run a trace; a "
                "machine runs one trace, so build a new one for the next run")
        self._ran = True
        try:
            yield
        finally:
            self._detach()
            self.engine.detach()

    def _simulate(self) -> None:
        """Run the event loop to completion with the cyclic collector paused.

        The loop allocates short-lived packets and entry tuples fast enough
        to trigger a generation-0 scan every few hundred events, and it
        creates no reference cycles for those scans to find.  Re-enabling
        the collector (when it was enabled) runs no collection by itself.
        """
        enabled = gc.isenabled()
        if enabled:
            gc.disable()
        try:
            self.engine.run()
        finally:
            if enabled:
                gc.enable()

    def _detach(self) -> None:
        """Drop this machine's sideways and upward references."""
        raise NotImplementedError
