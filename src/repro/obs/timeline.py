"""Task-lifecycle timelines, stall attribution and critical-path extraction.

This module turns a flat :class:`repro.obs.observer.Recording` into the
analyses the paper's evaluation reasons about:

* :func:`build_timeline` -- per-task lifecycle stamps (created -> admitted ->
  allocated -> decoded -> ready -> dispatched -> retired -> freed) plus the
  dependence-forward edges observed inside the TRSs;
* :func:`stall_attribution` -- classify the cycles every task spent blocked
  between pipeline stages into the bottleneck categories the frontend can
  exhibit (window/TRS-full, ORT/OVT renaming pressure, decode bandwidth,
  operand waits, no free core);
* :func:`critical_path` -- walk the observed dependence edges backwards from
  the last task to retire, yielding the chain of tasks that bounded the
  makespan.

Everything here is a pure function of the recording: it can run in-process
right after a simulation, or later against a saved ``.robs`` file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.events import (
    EV_DEP_FORWARD,
    EV_MODULE_SERVICE,
    EV_OCCUPANCY,
    EV_STALL_SOURCE,
    EV_TASK_ADMITTED,
    EV_TASK_ALLOCATED,
    EV_TASK_CREATED,
    EV_TASK_DECODED,
    EV_TASK_DISPATCHED,
    EV_TASK_FREED,
    EV_TASK_READY,
    EV_TASK_RETIRED,
    EV_TASK_WINDOW_WAIT,
)
from repro.obs.observer import Recording

#: Stall/bottleneck categories, in pipeline order.  ``window_full`` is time
#: between admission and allocation not explained by a renaming stall
#: (i.e. every TRS rejected the task -- the paper's task-window pressure);
#: ``renaming_full`` is admission-to-allocation time overlapping a gateway
#: stall asserted by an ORT or OVT; ``decode`` is allocation-to-decoded
#: (decode bandwidth); ``operand_unready`` is decoded-to-ready (true
#: dependences); ``no_free_core`` is ready-to-dispatch; ``execute`` is
#: dispatch-to-retire (not a stall, reported for scale).
STALL_CATEGORIES = ("window_full", "renaming_full", "decode",
                    "operand_unready", "no_free_core", "execute")


@dataclass(slots=True)
class TaskSpans:
    """Lifecycle stamps of one task (cycle of each stage; -1 = not seen)."""

    seq: int
    created: int = -1
    admitted: int = -1
    allocated: int = -1
    decoded: int = -1
    ready: int = -1
    dispatched: int = -1
    retired: int = -1
    freed: int = -1
    core: int = -1
    window_waited: bool = False
    #: Observed dependence-forward edges into this task:
    #: ``(producer_seq, forward_cycle)``.
    deps: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True when every stage from admission to retire was recorded."""
        return (self.admitted >= 0 and self.allocated >= 0
                and self.decoded >= 0 and self.ready >= 0
                and self.dispatched >= 0 and self.retired >= 0)


@dataclass
class Timeline:
    """Everything :func:`build_timeline` reconstructs from a recording."""

    tasks: Dict[int, TaskSpans]
    #: Half-open ``[start, end)`` intervals during which the gateway was
    #: stalled by at least one ORT/OVT source, merged across sources.
    renaming_stalls: List[Tuple[int, int]]
    #: Per-module service totals: name -> (service count, busy cycles).
    module_service: Dict[str, Tuple[int, int]]
    #: Largest cycle stamp observed.
    end_time: int
    #: Events lost to ring wrap-around (stamps may be missing if > 0).
    dropped: int


def build_timeline(recording: Recording) -> Timeline:
    """Reconstruct per-task lifecycles and module activity from a recording.

    Occupancy samples -- most of a sweep point's events -- and module stall
    levels only move :attr:`Timeline.end_time`: no analysis here reads
    them (the Perfetto export draws them from the recording itself).
    """
    names = recording.names
    tasks: Dict[int, TaskSpans] = {}
    tid_to_seq: Dict[int, int] = {}
    pending_deps: List[Tuple[int, int, int]] = []  # (consumer_tid, producer_tid, time)
    active_sources: Dict[int, int] = {}  # source name id -> assert cycle
    renaming_open: Optional[int] = None
    renaming_stalls: List[Tuple[int, int]] = []
    service: Dict[str, List[int]] = {}
    end_time = 0

    for time, kind, module, task, value in recording.events:
        if time > end_time:
            end_time = time
        if kind == EV_OCCUPANCY:
            continue
        if EV_TASK_CREATED <= kind <= EV_TASK_FREED:  # a lifecycle stamp
            entry = tasks.get(task)
            if entry is None:
                entry = tasks[task] = TaskSpans(task)
            if kind == EV_TASK_CREATED:
                entry.created = time
            elif kind == EV_TASK_ADMITTED:
                entry.admitted = time
            elif kind == EV_TASK_WINDOW_WAIT:
                entry.window_waited = True
            elif kind == EV_TASK_ALLOCATED:
                entry.allocated = time
                tid_to_seq[value] = task
            elif kind == EV_TASK_DECODED:
                entry.decoded = time
            elif kind == EV_TASK_READY:
                entry.ready = time
            elif kind == EV_TASK_DISPATCHED:
                entry.dispatched = time
                entry.core = value
            elif kind == EV_TASK_RETIRED:
                entry.retired = time
            else:
                entry.freed = time
        elif kind == EV_DEP_FORWARD:
            pending_deps.append((task, value, time))
        elif kind == EV_MODULE_SERVICE:
            totals = service.get(names[module])
            if totals is None:
                service[names[module]] = [1, value]
            else:
                totals[0] += 1
                totals[1] += value
        elif kind == EV_STALL_SOURCE:
            if value:
                if not active_sources:
                    renaming_open = time
                active_sources.setdefault(task, time)
            else:
                active_sources.pop(task, None)
                if not active_sources and renaming_open is not None:
                    renaming_stalls.append((renaming_open, time))
                    renaming_open = None

    # Close an interval still open at the end of the recording.
    if renaming_open is not None:
        renaming_stalls.append((renaming_open, end_time))

    # Resolve dependence edges now that every allocation has been seen
    # (edges whose allocation event was lost to wrap-around are skipped).
    for consumer_tid, producer_tid, time in pending_deps:
        consumer = tid_to_seq.get(consumer_tid)
        producer = tid_to_seq.get(producer_tid)
        if consumer is not None and producer is not None:
            tasks[consumer].deps.append((producer, time))

    return Timeline(tasks=tasks,
                    renaming_stalls=renaming_stalls,
                    module_service={name: (count, busy)
                                    for name, (count, busy) in service.items()},
                    end_time=end_time,
                    dropped=recording.dropped)


def _overlap(start: int, end: int, intervals: List[Tuple[int, int]]) -> int:
    """Cycles of ``[start, end)`` covered by the (sorted) intervals."""
    covered = 0
    for lo, hi in intervals:
        if hi <= start:
            continue
        if lo >= end:
            break
        covered += min(hi, end) - max(lo, start)
    return covered


def stall_attribution(timeline: Timeline) -> Dict[str, object]:
    """Classify every recorded blocked cycle into a bottleneck category.

    Returns a dict with per-category total cycles across all complete tasks
    (``totals``), the same as fractions of the per-task sum (``fractions``),
    the number of tasks attributed, and the count skipped for missing stamps
    (non-zero only when the ring wrapped).
    """
    totals = {category: 0 for category in STALL_CATEGORIES}
    attributed = skipped = 0
    for entry in timeline.tasks.values():
        if not entry.complete:
            skipped += 1
            continue
        attributed += 1
        alloc_wait = entry.allocated - entry.admitted
        renaming = min(alloc_wait, _overlap(entry.admitted, entry.allocated,
                                            timeline.renaming_stalls))
        totals["renaming_full"] += renaming
        totals["window_full"] += alloc_wait - renaming
        totals["decode"] += entry.decoded - entry.allocated
        totals["operand_unready"] += entry.ready - entry.decoded
        totals["no_free_core"] += entry.dispatched - entry.ready
        totals["execute"] += entry.retired - entry.dispatched
    grand = sum(totals.values())
    fractions = {category: (cycles / grand if grand else 0.0)
                 for category, cycles in totals.items()}
    return {"totals": totals, "fractions": fractions,
            "tasks_attributed": attributed, "tasks_skipped": skipped}


def critical_path(timeline: Timeline) -> List[Dict[str, int]]:
    """The dependence chain bounding the makespan, in execution order.

    Walks backwards from the last task to retire, at each step following the
    observed dependence edge whose data-ready forward arrived *last* (the
    edge that actually gated readiness).  Each element reports the task's
    sequence and its ready/dispatch/retire stamps.
    """
    candidates = [entry for entry in timeline.tasks.values()
                  if entry.retired >= 0]
    if not candidates:
        return []
    current: Optional[TaskSpans] = max(candidates,
                                       key=lambda entry: (entry.retired,
                                                          entry.seq))
    chain: List[TaskSpans] = []
    visited = set()
    while current is not None and current.seq not in visited:
        visited.add(current.seq)
        chain.append(current)
        best: Optional[TaskSpans] = None
        best_time = -1
        for producer_seq, forward_time in current.deps:
            producer = timeline.tasks.get(producer_seq)
            if producer is not None and forward_time > best_time:
                best, best_time = producer, forward_time
        current = best
    chain.reverse()
    return [{"seq": entry.seq, "ready": entry.ready,
             "dispatched": entry.dispatched, "retired": entry.retired}
            for entry in chain]
