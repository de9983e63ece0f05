"""Gold dependency-graph construction and dataflow analysis.

This module is the *reference* (software, non-timed) dependency decoder.  It
scans a task trace in creation order -- exactly the in-order decode the paper
requires -- and produces the inter-task dependency graph:

* **RaW** (true) dependencies: a reader depends on the most recent writer of
  the object.
* **WaR** (anti) dependencies: a writer follows earlier readers of the
  previous version.
* **WaW** (output) dependencies: a writer follows the previous writer.

The task-superscalar pipeline renames operands in the OVT, which removes WaR
and WaW dependencies from the *execution* constraints (only RaW plus the
in-order release of inout chains remain).  The graph can therefore be queried
under two policies:

* ``renamed=True`` (default): only true dependencies constrain execution --
  this is what the hardware pipeline enforces, and what the dataflow-limit /
  critical-path analyses use.
* ``renamed=False``: all three dependency kinds constrain execution -- this is
  what a naive in-order-memory runtime would have to respect.

The graph is also used by the property-based tests to validate that every
schedule produced by the simulators respects the true dependencies.
"""

from __future__ import annotations

import enum
import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import WorkloadError
from repro.trace.records import TaskRecord, TaskTrace


class DependencyKind(enum.Enum):
    """Kind of an inter-task dependency edge."""

    RAW = "RaW"
    WAR = "WaR"
    WAW = "WaW"


@dataclass(frozen=True)
class DependencyEdge:
    """A directed dependency: ``consumer`` must wait for ``producer``.

    Attributes:
        producer: Sequence number of the earlier task.
        consumer: Sequence number of the later task.
        kind: RaW / WaR / WaW.
        address: Base address of the memory object inducing the dependency.
    """

    producer: int
    consumer: int
    kind: DependencyKind
    address: int


class DependencyGraph:
    """The inter-task dependency graph of a trace."""

    def __init__(self, trace: TaskTrace, edges: Iterable[DependencyEdge]):
        self.trace = trace
        self.edges: List[DependencyEdge] = list(edges)
        self._successors_true: Dict[int, Set[int]] = defaultdict(set)
        self._predecessors_true: Dict[int, Set[int]] = defaultdict(set)
        self._successors_all: Dict[int, Set[int]] = defaultdict(set)
        self._predecessors_all: Dict[int, Set[int]] = defaultdict(set)
        for edge in self.edges:
            self._successors_all[edge.producer].add(edge.consumer)
            self._predecessors_all[edge.consumer].add(edge.producer)
            if edge.kind is DependencyKind.RAW:
                self._successors_true[edge.producer].add(edge.consumer)
                self._predecessors_true[edge.consumer].add(edge.producer)

    # -- Basic queries ----------------------------------------------------------

    @property
    def num_tasks(self) -> int:
        """Number of tasks (graph nodes)."""
        return len(self.trace)

    def edges_of_kind(self, kind: DependencyKind) -> List[DependencyEdge]:
        """All edges of the given kind."""
        return [edge for edge in self.edges if edge.kind is kind]

    def predecessors(self, task: int, renamed: bool = True) -> Set[int]:
        """Tasks that must complete before ``task`` may start."""
        table = self._predecessors_true if renamed else self._predecessors_all
        return set(table.get(task, ()))

    def successors(self, task: int, renamed: bool = True) -> Set[int]:
        """Tasks that depend on ``task``."""
        table = self._successors_true if renamed else self._successors_all
        return set(table.get(task, ()))

    def is_independent(self, first: int, second: int, renamed: bool = True) -> bool:
        """True if neither task transitively depends on the other.

        The paper's Figure 1 example: tasks 6 and 23 (1-based) of the 5x5
        Cholesky graph can run in parallel.
        """
        return (not self._reaches(first, second, renamed)
                and not self._reaches(second, first, renamed))

    def _reaches(self, source: int, target: int, renamed: bool) -> bool:
        table = self._successors_true if renamed else self._successors_all
        if source == target:
            return True
        seen = {source}
        stack = [source]
        while stack:
            node = stack.pop()
            for succ in table.get(node, ()):
                if succ == target:
                    return True
                if succ not in seen and succ <= target:
                    seen.add(succ)
                    stack.append(succ)
        return False

    # -- Schedulability analyses -------------------------------------------------

    def validate_schedule(self, start_times: Dict[int, int],
                          finish_times: Dict[int, int],
                          renamed: bool = True) -> None:
        """Check that a schedule respects the dependency constraints.

        Args:
            start_times: Task sequence -> start time.
            finish_times: Task sequence -> finish time.
            renamed: Whether WaR/WaW were removed by renaming.

        Raises:
            WorkloadError: on a missing task, a task finishing before it
                starts, or violated dependencies.  Every edge is checked, so
                the message counts all violated edges and names the first.
        """
        for task in self.trace:
            seq = task.sequence
            if seq not in start_times or seq not in finish_times:
                raise WorkloadError(f"schedule is missing task {seq}")
            if finish_times[seq] < start_times[seq]:
                raise WorkloadError(
                    f"task {seq} finishes at {finish_times[seq]} before its start "
                    f"{start_times[seq]}"
                )
        edges = (self.edges_of_kind(DependencyKind.RAW) if renamed
                 else self.edges)
        violated = [edge for edge in edges
                    if start_times[edge.consumer] < finish_times[edge.producer]]
        if violated:
            first = violated[0]
            kind = "true dependency" if renamed else "dependency"
            raise WorkloadError(
                f"{len(violated)} of {len(edges)} {kind} edges violated; first: "
                f"task {first.consumer} started at {start_times[first.consumer]} "
                f"before its producer {first.producer} finished at "
                f"{finish_times[first.producer]}"
            )

    def critical_path_cycles(self, renamed: bool = True) -> int:
        """Length (in cycles) of the longest dependency chain.

        This is the dataflow limit: no schedule, even with infinitely many
        processors and a zero-latency frontend, can finish faster.
        """
        finish: Dict[int, int] = {}
        predecessors = self._predecessors_true if renamed else self._predecessors_all
        longest = 0
        for task in self.trace:
            start = 0
            for producer in predecessors.get(task.sequence, ()):
                start = max(start, finish[producer])
            finish[task.sequence] = start + task.runtime_cycles
            longest = max(longest, finish[task.sequence])
        return longest

    def dataflow_speedup_limit(self, renamed: bool = True) -> float:
        """Upper bound on speedup: total work / critical path."""
        critical = self.critical_path_cycles(renamed)
        if critical == 0:
            return float(len(self.trace)) if len(self.trace) else 0.0
        return self.trace.total_runtime_cycles / critical

    def asap_levels(self, renamed: bool = True) -> Dict[int, int]:
        """Topological (ASAP) level of each task, ignoring runtimes."""
        predecessors = self._predecessors_true if renamed else self._predecessors_all
        levels: Dict[int, int] = {}
        for task in self.trace:
            level = 0
            for producer in predecessors.get(task.sequence, ()):
                level = max(level, levels[producer] + 1)
            levels[task.sequence] = level
        return levels

    def max_width(self, renamed: bool = True) -> int:
        """Maximum number of tasks sharing an ASAP level (parallelism proxy)."""
        levels = self.asap_levels(renamed)
        if not levels:
            return 0
        counts: Dict[int, int] = defaultdict(int)
        for level in levels.values():
            counts[level] += 1
        return max(counts.values())

    def simulate_ideal_schedule(self, num_processors: int,
                                renamed: bool = True) -> int:
        """Makespan of a greedy list schedule on ``num_processors`` cores.

        Frontend and scheduling costs are zero: this is the pure dataflow +
        resource bound the paper's speedups are ultimately limited by.
        """
        if num_processors <= 0:
            raise WorkloadError("num_processors must be positive")
        predecessors = self._predecessors_true if renamed else self._predecessors_all
        successors = self._successors_true if renamed else self._successors_all
        runtime = {task.sequence: task.runtime_cycles for task in self.trace}
        remaining: Dict[int, int] = {}
        # Ready heap ordered by release time (the latest finish among a task's
        # predecessors), breaking ties by creation order.
        ready: List[Tuple[int, int]] = []
        for task in self.trace:
            count = len(predecessors.get(task.sequence, ()))
            remaining[task.sequence] = count
            if count == 0:
                ready.append((0, task.sequence))
        heapq.heapify(ready)
        # Each processor is represented by the time it becomes free.
        processors = [0] * num_processors
        heapq.heapify(processors)
        finish_times: Dict[int, int] = {}
        scheduled = 0
        total = len(self.trace)
        while scheduled < total:
            if not ready:
                raise WorkloadError("dependency graph has a cycle or dangling task")
            release, seq = heapq.heappop(ready)
            core_free = heapq.heappop(processors)
            start = max(core_free, release)
            finish = start + runtime[seq]
            finish_times[seq] = finish
            heapq.heappush(processors, finish)
            scheduled += 1
            for succ in successors.get(seq, ()):
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    succ_release = max(finish_times[p] for p in predecessors[succ])
                    heapq.heappush(ready, (succ_release, succ))
        return max(finish_times.values()) if finish_times else 0


def build_dependency_graph(trace: TaskTrace,
                           match_by: str = "base_address") -> DependencyGraph:
    """Build the gold dependency graph for a trace.

    Args:
        trace: The task trace, in creation order.
        match_by: ``"base_address"`` matches operands exactly as the hardware
            ORT does (same base pointer == same object).  ``"overlap"``
            additionally detects dependencies between operands whose byte
            ranges overlap even when their base addresses differ; the paper
            restricts itself to consecutive objects identified by base
            address, but the overlap mode is useful for validating workloads.

    Returns:
        The :class:`DependencyGraph`.
    """
    if match_by not in ("base_address", "overlap"):
        raise WorkloadError(f"unknown match_by mode {match_by!r}")

    edges: List[DependencyEdge] = []
    if match_by == "base_address":
        last_writer: Dict[int, int] = {}
        readers_since_write: Dict[int, List[int]] = defaultdict(list)
        for task in trace:
            seq = task.sequence
            for operand in task.memory_operands:
                address = operand.address
                if operand.direction.reads:
                    producer = last_writer.get(address)
                    if producer is not None and producer != seq:
                        edges.append(DependencyEdge(producer, seq, DependencyKind.RAW, address))
                if operand.direction.writes:
                    producer = last_writer.get(address)
                    if producer is not None and producer != seq:
                        edges.append(DependencyEdge(producer, seq, DependencyKind.WAW, address))
                    for reader in readers_since_write.get(address, ()):
                        if reader != seq and reader != producer:
                            edges.append(DependencyEdge(reader, seq, DependencyKind.WAR, address))
            # Update the tables only after scanning all operands, so a task
            # that both reads and writes the same object does not depend on
            # itself.
            for operand in task.memory_operands:
                address = operand.address
                if operand.direction.writes:
                    last_writer[address] = seq
                    readers_since_write[address] = []
                if operand.direction.reads:
                    readers_since_write[address].append(seq)
    else:
        # Overlap matching: quadratic in the number of distinct object ranges
        # per address; acceptable for validation-sized traces.
        writes_log: List[Tuple[int, int, int]] = []  # (start, end, task)
        reads_log: List[Tuple[int, int, int]] = []
        for task in trace:
            seq = task.sequence
            for operand in task.memory_operands:
                start, end = operand.address, operand.address + operand.size
                if operand.direction.reads:
                    producer = _last_overlapping(writes_log, start, end, seq)
                    if producer is not None:
                        edges.append(DependencyEdge(producer, seq, DependencyKind.RAW,
                                                    operand.address))
                if operand.direction.writes:
                    producer = _last_overlapping(writes_log, start, end, seq)
                    if producer is not None:
                        edges.append(DependencyEdge(producer, seq, DependencyKind.WAW,
                                                    operand.address))
                    for r_start, r_end, reader in reads_log:
                        if reader != seq and r_start < end and start < r_end:
                            if reader > (producer if producer is not None else -1):
                                edges.append(DependencyEdge(reader, seq, DependencyKind.WAR,
                                                            operand.address))
            for operand in task.memory_operands:
                start, end = operand.address, operand.address + operand.size
                if operand.direction.writes:
                    writes_log.append((start, end, seq))
                if operand.direction.reads:
                    reads_log.append((start, end, seq))

    # De-duplicate edges (a task reading two operands of the same producer,
    # or reading and writing the same object, can generate duplicates).
    unique = {(e.producer, e.consumer, e.kind): e for e in edges}
    return DependencyGraph(trace, unique.values())


def _last_overlapping(log: List[Tuple[int, int, int]], start: int, end: int,
                      current: int) -> Optional[int]:
    best: Optional[int] = None
    for w_start, w_end, writer in log:
        if writer != current and w_start < end and start < w_end:
            if best is None or writer > best:
                best = writer
    return best
