"""Oracles for simulated results that do not come from the simulator itself.

A simulated point is checked against the gold dependency graph of its trace
(:func:`repro.runtime.taskgraph.build_dependency_graph`), against the drain
invariant ``tasks_completed == tasks_decoded == num_tasks`` and against two
lower bounds on the makespan: the dataflow critical path and the total work
spread over every core.  Unlike ``DependencyGraph.validate_schedule``, every
violated true (read-after-write) edge is counted instead of stopping at the
first one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, Iterable, List, Tuple

from repro.runtime.taskgraph import DependencyKind, build_dependency_graph


class GoldGraph:
    """What a correct schedule of one trace must satisfy."""

    def __init__(self, trace, num_cores: int):
        graph = build_dependency_graph(trace)
        #: True (RAW) edges as ``(producer, consumer)`` sequence pairs.
        self.edges: List[Tuple[int, int]] = [
            (edge.producer, edge.consumer)
            for edge in graph.edges_of_kind(DependencyKind.RAW)]
        self.sequences = [task.sequence for task in trace]
        self.critical_path = graph.critical_path_cycles()
        total = trace.total_runtime_cycles
        self.work_bound = -(-total // num_cores)


@dataclasses.dataclass
class PointCheck:
    """Outcome of checking one simulated point."""

    violated_edges: int
    problems: List[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def check_point(gold: GoldGraph, result,
                table: Dict[int, Tuple[int, int]]) -> PointCheck:
    """Check one result and its ``scheduler.schedule_table()``."""
    problems: List[str] = []
    num_tasks = len(gold.sequences)
    if not (result.tasks_completed == result.tasks_decoded == num_tasks
            == result.num_tasks):
        problems.append(
            f"drain: completed {result.tasks_completed}, decoded "
            f"{result.tasks_decoded}, trace {num_tasks}")
    missing = [seq for seq in gold.sequences if seq not in table]
    if missing:
        problems.append(f"{len(missing)} task(s) missing from the schedule")
        return PointCheck(0, problems)
    if any(finish < start for start, finish in table.values()):
        problems.append("a task finishes before it starts")
    violated = sum(1 for producer, consumer in gold.edges
                   if table[consumer][0] < table[producer][1])
    if violated:
        problems.append(f"{violated} of {len(gold.edges)} true dependency "
                        "edges violated")
    if result.makespan_cycles < gold.critical_path:
        problems.append(f"makespan {result.makespan_cycles} below the "
                        f"critical path {gold.critical_path}")
    if result.makespan_cycles < gold.work_bound:
        problems.append(f"makespan {result.makespan_cycles} below the work "
                        f"bound {gold.work_bound}")
    return PointCheck(violated, problems)


def result_digest(results: Iterable) -> str:
    """Digest over every field (``stats`` keys included) of every result."""
    digest = hashlib.sha256()
    for result in results:
        payload = None if result is None else dataclasses.asdict(result)
        digest.update(json.dumps(payload, sort_keys=True).encode())
    return digest.hexdigest()[:16]
