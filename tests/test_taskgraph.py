"""Tests for the gold dependency-graph builder and its analyses."""

import pytest

from repro.common.errors import WorkloadError
from repro.runtime.taskgraph import DependencyKind, build_dependency_graph
from repro.trace.records import Direction, TaskTrace
from repro.workloads.cholesky import CholeskyWorkload

from tests.conftest import chain_trace, fork_join_trace, independent_trace, make_operand, make_task


class TestEdgeDetection:
    def test_raw_dependency(self):
        trace = TaskTrace("t", [
            make_task(0, [make_operand(0x1000, direction=Direction.OUTPUT)]),
            make_task(1, [make_operand(0x1000, direction=Direction.INPUT)]),
        ])
        graph = build_dependency_graph(trace)
        kinds = {(e.producer, e.consumer, e.kind) for e in graph.edges}
        assert (0, 1, DependencyKind.RAW) in kinds
        assert graph.predecessors(1) == {0}

    def test_waw_dependency(self):
        trace = TaskTrace("t", [
            make_task(0, [make_operand(0x1000, direction=Direction.OUTPUT)]),
            make_task(1, [make_operand(0x1000, direction=Direction.OUTPUT)]),
        ])
        graph = build_dependency_graph(trace)
        assert [(e.producer, e.consumer) for e in graph.edges_of_kind(DependencyKind.WAW)] == [(0, 1)]
        # Renaming removes the output dependency from execution constraints.
        assert graph.predecessors(1, renamed=True) == set()
        assert graph.predecessors(1, renamed=False) == {0}

    def test_war_dependency(self):
        trace = TaskTrace("t", [
            make_task(0, [make_operand(0x1000, direction=Direction.OUTPUT)]),
            make_task(1, [make_operand(0x1000, direction=Direction.INPUT)]),
            make_task(2, [make_operand(0x1000, direction=Direction.OUTPUT)]),
        ])
        graph = build_dependency_graph(trace)
        war = {(e.producer, e.consumer) for e in graph.edges_of_kind(DependencyKind.WAR)}
        assert (1, 2) in war
        assert graph.predecessors(2, renamed=True) == set()
        assert {1, 0} <= graph.predecessors(2, renamed=False)

    def test_inout_chain_is_true_dependency(self):
        graph = build_dependency_graph(chain_trace(4))
        for consumer in range(1, 4):
            assert graph.predecessors(consumer) == {consumer - 1}

    def test_task_does_not_depend_on_itself(self):
        trace = TaskTrace("t", [make_task(0, [
            make_operand(0x1000, direction=Direction.INPUT),
            make_operand(0x1000, direction=Direction.OUTPUT),
        ])])
        graph = build_dependency_graph(trace)
        assert graph.edges == []

    def test_independent_tasks_have_no_edges(self):
        graph = build_dependency_graph(independent_trace(6))
        assert graph.edges == []
        assert graph.max_width() == 6

    def test_overlap_matching_detects_partial_overlap(self):
        trace = TaskTrace("t", [
            make_task(0, [make_operand(0x1000, size=256, direction=Direction.OUTPUT)]),
            make_task(1, [make_operand(0x1080, size=64, direction=Direction.INPUT)]),
        ])
        base = build_dependency_graph(trace, match_by="base_address")
        overlap = build_dependency_graph(trace, match_by="overlap")
        assert base.predecessors(1) == set()
        assert overlap.predecessors(1) == {0}

    def test_unknown_match_mode_rejected(self):
        with pytest.raises(WorkloadError):
            build_dependency_graph(chain_trace(2), match_by="fuzzy")


class TestAnalyses:
    def test_critical_path_of_chain(self):
        graph = build_dependency_graph(chain_trace(5, runtime=100))
        assert graph.critical_path_cycles() == 500
        assert graph.dataflow_speedup_limit() == pytest.approx(1.0)

    def test_critical_path_of_independent_tasks(self):
        graph = build_dependency_graph(independent_trace(8, runtime=100))
        assert graph.critical_path_cycles() == 100
        assert graph.dataflow_speedup_limit() == pytest.approx(8.0)

    def test_fork_join_levels(self):
        graph = build_dependency_graph(fork_join_trace(4, runtime=100))
        levels = graph.asap_levels()
        assert levels[0] == 0
        assert all(levels[i] == 1 for i in range(1, 5))
        assert levels[5] == 2
        assert graph.max_width() == 4
        assert graph.critical_path_cycles() == 300

    def test_ideal_schedule_respects_processor_count(self):
        graph = build_dependency_graph(independent_trace(8, runtime=100))
        assert graph.simulate_ideal_schedule(1) == 800
        assert graph.simulate_ideal_schedule(4) == 200
        assert graph.simulate_ideal_schedule(8) == 100
        with pytest.raises(WorkloadError):
            graph.simulate_ideal_schedule(0)

    def test_ideal_schedule_respects_dependencies(self):
        graph = build_dependency_graph(fork_join_trace(4, runtime=100))
        # producer (100) + workers in two waves on 2 cores (200) + reducer (100)
        assert graph.simulate_ideal_schedule(2) == 400
        assert graph.simulate_ideal_schedule(16) == 300

    def test_validate_schedule_accepts_correct_and_rejects_violations(self):
        trace = chain_trace(3, runtime=10)
        graph = build_dependency_graph(trace)
        starts = {0: 0, 1: 10, 2: 20}
        finishes = {0: 10, 1: 20, 2: 30}
        graph.validate_schedule(starts, finishes)
        bad_starts = {**starts, 2: 15}
        with pytest.raises(WorkloadError, match="1 of 2 true dependency edges"):
            graph.validate_schedule(bad_starts, finishes)
        # Every violated edge is counted; the first one is named.
        both_early = {0: 0, 1: 5, 2: 12}
        both_finishes = {0: 10, 1: 15, 2: 22}
        with pytest.raises(WorkloadError) as exc:
            graph.validate_schedule(both_early, both_finishes)
        message = str(exc.value)
        assert "2 of 2 true dependency edges violated" in message
        assert "task 1 started at 5 before its producer 0 finished at 10" in message

    def test_validate_schedule_missing_task(self):
        graph = build_dependency_graph(chain_trace(2, runtime=10))
        with pytest.raises(WorkloadError):
            graph.validate_schedule({0: 0}, {0: 10})


class TestCholeskyFigure1:
    def test_35_tasks_for_5x5(self, cholesky5):
        assert len(cholesky5) == 35

    def test_distant_parallelism_example(self, cholesky5):
        # The paper: the 6th and 23rd tasks (1-based creation order) can run
        # in parallel despite being created 17 tasks apart.
        graph = build_dependency_graph(cholesky5)
        assert graph.is_independent(5, 22)

    def test_adjacent_dependent_pair_not_independent(self, cholesky5):
        graph = build_dependency_graph(cholesky5)
        # The first task (spotrf on A[0][0]) produces data consumed by the
        # first strsm (task 2, sequence 1).
        assert not graph.is_independent(0, 1)

    def test_graph_is_acyclic_and_respects_creation_order(self, cholesky5):
        graph = build_dependency_graph(cholesky5)
        for edge in graph.edges:
            assert edge.producer < edge.consumer

    def test_kernel_mix_matches_figure4(self, cholesky5):
        counts = {}
        for task in cholesky5:
            counts[task.kernel] = counts.get(task.kernel, 0) + 1
        assert counts == {"spotrf": 5, "strsm": 10, "ssyrk": 10, "sgemm": 10}

    def test_dataflow_limit_is_modest_for_small_matrix(self, cholesky5):
        graph = build_dependency_graph(cholesky5)
        limit = graph.dataflow_speedup_limit()
        assert 1.0 < limit < 10.0
