"""Integration tests for the task-superscalar frontend protocol.

These tests drive small hand-crafted traces through the full simulated
machine (gateway, TRSs, ORTs, OVTs, ready queue, scheduler, cores) and check
the paper's semantic claims:

* true (RaW) dependencies serialise execution,
* anti (WaR) and output (WaW) dependencies are broken by renaming,
* inout operands wait for both their input data and the release of the
  previous version,
* consumer chaining delivers data-ready messages to every reader,
* capacity limits back-pressure the task-generating thread instead of losing
  tasks.
"""

import pytest

from repro.backend.system import TaskSuperscalarSystem, run_trace
from repro.common.config import default_table2_config
from repro.common.units import KB
from repro.runtime.taskgraph import build_dependency_graph
from repro.trace.records import Direction, TaskTrace

from tests.conftest import chain_trace, fork_join_trace, independent_trace, make_operand, make_task


def run_small(trace, num_cores=8, **frontend_overrides):
    """Run a trace on a small machine and return (result, schedule table)."""
    config = default_table2_config(num_cores)
    if frontend_overrides:
        config = config.with_frontend(**frontend_overrides)
    system = TaskSuperscalarSystem(config)
    result = system.run(trace, validate=True)
    return result, system.scheduler.schedule_table()


class TestBasicExecution:
    def test_single_task(self):
        trace = TaskTrace("single", [make_task(0, [make_operand(0x1000,
                                                               direction=Direction.OUTPUT)],
                                               runtime=500)])
        result, schedule = run_small(trace, num_cores=1)
        assert result.tasks_completed == 1
        assert result.tasks_decoded == 1
        start, finish = schedule[0]
        assert finish - start == 500
        assert result.makespan_cycles >= 500

    def test_all_tasks_complete_and_decode(self, cholesky5):
        result, _ = run_small(cholesky5, num_cores=8)
        assert result.tasks_completed == 35
        assert result.tasks_decoded == 35

    def test_scalar_only_task(self):
        scalar = make_operand(0, scalar=True)
        trace = TaskTrace("scalars", [make_task(0, [scalar, scalar], runtime=100)])
        result, _ = run_small(trace, num_cores=1)
        assert result.tasks_completed == 1


class TestDependencies:
    def test_true_dependency_chain_serialises(self):
        trace = chain_trace(4, runtime=1000)
        result, schedule = run_small(trace, num_cores=4)
        for later in range(1, 4):
            assert schedule[later][0] >= schedule[later - 1][1]
        # Chain of 4 x 1000-cycle tasks can never beat 4000 cycles.
        assert result.makespan_cycles >= 4000
        assert result.speedup <= 1.0

    def test_independent_tasks_run_concurrently(self):
        trace = independent_trace(8, runtime=10_000)
        result, schedule = run_small(trace, num_cores=8)
        # With 8 cores and renamed outputs, tasks overlap heavily.
        assert result.speedup > 4.0
        starts = sorted(start for start, _finish in schedule.values())
        assert starts[-1] - starts[0] < 10_000

    def test_waw_renaming_allows_overlap(self):
        # Two tasks writing the same object: an output dependency that
        # renaming must break.
        trace = TaskTrace("waw", [
            make_task(0, [make_operand(0x1000, direction=Direction.OUTPUT)], runtime=10_000),
            make_task(1, [make_operand(0x1000, direction=Direction.OUTPUT)], runtime=10_000),
        ])
        result, schedule = run_small(trace, num_cores=2)
        assert schedule[1][0] < schedule[0][1]
        assert result.speedup > 1.5

    def test_war_renaming_allows_writer_before_reader_finishes(self):
        # Task 0 writes X; task 1 reads X (long); task 2 overwrites X (output).
        # Renaming lets task 2 run while task 1 still reads the old version.
        trace = TaskTrace("war", [
            make_task(0, [make_operand(0x1000, direction=Direction.OUTPUT)], runtime=1000),
            make_task(1, [make_operand(0x1000, direction=Direction.INPUT),
                          make_operand(0x2000, direction=Direction.OUTPUT)], runtime=50_000),
            make_task(2, [make_operand(0x1000, direction=Direction.OUTPUT)], runtime=1000),
        ])
        _result, schedule = run_small(trace, num_cores=3)
        assert schedule[2][0] < schedule[1][1]

    def test_inout_waits_for_previous_readers(self):
        # Task 0 writes X; tasks 1 and 2 read X (long); task 3 updates X
        # in-place (inout) and must wait for both readers to finish.
        trace = TaskTrace("inout_gate", [
            make_task(0, [make_operand(0x1000, direction=Direction.OUTPUT)], runtime=1000),
            make_task(1, [make_operand(0x1000, direction=Direction.INPUT),
                          make_operand(0x2000, direction=Direction.OUTPUT)], runtime=30_000),
            make_task(2, [make_operand(0x1000, direction=Direction.INPUT),
                          make_operand(0x3000, direction=Direction.OUTPUT)], runtime=40_000),
            make_task(3, [make_operand(0x1000, direction=Direction.INOUT)], runtime=1000),
        ])
        _result, schedule = run_small(trace, num_cores=4)
        assert schedule[3][0] >= schedule[1][1]
        assert schedule[3][0] >= schedule[2][1]

    def test_consumer_chain_feeds_every_reader(self):
        # One producer, many readers of the same object: all readers must run,
        # and they may overlap with each other (read-read concurrency).
        width = 6
        tasks = [make_task(0, [make_operand(0x1000, direction=Direction.OUTPUT)],
                           runtime=1000)]
        for i in range(width):
            tasks.append(make_task(1 + i, [make_operand(0x1000, direction=Direction.INPUT),
                                           make_operand(0x2000 + i * 0x1000,
                                                        direction=Direction.OUTPUT)],
                                   runtime=20_000))
        trace = TaskTrace("chain_readers", tasks)
        result, schedule = run_small(trace, num_cores=width + 1)
        reader_starts = [schedule[i][0] for i in range(1, width + 1)]
        reader_finishes = [schedule[i][1] for i in range(1, width + 1)]
        # Readers all start after the producer finished...
        assert min(reader_starts) >= schedule[0][1]
        # ...and overlap one another (the chain forwards promptly).
        assert max(reader_starts) < min(reader_finishes)

    def test_fork_join_schedule(self, fork_join):
        result, schedule = run_small(fork_join, num_cores=8)
        reducer = max(schedule)
        for worker in range(1, reducer):
            assert schedule[reducer][0] >= schedule[worker][1]
        assert result.tasks_completed == len(fork_join)


class TestMeasurements:
    def test_decode_rate_reported(self, cholesky5):
        result, _ = run_small(cholesky5, num_cores=8)
        assert result.decode_rate_cycles > 0
        assert result.decode_rate_ns == pytest.approx(result.decode_rate_cycles / 3.2,
                                                      rel=0.01)

    def test_window_peak_positive(self, cholesky5):
        result, _ = run_small(cholesky5, num_cores=2)
        assert result.window_peak_tasks >= 1

    def test_speedup_bounded_by_cores_and_dataflow(self, cholesky5):
        result, _ = run_small(cholesky5, num_cores=4)
        graph = build_dependency_graph(cholesky5)
        assert result.speedup <= 4.0 + 1e-9
        assert result.speedup <= graph.dataflow_speedup_limit() + 1e-9

    def test_core_utilization_in_range(self, cholesky5):
        result, _ = run_small(cholesky5, num_cores=4)
        assert 0.0 < result.core_utilization <= 1.0

    def test_stats_exposed_in_result(self, cholesky5):
        result, _ = run_small(cholesky5, num_cores=4)
        assert result.stats.get("gateway.tasks_admitted") == 35
        assert result.stats.get("scheduler.completions") == 35

    def test_module_utilization_recorded(self, cholesky5):
        # End-of-run utilization: one accumulator entry per pipeline module,
        # bounded by [0, 1], and positive for modules that did work.
        system = TaskSuperscalarSystem(default_table2_config(4))
        result = system.run(cholesky5)
        for module in system.frontend.modules():
            value = result.stats.get(f"{module.name}.utilization.mean")
            assert value is not None, f"missing utilization for {module.name}"
            assert 0.0 <= value <= 1.0
        assert result.stats["gateway.utilization.mean"] > 0.0
        assert result.stats["trs0.utilization.mean"] > 0.0

    def test_chain_histogram_summarised(self, cholesky5):
        # The chain-length histogram surfaces count/mean/p95 in the summary
        # so reports can quote the paper's percentile-style claims.
        result, _ = run_small(cholesky5, num_cores=4)
        assert result.stats["chain.forwards_per_task.count"] == 35
        assert result.stats["chain.forwards_per_task.p95"] >= 0.0


class TestBackPressure:
    def test_full_window_backpressures_the_generator(self):
        # A tiny gateway buffer combined with a tiny TRS (room for ~16 tasks)
        # must stall the task-generating thread -- the paper's "the thread is
        # only stalled when the task window becomes [full]" -- without losing
        # any tasks.
        trace = independent_trace(30, runtime=20_000)
        config = default_table2_config(2).with_frontend(
            gateway_buffer_tasks=2, num_trs=1, total_trs_capacity_bytes=2 * KB)
        system = TaskSuperscalarSystem(config)
        result = system.run(trace, validate=True)
        assert result.tasks_completed == 30
        assert result.generator_stall_cycles > 0
        assert result.window_peak_tasks <= 16

    def test_tiny_trs_capacity_throttles_window(self):
        trace = independent_trace(40, runtime=5_000)
        # Storage for only a handful of in-flight tasks across 2 TRSs.
        result_small = run_trace(trace, num_cores=2, validate=True,
                                 num_trs=2, total_trs_capacity_bytes=2 * KB)
        result_big = run_trace(trace, num_cores=2, validate=True,
                               num_trs=2, total_trs_capacity_bytes=512 * KB)
        assert result_small.tasks_completed == 40
        assert result_small.window_peak_tasks <= result_big.window_peak_tasks

    def test_tiny_ort_capacity_still_completes(self, cholesky5):
        result = run_trace(cholesky5, num_cores=4, validate=True,
                           total_ort_capacity_bytes=4 * KB,
                           total_ovt_capacity_bytes=4 * KB)
        assert result.tasks_completed == 35

    def test_single_trs_single_ort_configuration(self, cholesky5):
        result = run_trace(cholesky5, num_cores=4, validate=True,
                           num_trs=1, num_ort=1)
        assert result.tasks_completed == 35


class TestDecodeRateScaling:
    @staticmethod
    def _decode_rate(trace, num_trs, num_ort):
        # The decode-rate experiments use a near-zero-cost task-generating
        # thread so the pipeline itself is the bottleneck being measured.
        from repro.common.config import TaskGeneratorConfig

        config = default_table2_config(64).with_frontend(num_trs=num_trs,
                                                         num_ort=num_ort)
        config.generator = TaskGeneratorConfig(cycles_per_task=8, cycles_per_operand=2)
        return TaskSuperscalarSystem(config).run(trace).decode_rate_cycles

    @staticmethod
    def _three_operand_trace(count):
        tasks = []
        for i in range(count):
            base = 0x10000 + i * 0x4000
            tasks.append(make_task(i, [
                make_operand(base, direction=Direction.INPUT),
                make_operand(base + 0x1000, direction=Direction.INPUT),
                make_operand(base + 0x2000, direction=Direction.OUTPUT),
            ], runtime=80_000))
        return TaskTrace("three_ops", tasks)

    def test_more_trs_decode_no_slower(self):
        # The Figure 12/13 trend: pipeline parallelism speeds up decode.
        trace = self._three_operand_trace(120)
        slow = self._decode_rate(trace, num_trs=1, num_ort=1)
        fast = self._decode_rate(trace, num_trs=8, num_ort=4)
        assert fast <= slow

    def test_single_trs_serialises_graph_operations(self):
        trace = self._three_operand_trace(80)
        one = self._decode_rate(trace, num_trs=1, num_ort=4)
        many = self._decode_rate(trace, num_trs=8, num_ort=4)
        assert many < one
