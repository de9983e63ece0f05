"""Tests for the backend scheduler/cores, the full hardware system and the
software-runtime baseline."""

import pytest

from repro.backend.system import TaskSuperscalarSystem, run_trace
from repro.common.config import default_table2_config
from repro.common.errors import CapacityError, SchedulingError
from repro.common.ids import TaskID
from repro.common.units import ns_to_cycles
from repro.cores.core import WorkerCore
from repro.sim.engine import Engine
from repro.software.runtime_sim import run_trace_software
from repro.trace.records import Direction, TaskTrace
from repro.workloads import registry

from tests.conftest import chain_trace, independent_trace, make_operand, make_task


class TestWorkerCore:
    def test_execution_takes_task_runtime(self):
        engine = Engine()
        core = WorkerCore(engine, 0)
        finished = []
        record = make_task(0, [make_operand(0x1000)], runtime=1234)
        core.execute(TaskID(0, 0), record, lambda t, r, c: finished.append((engine.now, c)))
        assert core.is_busy
        engine.run()
        assert finished == [(1234, 0)]
        assert not core.is_busy
        assert core.busy_cycles == 1234
        assert core.stats.counter("cores.tasks_executed") == 1

    def test_double_dispatch_rejected(self):
        engine = Engine()
        core = WorkerCore(engine, 0)
        record = make_task(0, [make_operand(0x1000)], runtime=10)
        core.execute(TaskID(0, 0), record, lambda *a: None)
        with pytest.raises(SchedulingError):
            core.execute(TaskID(0, 1), record, lambda *a: None)

    def test_utilization(self):
        engine = Engine()
        core = WorkerCore(engine, 0)
        record = make_task(0, [make_operand(0x1000)], runtime=100)
        core.execute(TaskID(0, 0), record, lambda *a: None)
        engine.run()
        assert core.utilization(200) == pytest.approx(0.5)
        assert core.utilization(0) == 0.0


class TestHardwareSystem:
    def test_sequential_on_one_core(self):
        trace = independent_trace(5, runtime=1000)
        result = run_trace(trace, num_cores=1, validate=True)
        # One core can never beat the sequential runtime.
        assert result.makespan_cycles >= trace.total_runtime_cycles
        assert result.speedup <= 1.0

    def test_speedup_grows_with_cores(self):
        trace = registry.generate("MatMul", scale=6)
        speeds = [run_trace(trace, num_cores=p).speedup for p in (4, 16, 32)]
        assert speeds[0] < speeds[1] <= speeds[2] + 1e-6

    def test_schedule_is_validated_against_gold_graph(self, cholesky5):
        # validate=True raises if the pipeline ever violated a true dependency.
        result = run_trace(cholesky5, num_cores=8, validate=True)
        assert result.tasks_completed == 35

    def test_result_summary_mentions_key_numbers(self, cholesky5):
        result = run_trace(cholesky5, num_cores=8)
        text = result.summary()
        assert "Cholesky" in text
        assert "speedup" in text

    def test_makespan_us_conversion(self, cholesky5):
        result = run_trace(cholesky5, num_cores=8)
        assert result.makespan_us == pytest.approx(result.makespan_cycles / 3200.0, rel=0.01)

    def test_task_wider_than_the_trs_layout_is_rejected(self):
        # A task with more operands than the main+indirect block layout
        # holds can never be stored; TRS storage says so instead of hanging.
        operands = [make_operand(0x1000 * (i + 1), direction=Direction.INPUT)
                    for i in range(25)]
        trace = TaskTrace("too_wide", [make_task(0, operands)])
        system = TaskSuperscalarSystem(default_table2_config(2))
        with pytest.raises(CapacityError, match="19-operand limit"):
            system.run(trace)

    def test_deadlock_detection_reports_progress(self):
        # Six operands need a main and an indirect block, but 1 KB over
        # eight TRSs leaves each TRS one block: the task waits in the
        # gateway buffer forever, and the run says where it waits.
        operands = [make_operand(0x1000 * (i + 1), direction=Direction.INPUT)
                    for i in range(6)]
        trace = TaskTrace("two_blocks", [make_task(0, operands)])
        config = default_table2_config(2).with_frontend(
            total_trs_capacity_bytes=1024)
        system = TaskSuperscalarSystem(config)
        with pytest.raises(SchedulingError,
                           match="simulation deadlocked: completed 0 of 1 "
                                 "tasks") as raised:
            system.run(trace)
        assert "gateway buffer 1, window 0, ready queue 0" in str(raised.value)


class TestSoftwareRuntime:
    def test_decode_rate_matches_configuration(self):
        trace = independent_trace(50, runtime=200_000)
        result = run_trace_software(trace, num_cores=16)
        expected = ns_to_cycles(700.0)
        assert result.decode_rate_cycles == pytest.approx(expected, rel=0.05)

    def test_serial_decode_limits_scaling(self):
        # With 10 us tasks and a 700 ns serial decoder, throughput caps near
        # task_runtime / decode_time ~ 14 regardless of the core count.
        trace = independent_trace(400, runtime=32_000)
        small = run_trace_software(trace, num_cores=16)
        large = run_trace_software(trace, num_cores=128)
        assert large.speedup < 20
        assert large.speedup == pytest.approx(small.speedup, rel=0.25)

    def test_respects_true_dependencies(self):
        trace = chain_trace(5, runtime=1000)
        result = run_trace_software(trace, num_cores=4, validate=True)
        assert result.speedup <= 1.0

    def test_all_tasks_complete_on_cholesky(self, cholesky5):
        result = run_trace_software(cholesky5, num_cores=8, validate=True)
        assert result.tasks_completed == 35


class TestHardwareVsSoftware:
    def test_hardware_scales_past_software_on_fine_grain_tasks(self):
        # MatMul tasks run for 23 us; the software decoder (700 ns/task) can
        # keep only ~33 cores busy, while the pipeline keeps scaling.
        trace = registry.generate("MatMul", scale=8)
        hw = run_trace(trace, num_cores=128)
        sw = run_trace_software(trace, num_cores=128)
        assert hw.speedup > sw.speedup * 1.5

    def test_long_task_benchmark_is_software_friendly(self):
        # Knn tasks mostly exceed 100 us, so at modest core counts the
        # software runtime is competitive (Figure 16's Knn/H264 observation).
        trace = registry.generate("Knn", scale=24)
        hw = run_trace(trace, num_cores=32)
        sw = run_trace_software(trace, num_cores=32)
        assert sw.speedup > 0.7 * hw.speedup
