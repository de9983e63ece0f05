"""Determinism regression tests.

The simulator's reproducibility rests on the engine's (time, sequence) event
ordering: two runs of the same configuration must agree on every cycle count
and every statistic, and routing a simulation through a ``multiprocessing``
worker must not change a single bit of its output.  These tests pin that
guarantee down so parallel-sweep work cannot silently erode it:

* the full frontend pipeline run twice in-process produces bit-identical
  :class:`SimulationResult` s (including the stats dict),
* the same configuration executed through :func:`repro.sweep.runner
  .execute_point` (the worker entry point) and through a ``jobs=2``
  :class:`SweepRunner` pool agrees with the direct in-process run,
* the software-runtime baseline is deterministic too,
* traces themselves regenerate identically from a (name, scale, seed) triple.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.backend.system import TaskSuperscalarSystem
from repro.experiments.common import experiment_config, experiment_trace
from repro.software.runtime_sim import SoftwareRuntimeSystem
from repro.sweep.runner import SweepRunner, execute_point, trace_cache_clear
from repro.sweep.spec import SweepSpec
from repro.trace.packed import pack_trace
from repro.trace.store import TraceStore

WORKLOADS = ("Cholesky", "H264")


def _pipeline_result(name: str):
    config = experiment_config(num_cores=32)
    trace = experiment_trace(name, scale_factor=0.3, max_tasks=80)
    return TaskSuperscalarSystem(config).run(trace)


class TestPipelineDeterminism:
    def test_hardware_pipeline_is_bit_identical_across_runs(self):
        for name in WORKLOADS:
            first = asdict(_pipeline_result(name))
            second = asdict(_pipeline_result(name))
            assert first == second, f"{name}: non-deterministic pipeline run"

    def test_software_runtime_is_bit_identical_across_runs(self):
        config = experiment_config(num_cores=32)
        trace = experiment_trace("MatMul", scale_factor=0.4)
        first = asdict(SoftwareRuntimeSystem(config).run(trace))
        second = asdict(SoftwareRuntimeSystem(
            experiment_config(num_cores=32)).run(trace))
        assert first == second

    def test_trace_generation_is_deterministic(self):
        for name in WORKLOADS:
            first = experiment_trace(name, scale_factor=0.3, seed=7)
            second = experiment_trace(name, scale_factor=0.3, seed=7)
            assert list(first) == list(second)

    def test_worker_entry_point_matches_in_process_run(self):
        params = {"workload": "Cholesky", "num_cores": 32,
                  "scale_factor": 0.3, "max_tasks": 80}
        direct = asdict(_pipeline_result("Cholesky"))
        via_worker = execute_point(params)
        assert via_worker == direct


class TestPoolRunnerDeterminism:
    def test_parallel_runner_matches_serial_bit_for_bit(self):
        spec = SweepSpec(
            name="determinism",
            workloads=WORKLOADS,
            axes={"frontend.num_trs": (1, 4), "num_cores": (16, 32)},
            base={"scale_factor": 0.25, "max_tasks": 50, "fast_generator": True},
        )
        assert spec.cardinality == 8
        serial = SweepRunner().run(spec)
        parallel = SweepRunner(jobs=2).run(spec)
        for point, mine, theirs in zip(spec.points(), serial.results,
                                       parallel.results):
            assert asdict(mine) == asdict(theirs), (
                f"parallel result diverged at {point.label()}")


class TestPackedReplayDeterminism:
    """Replaying a packed/baked trace must not change a single bit."""

    def test_packed_replay_matches_record_replay(self):
        for name in WORKLOADS:
            trace = experiment_trace(name, scale_factor=0.3, max_tasks=80)
            direct = asdict(TaskSuperscalarSystem(
                experiment_config(num_cores=32)).run(trace))
            packed = asdict(TaskSuperscalarSystem(
                experiment_config(num_cores=32)).run(pack_trace(trace)))
            assert packed == direct, f"{name}: packed replay diverged"

    def test_packed_replay_matches_for_software_runtime(self):
        trace = experiment_trace("MatMul", scale_factor=0.4)
        direct = asdict(SoftwareRuntimeSystem(
            experiment_config(num_cores=32)).run(trace))
        packed = asdict(SoftwareRuntimeSystem(
            experiment_config(num_cores=32)).run(pack_trace(trace)))
        assert packed == direct

    def test_trace_store_sweeps_are_bit_identical(self, tmp_path):
        """Generated-trace and store-replayed sweeps agree bit for bit."""
        spec = SweepSpec(
            name="packed-replay",
            workloads=WORKLOADS,
            axes={"frontend.num_trs": (1, 4)},
            base={"scale_factor": 0.25, "max_tasks": 50, "num_cores": 16,
                  "fast_generator": True},
        )
        baseline = SweepRunner().run(spec)
        store = TraceStore(tmp_path / "traces")
        trace_cache_clear()  # force the first store run to bake
        baked = SweepRunner(trace_store=store).run(spec)
        assert baked.trace_generated == len(WORKLOADS)
        trace_cache_clear()  # force the second store run to load packed files
        replayed = SweepRunner(trace_store=store).run(spec)
        assert replayed.trace_generated == 0
        assert replayed.trace_reused >= len(WORKLOADS)
        for point, expected, from_bake, from_store in zip(
                spec.points(), baseline.results, baked.results,
                replayed.results):
            assert asdict(from_bake) == asdict(expected), (
                f"baking run diverged at {point.label()}")
            assert asdict(from_store) == asdict(expected), (
                f"packed-replayed run diverged at {point.label()}")
