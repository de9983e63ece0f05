"""Host memory follows what is simulated.

* A trace generated with ``max_tasks`` is exactly the prefix of the whole
  trace, and the generator stops there instead of building the rest.
* Trace records are slotted, and a trace holds one operand record per
  distinct operand, so a generated trace costs a bounded number of bytes
  per operand.
* After a run the TRSs keep only vacant chain heads (memory operands of
  finished tasks that no consumer registered on), so their retained state
  is a small number of bytes per task.
* Both machines log completions as three int64 columns, and the software
  decoder keeps only what its window holds.
* Setting up a simulation imports no process pool, socket or OpenSSL.
"""

from __future__ import annotations

import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.backend.system import TaskSuperscalarSystem
from repro.experiments.common import experiment_config, experiment_trace
from repro.frontend.trs import TaskReservationStation
from repro.software.runtime_sim import SoftwareRuntimeSystem
from repro.trace import records
from repro.workloads.registry import synthetic_names, table1_names

WORKLOAD_NAMES = table1_names() + synthetic_names()


def retained_bytes(snapshot, module: str) -> int:
    """Bytes still allocated whose allocating frames include ``module`` (a
    path under ``repro/``, which may end in ``*``)."""
    filters = [tracemalloc.Filter(True, f"*/repro/{module}", all_frames=True)]
    traces = snapshot.filter_traces(filters)
    return sum(stat.size for stat in traces.statistics("filename"))


class TestGeneratedPrefix:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    @pytest.mark.parametrize("seed", (0, 5))
    def test_limited_trace_is_the_prefix_of_the_whole_trace(self, name, seed):
        whole = experiment_trace(name, scale_factor=0.3, seed=seed)
        full = len(whole)
        assert full > 2
        for limit in sorted({0, 1, full // 2, full - 1, full, full + 5}):
            prefix = experiment_trace(name, scale_factor=0.3, seed=seed,
                                      max_tasks=limit)
            assert prefix.name == whole.name
            assert prefix.metadata == whole.metadata
            assert list(prefix) == whole.tasks[:limit]

    def test_zero_gives_an_empty_trace_and_negative_raises(self):
        assert len(experiment_trace("Cholesky", scale_factor=0.3,
                                    max_tasks=0)) == 0
        with pytest.raises(ValueError):
            experiment_trace("Cholesky", scale_factor=0.3, max_tasks=-1)

    def test_generation_stops_at_the_limit(self, monkeypatch):
        built = []
        original = records.TaskRecord.__post_init__

        def counting(record):
            built.append(record.sequence)
            original(record)

        monkeypatch.setattr(records.TaskRecord, "__post_init__", counting)
        # The whole trace at this scale has 286 tasks.
        trace = experiment_trace("Cholesky", scale_factor=0.3, max_tasks=50)
        assert len(trace) == 50
        assert len(built) <= 50


class TestMemoryBounds:
    def test_trace_bytes_per_operand(self):
        # Measured at 90-92 B per operand on Python 3.10-3.13 (145 with one
        # operand record per operand, 200 with dict-backed records, and
        # 225 when this prefix was cut from the whole trace): the slotted
        # task records, the operand tuples, and 681 shared operand records
        # with their names and addresses.
        tracemalloc.start()
        try:
            trace = experiment_trace("Cholesky", max_tasks=2000)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        operands = sum(task.num_operands for task in trace)
        assert operands == 5593
        assert current / operands < 110

    def test_trs_retained_bytes_per_task_after_a_run(self):
        # Measured at 95-100 B per task after 2,000 Cholesky tasks on
        # Python 3.10-3.13 (422 when every operand of every finished task
        # stayed in the TRS): 365 vacant chain heads plus tables sized by
        # the peak window.
        trace = experiment_trace("Cholesky", max_tasks=2000)
        tracemalloc.start(2)
        try:
            system = TaskSuperscalarSystem(experiment_config(num_cores=128))
            system.run(trace)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        heads = sum(len(trs._retired) for trs in system.frontend.trs_list)
        assert heads < len(trace) // 4
        assert retained_bytes(snapshot, "frontend/trs.py") / len(trace) < 150
        # Three int64 completion columns: 33-39 B per task (84 as one
        # tuple per task).
        assert retained_bytes(snapshot, "backend/scheduler.py") / len(trace) < 50

    def test_software_runtime_retained_bytes_per_task_after_a_run(self):
        # Measured at 79-88 B per task on Python 3.10-3.13, decoder
        # included (245-253 when the decoder kept every record, sequence
        # and decode stamp): the three int64 completion columns the
        # scheduler keeps too, the 128 cores and the decoder's last-writer
        # table, which holds one entry per object.
        trace = experiment_trace("Cholesky", max_tasks=2000)
        tracemalloc.start(2)
        try:
            system = SoftwareRuntimeSystem(experiment_config(num_cores=128))
            system.run(trace)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert len(system.completions.table()) == len(trace)
        assert retained_bytes(snapshot, "software/*") / len(trace) < 110


class TestImports:
    def test_setup_modules_import_no_pool_socket_or_hashlib(self):
        # A jobs=1 run never opens a pool, a host name is resolved only for
        # heartbeats and sha256 only for content digests.
        src = str(Path(repro.__file__).resolve().parent.parent)
        heavy = ("multiprocessing", "concurrent.futures", "socket", "hashlib")
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "import repro.backend.system, repro.sweep.runner, "
                "repro.obs.report; "
                f"print(sorted(set({heavy!r}) & set(sys.modules)))")
        loaded = subprocess.run([sys.executable, "-I", "-c", code],
                                capture_output=True, text=True, check=True,
                                timeout=120)
        assert loaded.stdout.strip() == "[]"


class TestRetiredChainHeads:
    @pytest.mark.parametrize("name, topology", [
        ("H264", {}),
        ("KMeans", {"num_frontends": 2, "shard_policy": "hash_by_object",
                    "steal_policy": "random"}),
    ])
    def test_only_vacant_memory_heads_remain(self, monkeypatch, name,
                                             topology):
        bound = {}
        targets = set()
        bind_record = TaskReservationStation.bind_record
        register_with = TaskReservationStation._register_with

        def recording_bind(trs, task, record):
            bound[task] = record
            bind_record(trs, task, record)

        def recording_register(trs, target, consumer):
            targets.add(target)
            register_with(trs, target, consumer)

        monkeypatch.setattr(TaskReservationStation, "bind_record",
                            recording_bind)
        monkeypatch.setattr(TaskReservationStation, "_register_with",
                            recording_register)
        config = experiment_config(num_cores=32)
        if topology:
            config = config.with_topology(**topology)
        trace = experiment_trace(name, scale_factor=0.3, max_tasks=300)
        system = TaskSuperscalarSystem(config)
        system.run(trace)
        assert any(op.is_scalar for task in trace for op in task.operands)
        memory_operands = {
            (task.trs, task.slot, index)
            for task, record in bound.items()
            for index, operand in enumerate(record.operands)
            if not operand.is_scalar
        }
        heads = {tuple(op) for fe in system.frontends for trs in fe.trs_list
                 for op in trs._retired}
        assert heads
        assert heads == memory_operands - {tuple(op) for op in targets}
