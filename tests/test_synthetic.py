"""Tests for the synthetic task-graph subsystem and the pluggable registry.

Covers the acceptance-critical scenarios of the synthetic-workloads PR:

* registration round-trip through the pluggable registry API,
* per-family determinism (same seed -> bit-identical trace),
* DAG validity (no forward dependencies, operand counts within the
  19-operand TRS layout),
* sweep-axis integration: ``workload.<knob>`` parameters flow through
  ``execute_point`` and the cached runners,
* the ``synthetic_stress`` qualitative trends: decode rate degrades with
  operand count and window occupancy grows with dependency distance.
"""

from __future__ import annotations

import pytest

from repro.common.errors import SweepExecutionError, WorkloadError
from repro.runtime.taskgraph import build_dependency_graph
from repro.sweep.runner import (SweepRunner, adaptive_chunksize,
                                _require_complete, build_point_config,
                                execute_point, workload_params)
from repro.sweep.cache import ResultCache
from repro.sweep.spec import SweepSpec
from repro.trace.records import Direction
from repro.workloads import registry
from repro.workloads.base import KernelProfile, TraceBuilder, Workload, WorkloadSpec
from repro.workloads.synthetic import (MAX_TASK_OPERANDS, RUNTIME_DISTRIBUTIONS,
                                       RandomDagWorkload, RuntimeModel)
from tests.conftest import run_member

FAMILIES = ["fork_join", "layered", "stencil", "reduction_tree",
            "pipeline_chain", "random_dag", "stencil2d", "stencil3d",
            "skewed_lanes"]


# ---------------------------------------------------------------------------
# Registry API
# ---------------------------------------------------------------------------

class _ToyWorkload(Workload):
    spec = WorkloadSpec(name="Toy", domain="Test", description="toy",
                        avg_data_kb=1.0, min_runtime_us=1.0, med_runtime_us=1.0,
                        avg_runtime_us=1.0, decode_limit_ns=4.0)
    default_scale = 1

    def __init__(self, tasks: int = 3):
        self.tasks = int(tasks)

    def build(self, builder: TraceBuilder, scale: int) -> None:
        profile = KernelProfile("toy", runtime_us=1.0)
        obj = builder.alloc(1024, name="x")
        for _ in range(self.tasks * scale):
            builder.add_task(profile, [(obj, Direction.INOUT)])


class TestRegistryAPI:
    def test_registration_round_trip(self):
        registry.register_workload(_ToyWorkload)
        try:
            assert registry.is_registered("toy")
            assert registry.resolve_name("TOY") == "Toy"
            assert "Toy" in registry.all_workload_names()
            assert "Toy" in registry.all_workload_names(category="custom")
            trace = registry.generate("toy", seed=0)
            assert len(trace) == 3
            trace = registry.generate("Toy:tasks=5")
            assert len(trace) == 5
        finally:
            assert registry.unregister_workload("Toy")
        assert not registry.is_registered("toy")
        with pytest.raises(WorkloadError):
            registry.generate("Toy")

    def test_duplicate_registration_rejected_unless_replace(self):
        registry.register_workload(_ToyWorkload)
        try:
            with pytest.raises(WorkloadError):
                registry.register_workload(_ToyWorkload)
            registry.register_workload(_ToyWorkload, replace=True)
        finally:
            registry.unregister_workload("Toy")

    def test_register_requires_spec(self):
        class NoSpec(Workload):
            pass

        with pytest.raises(WorkloadError):
            registry.register_workload(NoSpec)

    def test_catalogue_partitions(self):
        names = registry.all_workload_names()
        assert names[:9] == registry.table1_names()
        assert registry.synthetic_names() == FAMILIES
        for family in FAMILIES:
            assert family in names

    def test_parse_and_format_spec_strings(self):
        name, params = registry.parse_workload_spec(
            "random_dag:width=16,runtime_dist=lognormal,object_reuse=0.5")
        assert name == "random_dag"
        assert params == {"width": 16, "runtime_dist": "lognormal",
                          "object_reuse": 0.5}
        spec = registry.format_workload_spec(name, params)
        assert registry.parse_workload_spec(spec) == (name, params)
        with pytest.raises(WorkloadError):
            registry.parse_workload_spec("random_dag:width16")

    def test_canonical_spec_normalizes_and_validates(self):
        assert registry.canonical_spec("CHOLESKY") == "Cholesky"
        assert (registry.canonical_spec("Random_Dag:width=4,depth=2")
                == "random_dag:depth=2,width=4")
        # Equivalent scalar spellings canonicalize identically, so sweep
        # cache keys never fork on 16 vs 16.0.
        assert (registry.canonical_spec("random_dag:width=16.0")
                == registry.canonical_spec("random_dag:width=16"))
        assert (registry.canonical_spec("random_dag:runtime_us=5")
                == registry.canonical_spec("random_dag:runtime_us=5.0"))
        with pytest.raises(WorkloadError):
            registry.canonical_spec("random_dag:no_such_knob=1")
        with pytest.raises(WorkloadError):
            registry.canonical_spec("Quicksort")

    def test_is_registered_safe_on_malformed_specs(self):
        assert registry.is_registered("random_dag")
        assert not registry.is_registered("random_dag:width16")
        assert not registry.is_registered("Quicksort")


# ---------------------------------------------------------------------------
# Synthetic families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", FAMILIES)
class TestEveryFamily:
    def test_deterministic_per_seed(self, family):
        first = registry.generate(family, seed=7)
        second = registry.generate(family, seed=7)
        assert [t.runtime_cycles for t in first] == [t.runtime_cycles for t in second]
        assert [t.operands for t in first] == [t.operands for t in second]
        different = registry.generate(family, seed=8)
        assert ([t.runtime_cycles for t in first]
                != [t.runtime_cycles for t in different])

    def test_dag_validity_and_operand_limit(self, family):
        trace = registry.generate(family, seed=2,
                                  extra_inputs=6, object_reuse=0.3)
        assert len(trace) > 0
        assert trace.max_operands() <= MAX_TASK_OPERANDS
        graph = build_dependency_graph(trace)
        for edge in graph.edges:
            assert edge.producer < edge.consumer

    def test_metadata_records_knobs(self, family):
        trace = registry.generate(family, seed=0, width=4, depth=2)
        knobs = trace.metadata["synthetic"]
        assert knobs["width"] == 4
        assert knobs["depth"] == 2
        assert trace.metadata["workload"] == family

    def test_invalid_knobs_rejected(self, family):
        if family == "stencil":
            # The stencil radius is bounded by the operand layout, not just
            # the generic fanout cap.
            with pytest.raises(WorkloadError):
                registry.get_workload(family, fanout=10)
        with pytest.raises(WorkloadError):
            registry.get_workload(family, width=0)
        with pytest.raises(WorkloadError):
            registry.get_workload(family, object_reuse=1.5)
        with pytest.raises(WorkloadError):
            registry.get_workload(family, extra_inputs=MAX_TASK_OPERANDS)
        with pytest.raises(WorkloadError):
            registry.get_workload(family, runtime_dist="zipf")
        with pytest.raises(WorkloadError):
            registry.generate(family, scale=0)


class TestKnobs:
    def test_width_and_depth_scale_task_count(self):
        small = registry.generate("random_dag", width=4, depth=4)
        large = registry.generate("random_dag", width=8, depth=8)
        assert len(small) == 16 and len(large) == 64

    def test_extra_inputs_raise_operand_counts(self):
        lean = registry.generate("random_dag", width=8, depth=8, seed=1)
        heavy = registry.generate("random_dag", width=8, depth=8, seed=1,
                                  extra_inputs=12)
        assert heavy.max_operands() > lean.max_operands()
        assert heavy.max_operands() <= MAX_TASK_OPERANDS

    def test_object_reuse_creates_waw_versioning(self):
        fresh = registry.generate("layered", width=8, depth=8, seed=3)
        reused = registry.generate("layered", width=8, depth=8, seed=3,
                                   object_reuse=0.6)
        def waw_edges(trace):
            return sum(1 for e in build_dependency_graph(trace).edges
                       if e.kind.name == "WAW")
        assert waw_edges(reused) > waw_edges(fresh)

    def test_runtime_distributions(self):
        rng_seed = 11
        for dist in RUNTIME_DISTRIBUTIONS:
            trace = registry.generate("pipeline_chain", seed=rng_seed,
                                      runtime_dist=dist)
            assert all(t.runtime_cycles > 0 for t in trace)
        constant = registry.generate("pipeline_chain", seed=rng_seed,
                                     runtime_dist="constant")
        assert len({t.runtime_cycles for t in constant}) == 1
        bimodal = registry.generate("pipeline_chain", seed=rng_seed,
                                    runtime_dist="bimodal", bimodal_ratio=10.0,
                                    runtime_spread=0.0)
        runtimes = sorted(t.runtime_cycles for t in bimodal)
        assert runtimes[-1] >= 9 * runtimes[0]

    def test_runtime_model_validation(self):
        with pytest.raises(WorkloadError):
            RuntimeModel(distribution="uniform", spread=1.5).validate()
        with pytest.raises(WorkloadError):
            RuntimeModel(runtime_us=0.0).validate()
        with pytest.raises(WorkloadError):
            RuntimeModel(bimodal_fraction=2.0).validate()

    def test_pipeline_chain_stream_distance(self):
        # With run length d, the two tasks touching the same chain object
        # consecutively sit ~width * d apart in the creation stream.
        trace = registry.generate("pipeline_chain", width=4, depth=8,
                                  dep_distance=4, seed=0)
        graph = build_dependency_graph(trace)
        spans = [e.consumer - e.producer for e in graph.edges]
        assert max(spans) >= 12  # (width - 1) * dep_distance


# ---------------------------------------------------------------------------
# Sweep integration
# ---------------------------------------------------------------------------

def synth_spec(**base_overrides) -> SweepSpec:
    base = {"num_cores": 8, "workload.width": 4, "workload.depth": 4,
            "workload.runtime_us": 2.0}
    base.update(base_overrides)
    return SweepSpec(name="synth-grid", workloads=("random_dag",),
                     axes={"workload.dep_distance": (2, 8)}, base=base)


class TestSweepIntegration:
    def test_workload_axis_produces_distinct_points(self):
        points = synth_spec().points()
        assert len(points) == 2
        assert len({p.point_id for p in points}) == 2
        assert [p.as_dict()["workload.dep_distance"] for p in points] == [2, 8]

    def test_build_point_config_ignores_workload_section(self):
        params = synth_spec().points()[0].as_dict()
        config = build_point_config(params)  # must not raise
        assert config.cmp.num_cores == 8
        assert workload_params(params) == {"width": 4, "depth": 4,
                                           "runtime_us": 2.0, "dep_distance": 2}

    def test_execute_point_honours_workload_params(self):
        params = synth_spec().points()[0].as_dict()
        data = execute_point(params)
        assert data["num_tasks"] == 16  # width * depth * default scale
        bigger = dict(params)
        bigger["workload.width"] = 8
        assert execute_point(bigger)["num_tasks"] == 32

    def test_serial_runner_caches_synthetic_grid(self, tmp_path):
        spec = synth_spec()
        first = SweepRunner(cache=ResultCache(tmp_path)).run(spec)
        assert first.computed_count == 2
        second = SweepRunner(cache=ResultCache(tmp_path)).run(spec)
        assert second.computed_count == 0
        assert second.cached_count == 2
        from dataclasses import asdict
        for mine, theirs in zip(first.results, second.results):
            assert asdict(mine) == asdict(theirs)

    def test_parameterized_workload_string_also_sweeps(self):
        spec = SweepSpec(name="string-spec",
                         workloads=("random_dag:width=4,depth=2",),
                         base={"num_cores": 4})
        run = SweepRunner().run(spec)
        assert run.results[0].num_tasks == 8


# ---------------------------------------------------------------------------
# Runner hardening (satellites)
# ---------------------------------------------------------------------------

class TestRunnerHardening:
    def test_adaptive_chunksize(self):
        assert adaptive_chunksize(1, 2) == 1
        assert adaptive_chunksize(8, 2) == 1
        assert adaptive_chunksize(64, 2) == 8
        assert adaptive_chunksize(10_000, 8) == 32  # capped

    def test_missing_results_raise(self):
        points = synth_spec().points()
        with pytest.raises(SweepExecutionError) as excinfo:
            _require_complete(points, [None, None])
        assert "2 of 2" in str(excinfo.value)
        # A complete result list passes.
        _require_complete(points, ["r1", "r2"])


# ---------------------------------------------------------------------------
# Stress-campaign qualitative trends (acceptance criteria)
# ---------------------------------------------------------------------------

class TestStressTrends:
    def test_decode_rate_degrades_with_operand_count(self):
        from repro.experiments import synthetic_stress
        spec = synthetic_stress.operand_stress_spec(
            steps=(0, 8), num_cores=32, width=8, depth=8)
        rates = synthetic_stress.stress_series(run_member(spec),
                                               "decode_rate_cycles")
        assert rates[8] > 1.5 * rates[0]

    def test_window_occupancy_grows_with_dep_distance(self):
        from repro.experiments import synthetic_stress
        spec = synthetic_stress.window_stress_spec(
            dep_distances=(1, 8, 32), num_cores=16, width=8, depth=48)
        member = run_member(spec)
        means, peaks, rates = (
            list(synthetic_stress.stress_series(member, metric).values())
            for metric in ("window_mean_tasks", "window_peak_tasks",
                           "decode_rate_cycles"))
        assert means[0] < means[1] < means[2]
        assert peaks[0] < peaks[2]
        # Decode itself is not the variable: rates stay within noise.
        assert max(rates) < 1.25 * min(rates)
