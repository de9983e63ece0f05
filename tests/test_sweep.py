"""Tests for the sweep subsystem: specs, cache, in-process and pool runs.

The acceptance-critical scenarios live here:

* a ``jobs=2`` :class:`SweepRunner` sweep over >= 8 configuration points
  produces results identical to the in-process ``jobs=1`` run,
* re-running the same sweep against the same artifacts directory answers
  every point from the cache (zero recomputed points),
* an interrupted sweep resumes: points cached before the interruption are
  never simulated again.

Property-based tests (hypothesis) cover grid expansion: cardinality,
duplicate-freedom, order determinism and content-hash stability.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.system import TaskSuperscalarSystem
from repro.common.errors import ConfigurationError
from repro.common.hashing import canonical_json, content_digest, fingerprint64
from repro.experiments.common import experiment_config, experiment_trace
from repro.sweep import runner as runner_module
from repro.sweep.cache import ResultCache, result_from_dict, result_to_dict
from repro.sweep.runner import (SweepRunner, build_point_config,
                                configure_trace_store, default_runner,
                                execute_point, resolve_trace_store,
                                trace_cache_clear)
from repro.sweep.runner import trace_key_for_params
from repro.sweep.spec import (DEFAULT_PARAMS, SweepSpec, canonical_scalar,
                              parse_axis_value)
from repro.trace.store import TraceStore

#: A small but non-trivial grid: 2 workloads x 2 ORT settings x 2 TRS
#: settings = 8 points (the acceptance floor), each cheap to simulate.
def acceptance_spec() -> SweepSpec:
    return SweepSpec(
        name="acceptance",
        workloads=("Cholesky", "MatMul"),
        axes={
            "frontend.num_ort": (1, 2),
            "frontend.num_trs": (1, 4),
        },
        base={"num_cores": 16, "scale_factor": 0.3, "max_tasks": 50,
              "fast_generator": True},
    )


def tiny_spec(**base_overrides) -> SweepSpec:
    base = {"num_cores": 8, "scale_factor": 0.2, "max_tasks": 25}
    base.update(base_overrides)
    return SweepSpec(name="tiny", workloads=("Cholesky",),
                     axes={"frontend.num_trs": (1, 2)}, base=base)


# ---------------------------------------------------------------------------
# SweepSpec expansion
# ---------------------------------------------------------------------------

class TestSweepSpec:
    def test_expansion_order_matches_nested_loops(self):
        spec = acceptance_spec()
        points = spec.points()
        assert len(points) == spec.cardinality == 8
        observed = [(p.workload, p.as_dict()["frontend.num_ort"],
                     p.as_dict()["frontend.num_trs"]) for p in points]
        expected = [(w, o, t) for w in ("Cholesky", "MatMul")
                    for o in (1, 2) for t in (1, 4)]
        assert observed == expected

    def test_linked_axis_applies_all_fields(self):
        spec = SweepSpec(name="linked", workloads=("Cholesky",), axes={
            "capacity": [{"frontend.total_ort_capacity_bytes": 64 * 1024,
                          "frontend.total_ovt_capacity_bytes": 64 * 1024}]})
        params = spec.points()[0].as_dict()
        assert params["frontend.total_ort_capacity_bytes"] == \
            params["frontend.total_ovt_capacity_bytes"] == 64 * 1024

    def test_point_ids_are_distinct_and_stable(self):
        first = acceptance_spec().points()
        second = acceptance_spec().points()
        assert [p.point_id for p in first] == [p.point_id for p in second]
        assert len({p.point_id for p in first}) == len(first)

    def test_point_id_ignores_index_and_spec_identity(self):
        spec_a = tiny_spec()
        spec_b = SweepSpec(name="other-name", workloads=("Cholesky",),
                           axes={"frontend.num_trs": (2, 1)},
                           base=dict(tiny_spec().base))
        ids_a = {p.point_id for p in spec_a.points()}
        ids_b = {p.point_id for p in spec_b.points()}
        # Same parameter sets (different order, different spec name) share ids.
        assert ids_a == ids_b

    def test_unknown_parameter_rejected(self):
        # A dotted override must name a field of its config section; a typo
        # fails at validation, naming the parameter, not later point by point.
        with pytest.raises(ConfigurationError, match="frontend.no_such_field"):
            SweepSpec(name="bad", workloads=("Cholesky",),
                      axes={"frontend.no_such_field": (1,)}).validate()
        with pytest.raises(ConfigurationError, match="frontend.num_tr'"):
            SweepSpec(name="bad", workloads=("Cholesky",),
                      base={"frontend.num_tr": 4}).validate()
        with pytest.raises(ConfigurationError, match="backend.allow_task_stealing"):
            SweepSpec(name="bad", workloads=("Cholesky",),
                      axes={"knobs": [{"backend.allow_task_stealing": True}]},
                      ).validate()
        # Deleted fields are unknown too: data movement is part of the trace
        # runtimes, so no axis may switch a transfer model on.
        with pytest.raises(ConfigurationError, match="backend.model_data_transfers"):
            SweepSpec(name="bad", workloads=("Cholesky",),
                      axes={"backend.model_data_transfers": (False, True)},
                      ).validate()

        with pytest.raises(ConfigurationError):
            SweepSpec(name="bad", workloads=("Cholesky",),
                      axes={"nonsense": (1,)}).validate()
        with pytest.raises(ConfigurationError):
            SweepSpec(name="bad", workloads=("Cholesky",),
                      base={"system": "quantum"}).validate()
        with pytest.raises(ConfigurationError):
            SweepSpec(name="bad", workloads=()).validate()
        with pytest.raises(ConfigurationError):
            SweepSpec(name="bad", workloads=("Cholesky",),
                      axes={"frontend.num_trs": ()}).validate()

    def test_build_point_config_applies_overrides(self):
        params = {"workload": "Cholesky", "num_cores": 32,
                  "frontend.num_trs": 4, "frontend.num_ort": 1,
                  "backend.dispatch_latency_cycles": 8,
                  "generator.cycles_per_task": 99}
        config = build_point_config(params)
        assert config.cmp.num_cores == 32
        assert config.frontend.num_trs == 4
        assert config.backend.dispatch_latency_cycles == 8
        assert config.generator.cycles_per_task == 99

    def test_parse_axis_value(self):
        assert parse_axis_value("4") == 4
        assert parse_axis_value("0.5") == 0.5
        assert parse_axis_value("true") is True
        assert parse_axis_value("none") is None
        assert parse_axis_value("hardware") == "hardware"


class TestScalarCanonicalization:
    """Regression: equivalent scalar spellings must share one cache key.

    A seed passed as ``"0"`` (e.g. through a JSON campaign file) used to
    produce a different ``point_id`` and trace digest than the coerced ``0``
    the runner executes, duplicating cache entries and trace bakes for one
    simulated point.
    """

    def test_canonical_scalar_collapses_equivalent_spellings(self):
        assert canonical_scalar("0") == 0
        assert canonical_scalar(0.0) == 0
        assert isinstance(canonical_scalar(0.0), int)
        assert canonical_scalar("4.0") == 4
        assert canonical_scalar("0.3") == 0.3
        assert canonical_scalar(" 7 ") == 7
        # Non-numeric values pass through untouched.
        assert canonical_scalar(None) is None
        assert canonical_scalar(True) is True
        assert canonical_scalar(False) is False
        assert canonical_scalar("hardware") == "hardware"
        assert canonical_scalar("Cholesky") == "Cholesky"
        # Non-finite floats cannot appear in canonical JSON; their string
        # spellings stay strings instead of becoming unhashable floats.
        assert canonical_scalar("nan") == "nan"
        assert canonical_scalar("inf") == "inf"

    def test_string_seed_axis_shares_point_id_with_int_seed(self):
        def spec(seed_values):
            return SweepSpec(name="seeds", workloads=("Cholesky",),
                             axes={"seed": seed_values},
                             base={"num_cores": 8, "scale_factor": 0.2,
                                   "max_tasks": 10})

        string_points = spec(["0", "1"]).points()
        int_points = spec([0, 1]).points()
        assert ([p.point_id for p in string_points]
                == [p.point_id for p in int_points])
        assert string_points[0].as_dict()["seed"] == 0

    def test_equivalent_spellings_share_trace_digest(self):
        base = {"workload": "Cholesky", "scale_factor": 0.2, "max_tasks": 10}
        _, digest_int = trace_key_for_params({**base, "seed": 0})
        _, digest_str = trace_key_for_params({**base, "seed": "0"})
        assert digest_int == digest_str
        _, kw_int = trace_key_for_params(
            {"workload": "random_dag", "workload.width": 16})
        _, kw_str = trace_key_for_params(
            {"workload": "random_dag", "workload.width": "16"})
        assert kw_int == kw_str

    def test_string_seed_point_is_served_by_the_int_seed_cache(self, tmp_path):
        """The end-to-end bug: no duplicate cache entry, no redundant bake."""
        def spec(seed):
            return SweepSpec(name="canon", workloads=("Cholesky",),
                             axes={"frontend.num_trs": (1,)},
                             base={"num_cores": 8, "scale_factor": 0.2,
                                   "max_tasks": 10, "seed": seed,
                                   "fast_generator": True})

        cache = ResultCache(tmp_path)
        trace_cache_clear()
        first = SweepRunner(cache=cache).run(spec(0))
        assert first.computed_count == 1
        rerun = SweepRunner(cache=ResultCache(tmp_path)).run(spec("0"))
        assert rerun.computed_count == 0, \
            "string seed missed the cache entry of the equivalent int seed"
        assert rerun.cached_count == 1
        assert rerun.trace_generated == 0
        assert len(cache) == 1, "duplicate cache entry for one configuration"
        trace_cache_clear()


# ---------------------------------------------------------------------------
# SweepSpec properties (hypothesis)
# ---------------------------------------------------------------------------

axis_scalar_values = st.lists(st.integers(min_value=1, max_value=64),
                              min_size=1, max_size=4, unique=True)


@st.composite
def spec_strategy(draw):
    workloads = draw(st.lists(st.sampled_from(["Cholesky", "MatMul", "FFT"]),
                              min_size=1, max_size=3, unique=True))
    axis_names = draw(st.lists(
        st.sampled_from(["frontend.num_trs", "num_cores", "seed",
                         "generator.cycles_per_task"]),
        min_size=0, max_size=3, unique=True))
    axes = {name: draw(axis_scalar_values) for name in axis_names}
    return SweepSpec(name="prop", workloads=tuple(workloads), axes=axes,
                     base={"scale_factor": 0.25, "max_tasks": 20})


class TestSweepSpecProperties:
    @given(spec_strategy())
    @settings(max_examples=60, deadline=None)
    def test_cardinality_matches_expansion(self, spec):
        points = spec.points()
        assert len(points) == spec.cardinality
        expected = len(spec.workloads)
        for values in spec.axes.values():
            expected *= len(values)
        assert len(points) == expected

    @given(spec_strategy())
    @settings(max_examples=60, deadline=None)
    def test_no_duplicate_points(self, spec):
        points = spec.points()
        assert len({p.params for p in points}) == len(points)
        assert len({p.point_id for p in points}) == len(points)

    @given(spec_strategy())
    @settings(max_examples=60, deadline=None)
    def test_hash_stability_across_expansions(self, spec):
        first = spec.points()
        second = spec.points()
        assert [p.point_id for p in first] == [p.point_id for p in second]
        # The content digest is exactly the digest of the canonical params.
        for point in first:
            assert point.point_id == content_digest(point.as_dict())

    @given(spec_strategy())
    @settings(max_examples=60, deadline=None)
    def test_indices_enumerate_expansion_order(self, spec):
        assert [p.index for p in spec.points()] == list(range(spec.cardinality))

    @given(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]),
                           st.integers(-5, 5), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_canonical_json_is_order_independent(self, mapping):
        shuffled = dict(reversed(list(mapping.items())))
        assert canonical_json(mapping) == canonical_json(shuffled)
        assert fingerprint64(mapping) == fingerprint64(shuffled)


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------

class TestResultCache:
    @pytest.mark.parametrize("topology", (
        {}, {"num_frontends": 2, "shard_policy": "hash_by_kernel",
             "steal_policy": "nearest"}))
    def test_result_to_dict_is_asdict_without_shared_objects(self, topology):
        config = experiment_config(num_cores=16)
        if topology:
            config = config.with_topology(**topology)
        result = TaskSuperscalarSystem(config).run(
            experiment_trace("MatMul", scale_factor=0.3, max_tasks=120))
        if topology:
            assert result.num_frontends == 2 and result.tasks_stolen > 0
        expected = asdict(result)
        data = result_to_dict(result)
        assert data == expected
        containers = {id(value) for value in vars(result).values()
                      if isinstance(value, (list, dict))}
        assert containers  # stats and the per-frontend/cluster lists
        assert not containers & {id(value) for value in data.values()}
        for value in data.values():
            if isinstance(value, dict):
                value.clear()
            elif isinstance(value, list):
                value.append(-1)
        assert asdict(result) == expected

    def test_entry_in_the_indented_layout_is_a_hit(self, tmp_path):
        """Entries written as sorted, one-space-indented JSON (the layout
        before verified documents were encoded once) stay warm."""
        spec = tiny_spec()
        SweepRunner(cache=ResultCache(tmp_path)).run(spec)
        paths = sorted((tmp_path / "objects").glob("*/*.json"))
        for path in paths:
            document = json.loads(path.read_bytes())
            del document["digest"]
            path.write_text(json.dumps(
                dict(document, digest=content_digest(document)),
                sort_keys=True, indent=1))
        before = {path: path.read_bytes() for path in paths}
        cache = ResultCache(tmp_path)
        run = SweepRunner(cache=cache).run(spec)
        assert (run.cached_count, run.computed_count) == (spec.cardinality, 0)
        assert cache.hits == spec.cardinality and cache.corrupt == 0
        assert not cache.quarantine_dir().exists()
        assert {path: path.read_bytes() for path in paths} == before

    def test_roundtrip_preserves_result_exactly(self, tmp_path):
        spec = tiny_spec()
        point = spec.points()[0]
        cache = ResultCache(tmp_path)
        assert cache.get(point) is None
        run = SweepRunner(cache=cache).run(spec)
        reloaded = ResultCache(tmp_path).get(point)
        assert asdict(reloaded) == asdict(run.results[0])

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run(spec)
        for path in (tmp_path / "objects").glob("*/*.json"):
            path.write_text("{truncated", encoding="utf-8")
        fresh = ResultCache(tmp_path)
        assert fresh.get(spec.points()[0]) is None
        assert not fresh.contains(spec.points()[0])

    def test_manifest_written_on_completion(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run(spec)
        manifest = cache.read_manifest(spec.spec_id)
        assert manifest is not None
        assert manifest["num_points"] == spec.cardinality
        assert manifest["point_ids"] == [p.point_id for p in spec.points()]

    def test_len_counts_objects(self, tmp_path):
        spec = tiny_spec()
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        SweepRunner(cache=cache).run(spec)
        assert len(cache) == spec.cardinality


# ---------------------------------------------------------------------------
# Runners: parity, caching, resume
# ---------------------------------------------------------------------------

class TestRunners:
    def test_parallel_two_workers_matches_serial_and_rerun_hits_cache(self, tmp_path):
        """The acceptance scenario: >= 8 points, 2 workers, zero recompute."""
        spec = acceptance_spec()
        assert spec.cardinality >= 8

        serial = SweepRunner().run(spec)
        parallel_cache = ResultCache(tmp_path)
        parallel = SweepRunner(jobs=2, cache=parallel_cache).run(spec)

        assert parallel.computed_count == spec.cardinality
        assert parallel.cached_count == 0
        assert len(serial.results) == len(parallel.results) == spec.cardinality
        for mine, theirs in zip(serial.results, parallel.results):
            assert asdict(mine) == asdict(theirs)

        rerun = SweepRunner(jobs=2, cache=ResultCache(tmp_path)).run(spec)
        assert rerun.computed_count == 0, "re-run must recompute zero points"
        assert rerun.cached_count == spec.cardinality
        for mine, theirs in zip(serial.results, rerun.results):
            assert asdict(mine) == asdict(theirs)

    def test_interrupted_sweep_resumes_without_recomputation(self, tmp_path):
        spec = acceptance_spec()
        points = spec.points()
        cache = ResultCache(tmp_path)
        # Simulate an interrupted sweep: only the first half completed.
        for point in points[:4]:
            cache.put(point, result_from_dict(execute_point(point.as_dict())))
        resumed = SweepRunner(cache=ResultCache(tmp_path)).run(spec)
        assert resumed.cached_count == 4
        assert resumed.computed_count == 4
        # And the resumed results equal an uncached run.
        reference = SweepRunner().run(spec)
        for mine, theirs in zip(resumed.results, reference.results):
            assert asdict(mine) == asdict(theirs)

    def test_duplicate_grid_points_are_simulated_once(self):
        # Clamped axes can legitimately repeat a parameter set (e.g. the two
        # smallest Figure 14 capacities both clamp to the 4 KB floor); every
        # jobs setting must simulate the configuration once, share the
        # result, and still report progress once per spec point.
        spec = SweepSpec(
            name="dup",
            workloads=("Cholesky",),
            axes={"capacity": [{"frontend.num_trs": 2}, {"frontend.num_trs": 2}]},
            base={"num_cores": 8, "scale_factor": 0.2, "max_tasks": 25},
        )
        runs = {}
        for jobs in (1, 2):
            seen = []
            runs[jobs] = SweepRunner(jobs=jobs).run(
                spec, progress=lambda p, r, cached: seen.append(
                    (p.index, cached)))
            assert runs[jobs].computed_count == 1
            assert runs[jobs].cached_count == 1
            assert seen == [(0, False), (1, True)], f"jobs={jobs}"
        serial, parallel = runs[1], runs[2]
        assert asdict(parallel.results[0]) == asdict(parallel.results[1])
        assert asdict(parallel.results[0]) == asdict(serial.results[0])

    def test_progress_callback_reports_cache_origin(self, tmp_path):
        spec = tiny_spec()
        seen = []
        SweepRunner(cache=ResultCache(tmp_path)).run(
            spec, progress=lambda p, r, cached: seen.append(cached))
        assert seen == [False, False]
        seen.clear()
        SweepRunner(cache=ResultCache(tmp_path)).run(
            spec, progress=lambda p, r, cached: seen.append(cached))
        assert seen == [True, True]

    def test_execute_point_software_system(self):
        params = tiny_spec(system="software").points()[0].as_dict()
        data = execute_point(params)
        assert data["tasks_completed"] == data["num_tasks"] > 0

    def test_default_runner_selection(self):
        assert default_runner(1).jobs == 1
        assert default_runner(3).jobs == 3
        with pytest.raises(ConfigurationError):
            SweepRunner(jobs=0)

    def test_parallel_chunked_grid_matches_serial(self):
        # 24 cheap points with 2 workers batches several points per pool task
        # (adaptive_chunksize > 1); results must still be bit-identical to the
        # serial reference and complete for every point.
        spec = SweepSpec(
            name="chunked",
            workloads=("Cholesky",),
            axes={"seed": tuple(range(12)), "frontend.num_trs": (1, 2)},
            base={"num_cores": 4, "scale_factor": 0.2, "max_tasks": 15,
                  "fast_generator": True},
        )
        assert spec.cardinality == 24
        serial = SweepRunner().run(spec)
        parallel = SweepRunner(jobs=2).run(spec)
        assert len(parallel.results) == spec.cardinality
        for mine, theirs in zip(serial.results, parallel.results):
            assert asdict(mine) == asdict(theirs)


class TestTraceStoreIntegration:
    def test_cache_derives_the_conventional_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(cache=cache)
        assert runner.trace_store is not None
        assert runner.trace_store.root == tmp_path / "traces"
        assert SweepRunner(cache=cache, trace_store=False).trace_store is None
        assert SweepRunner().trace_store is None

    def test_resolve_trace_store_accepts_paths_and_stores(self, tmp_path):
        store = TraceStore(tmp_path / "s")
        assert resolve_trace_store(store, None) is store
        assert resolve_trace_store(str(tmp_path / "p"), None).root == tmp_path / "p"
        assert resolve_trace_store(False, ResultCache(tmp_path)) is None

    def test_parent_bakes_each_distinct_trace_once(self, tmp_path):
        spec = acceptance_spec()
        trace_cache_clear()
        run = SweepRunner(jobs=2, cache=ResultCache(tmp_path)).run(spec)
        # Two workloads share every other parameter: exactly two bakes.
        assert run.trace_generated == 2
        assert run.trace_reused == 0
        store = TraceStore(tmp_path / "traces")
        assert len(store) == 2
        names = sorted(entry.name for entry in store.entries())
        assert names == ["Cholesky", "MatMul"]
        # Each baked trace is already truncated to the spec's max_tasks.
        assert all(entry.num_tasks == 50 for entry in store.entries())

    def test_second_campaign_reports_zero_regenerations(self, tmp_path):
        spec = acceptance_spec()
        first_cache = ResultCache(tmp_path / "a")
        trace_cache_clear()
        first = SweepRunner(jobs=2, cache=first_cache).run(spec)
        assert first.trace_generated == 2
        # A different campaign cache but the same trace store: every trace is
        # answered by a packed load, zero regenerations anywhere.
        second_cache = ResultCache(tmp_path / "b")
        trace_cache_clear()
        second = SweepRunner(
            jobs=2, cache=second_cache,
            trace_store=TraceStore(tmp_path / "a" / "traces")).run(spec)
        assert second.trace_generated == 0
        assert second.trace_reused == 2
        for mine, theirs in zip(first.results, second.results):
            assert asdict(mine) == asdict(theirs)

    def test_memo_hit_backfills_a_fresh_store(self, tmp_path):
        """A store configured after the memo warmed up still gets baked."""
        spec = tiny_spec(fast_generator=True)
        trace_cache_clear()
        SweepRunner().run(spec)  # warms the in-process memo, no store
        fresh = TraceStore(tmp_path / "fresh")
        run = SweepRunner(cache=ResultCache(tmp_path / "c"),
                           trace_store=fresh).run(spec)
        assert run.trace_generated == 0
        assert len(fresh) == 1, "memoized trace was not baked into the store"
        trace_cache_clear()

    def test_disabled_store_overrides_env_var(self, tmp_path):
        """--no-trace-store must win over the process's configured store."""
        outer_root = tmp_path / "outer-store"
        previous = configure_trace_store(str(outer_root))
        try:
            trace_cache_clear()
            run = SweepRunner(cache=ResultCache(tmp_path / "c"),
                              trace_store=False).run(tiny_spec())
        finally:
            configure_trace_store(previous)
        assert run.trace_generated == 1
        assert not outer_root.exists(), "disabled runner wrote to the outer store"

    def test_env_var_store_reaches_execute_point(self, tmp_path):
        """A store set with configure_trace_store serves execute_point."""
        outer_root = tmp_path / "outer-store"
        previous = configure_trace_store(str(outer_root))
        try:
            trace_cache_clear()
            execute_point({"workload": "Cholesky", "num_cores": 8,
                           "scale_factor": 0.2, "max_tasks": 10,
                           "fast_generator": True})
        finally:
            configure_trace_store(previous)
            trace_cache_clear()
        assert TraceStore(outer_root).entries(), "outer store was not baked into"

    def test_memo_survives_multi_workload_grids(self, monkeypatch, tmp_path):
        """A 9-trace grid with a size-4 memo still only generates each once.

        The old ``lru_cache(maxsize=8)`` thrashed on grids touching more than
        8 (workload, seed, scale) tuples *per axis pass*; the digest-keyed
        memo backed by the store answers every repeat visit without
        regeneration even when the memo itself is too small.
        """
        monkeypatch.setattr(runner_module, "TRACE_CACHE_SIZE", 4)
        spec = SweepSpec(
            name="many-traces",
            workloads=("Cholesky",),
            axes={"frontend.num_trs": (1, 2),
                  "seed": tuple(range(9))},
            base={"num_cores": 4, "scale_factor": 0.2, "max_tasks": 10,
                  "fast_generator": True},
        )
        assert spec.cardinality == 18
        trace_cache_clear()
        run = SweepRunner(cache=ResultCache(tmp_path)).run(spec)
        # 9 distinct traces generated once each; the second TRS pass is
        # answered by the packed store (or memo) despite the tiny memo.
        assert run.trace_generated == 9
        assert run.trace_reused == 9
        trace_cache_clear()
