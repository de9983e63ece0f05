"""Chaos and fuzz tests for fault-tolerant sweep execution.

The fault-injection harness (:mod:`repro.sweep.faults`) makes failure
deterministic, so these tests can assert the strongest property fault
tolerance offers: a run that survives injected crashes, stragglers and torn
writes produces results *bit-identical* to a clean run, and artifacts
damaged on disk are quarantined and transparently recomputed -- never served,
never crashed on.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.common.errors import (ArtifactIntegrityError,
                                 ArtifactIntegrityWarning, ConfigurationError,
                                 SweepExecutionError)
from repro.sweep.cache import ResultCache
from repro.sweep.faults import (CRASH_EXIT_CODE, FAULTS_DIR_ENV, FAULTS_ENV,
                                FaultPlan, active_fault_plan, configure_faults,
                                fire, parse_faults)
from repro.sweep.resilience import (JOURNAL_SCHEMA, RetryPolicy, RunJournal,
                                    replay)
from repro.sweep.runner import (ObsSettings, SweepRunner,
                                configure_observability, execute_point,
                                trace_cache_clear)
from repro.sweep.spec import SweepSpec, spec_id_of
from repro.trace.packed import pack_trace
from repro.trace.store import TraceStore

from tests.conftest import chain_trace


@pytest.fixture(autouse=True)
def _isolated_faults():
    """Every test starts with no fault plan and leaks none to the next."""
    previous = configure_faults(None)
    yield
    configure_faults(previous)


def crash_spec(points: int = 2) -> SweepSpec:
    """A cheap sweep grid for chaos runs (``points`` cheap Cholesky points)."""
    return SweepSpec(
        name="chaos",
        workloads=("Cholesky",),
        axes={"frontend.num_trs": tuple(range(1, points + 1))},
        base={"num_cores": 8, "scale_factor": 0.2, "max_tasks": 25,
              "fast_generator": True},
    )


def fast_retry(**overrides) -> RetryPolicy:
    defaults = dict(max_retries=2, backoff_seconds=0.05, backoff_factor=1.0,
                    max_backoff_seconds=0.1)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


# ---------------------------------------------------------------------------
# Fault spec parsing and plan mechanics
# ---------------------------------------------------------------------------

class TestParseFaults:
    def test_full_grammar_round_trips(self):
        faults = parse_faults("worker_crash:point=2;"
                              "slow_point:ordinal=1,seconds=2.5,times=3")
        assert [f.kind for f in faults] == ["worker_crash", "slow_point"]
        assert faults[0].point == 2 and faults[0].times == 1
        assert faults[1].ordinal == 1 and faults[1].seconds == 2.5
        assert faults[1].times == 3
        assert "slow_point(ordinal=1, seconds=2.5, times=3)" in \
            faults[1].describe()

    @pytest.mark.parametrize("spec", [
        "no_such_kind",
        "worker_crash:bogus_key=1",
        "worker_crash:point",
        "worker_crash:point=xyz",
        "worker_crash:times=0",
        "",
        ";;",
    ])
    def test_malformed_specs_fail_loudly(self, spec):
        with pytest.raises(ConfigurationError):
            parse_faults(spec)


class TestFaultPlan:
    def test_point_targeted_fault_fires_once(self):
        plan = FaultPlan("worker_crash:point=3")
        assert plan.fire("worker_crash", point=1) is None
        assert plan.fire("worker_crash", point=3) is not None
        # Claimed before the effect: the re-dispatch cannot re-fire.
        assert plan.fire("worker_crash", point=3) is None

    def test_ordinal_targeting_counts_calls_per_kind(self):
        plan = FaultPlan("trace_corrupt:ordinal=1")
        assert plan.fire("trace_corrupt") is None      # ordinal 0
        assert plan.fire("worker_crash") is None       # other kind, own count
        assert plan.fire("trace_corrupt") is not None  # ordinal 1
        assert plan.fire("trace_corrupt") is None

    def test_times_budget(self):
        # times composes with point targeting: the same point can fire the
        # fault on its retry too (an ordinal target matches a single call).
        plan = FaultPlan("torn_cache:point=5,times=2")
        assert plan.fire("torn_cache", point=5) is not None
        assert plan.fire("torn_cache", point=5) is not None
        assert plan.fire("torn_cache", point=5) is None

    def test_state_dir_claims_are_shared_across_plans(self, tmp_path):
        """Two plans over one state dir model a worker and its replacement."""
        first = FaultPlan("worker_crash:point=0", state_dir=tmp_path)
        second = FaultPlan("worker_crash:point=0", state_dir=tmp_path)
        assert first.fire("worker_crash", point=0) is not None
        assert second.fire("worker_crash", point=0) is None

    def test_env_plan_and_disable(self, monkeypatch, tmp_path):
        monkeypatch.setenv(FAULTS_ENV, "obs_fail")
        monkeypatch.setenv(FAULTS_DIR_ENV, str(tmp_path))
        configure_faults(None)
        plan = active_fault_plan()
        assert plan is not None and plan.state_dir == str(tmp_path)
        assert active_fault_plan() is plan, "env plans are memoized"
        configure_faults(False)
        assert active_fault_plan() is None, "False beats the env var"
        configure_faults(None)
        assert fire("obs_fail") is not None

    def test_explicit_plan_beats_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "obs_fail")
        explicit = FaultPlan("worker_crash:point=9")
        configure_faults(explicit)
        assert active_fault_plan() is explicit


# ---------------------------------------------------------------------------
# Chaos: crash recovery end to end
# ---------------------------------------------------------------------------

class TestWorkerCrashRecovery:
    def test_killed_worker_recovers_bit_identical(self, tmp_path):
        """The tentpole scenario: a worker dies mid-sweep, the sweep still
        completes, results equal a clean serial run, the journal shows the
        retry, and a follow-up run recomputes nothing."""
        spec = crash_spec()
        clean = SweepRunner().run(spec)

        configure_faults(FaultPlan("worker_crash:point=0",
                                   state_dir=tmp_path / "faults"))
        trace_cache_clear()
        cache = ResultCache(tmp_path / "arts")
        run = SweepRunner(jobs=2, cache=cache, retry=fast_retry()).run(spec)

        assert run.retried_points >= 1
        assert run.pool_restarts >= 1
        assert len(run.results) == spec.cardinality
        for mine, theirs in zip(clean.results, run.results):
            assert asdict(mine) == asdict(theirs)

        journal = RunJournal(run.journal_path)
        state = replay(journal.read())
        assert state["completed"]
        assert state["retries"] >= 1
        assert state["pool_restarts"] >= 1
        assert all(s in ("done", "cached") for s in state["points"].values())

        # Recovery converged: the follow-up run is pure cache.
        configure_faults(None)
        rerun = SweepRunner(jobs=2,
                            cache=ResultCache(tmp_path / "arts")).run(spec)
        assert rerun.computed_count == 0
        assert rerun.cached_count == spec.cardinality
        for mine, theirs in zip(clean.results, rerun.results):
            assert asdict(mine) == asdict(theirs)

    def test_retries_disabled_raises_named_sweep_error(self, tmp_path):
        """Satellite 1: with retries off, a dead pool is still not a bare
        ``BrokenProcessPool`` -- the error names the failed point."""
        spec = crash_spec()
        configure_faults(FaultPlan("worker_crash:point=0",
                                   state_dir=tmp_path / "faults"))
        trace_cache_clear()
        runner = SweepRunner(jobs=2, retry=fast_retry(max_retries=0))
        with pytest.raises(SweepExecutionError) as info:
            runner.run(spec)
        message = str(info.value)
        assert "point_id" in message
        assert "failed after 1 dispatch" in message
        assert any(point.point_id[:12] in message
                   for point in spec.points())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_deterministic_app_error_is_not_retried(self, jobs, tmp_path):
        """A point that *raises* (vs. crashes) fails the sweep immediately,
        in-process or in a pool, wrapped with the point's identity and
        chained to the original error -- retrying a deterministic error
        would just fail max_retries more times."""
        spec = SweepSpec(name="boom", workloads=("Cholesky",),
                         axes={"frontend.num_trs": (0,)},
                         base={"num_cores": 8, "scale_factor": 0.2,
                               "max_tasks": 25})
        trace_cache_clear()
        runner = SweepRunner(jobs=jobs, cache=ResultCache(tmp_path),
                             retry=fast_retry())
        with pytest.raises(SweepExecutionError) as info:
            runner.run(spec)
        assert "raised" in str(info.value)
        assert spec.points()[0].label() in str(info.value)
        assert isinstance(info.value.__cause__, ConfigurationError)
        assert "num_trs must be positive" in str(info.value.__cause__)
        state = replay(RunJournal.for_root(
            tmp_path, spec_id_of(spec.points())).read())
        assert state["points"] == {spec.points()[0].point_id: "failed"}
        assert state["retries"] == 0 and not state["completed"]

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE == 87


class TestStragglerTimeout:
    def test_hung_point_is_killed_and_redispatched(self, tmp_path):
        """A straggler sleeping far past the per-point timeout is killed,
        re-dispatched (where the claimed fault no longer fires) and the
        sweep completes bit-identical to a clean run."""
        spec = crash_spec()
        clean = SweepRunner().run(spec)

        configure_faults(FaultPlan("slow_point:point=1,seconds=60",
                                   state_dir=tmp_path / "faults"))
        trace_cache_clear()
        run = SweepRunner(
            jobs=2, cache=ResultCache(tmp_path / "arts"),
            retry=fast_retry(point_timeout_seconds=1.5)).run(spec)

        assert run.retried_points >= 1
        assert run.pool_restarts >= 1
        for mine, theirs in zip(clean.results, run.results):
            assert asdict(mine) == asdict(theirs)
        state = replay(RunJournal(run.journal_path).read())
        assert state["completed"] and state["retries"] >= 1


# ---------------------------------------------------------------------------
# Chaos: artifact corruption faults
# ---------------------------------------------------------------------------

class TestTornCacheWrite:
    def test_torn_entry_quarantined_and_recomputed(self, tmp_path):
        spec = crash_spec()
        clean = SweepRunner().run(spec)

        configure_faults("torn_cache:point=0")
        first = SweepRunner(cache=ResultCache(tmp_path)).run(spec)
        for mine, theirs in zip(clean.results, first.results):
            assert asdict(mine) == asdict(theirs)

        # The torn entry is invalid JSON on disk; the next run quarantines
        # it, recomputes the point, and reports both.
        configure_faults(None)
        cache = ResultCache(tmp_path)
        with pytest.warns(ArtifactIntegrityWarning, match="quarantined"):
            second = SweepRunner(cache=cache).run(spec)
        assert second.corrupt_artifacts == 1
        assert second.computed_count == 1
        assert second.cached_count == spec.cardinality - 1
        assert len(second.quarantined_paths) == 1
        assert "quarantine" in second.quarantined_paths[0]
        for mine, theirs in zip(clean.results, second.results):
            assert asdict(mine) == asdict(theirs)

        # And the recompute healed the cache: third run is all hits.
        third = SweepRunner(cache=ResultCache(tmp_path)).run(spec)
        assert third.computed_count == 0 and third.corrupt_artifacts == 0


class TestTraceCorruptFault:
    def test_corrupted_bake_quarantined_then_rebaked(self, tmp_path):
        store = TraceStore(tmp_path)
        configure_faults("trace_corrupt")
        params = {"workload": "chaos-trace", "seed": 0}
        packed, baked = store.get_or_bake(params, lambda: chain_trace(5))
        assert baked and len(packed) == 5

        # The fault flipped bytes in the file *after* the bake returned; the
        # next read detects, quarantines and regenerates.
        configure_faults(None)
        fresh = TraceStore(tmp_path)
        with pytest.warns(ArtifactIntegrityWarning):
            reloaded, rebaked = fresh.get_or_bake(params,
                                                  lambda: chain_trace(5))
        assert rebaked and fresh.corrupt == 1
        assert len(reloaded) == 5
        [moved] = fresh.quarantined
        assert moved.parent == fresh.quarantine_dir()


class TestObsFailFault:
    def test_telemetry_failure_never_fails_the_point(self, tmp_path):
        params = crash_spec().points()[0].as_dict()
        previous = configure_observability(ObsSettings(root=str(tmp_path)))
        configure_faults("obs_fail")
        try:
            with pytest.warns(RuntimeWarning, match="telemetry write failed"):
                data = execute_point(params)
        finally:
            configure_observability(previous)
        assert data["tasks_completed"] > 0
        assert not (tmp_path / "points").is_dir() or \
            not list((tmp_path / "points").glob("*.json"))


# ---------------------------------------------------------------------------
# Fuzz: truncation and bit flips must never crash a reader
# ---------------------------------------------------------------------------

class TestPackedTraceFuzz:
    def test_truncations_never_crash(self, tmp_path):
        digest = "ab" * 32
        store = TraceStore(tmp_path)
        store.put(digest, chain_trace(4))
        payload = store.path_for(digest).read_bytes()
        cuts = sorted({0, 1, 4, 7, 8, 9, 16, len(payload) // 2,
                       len(payload) - 1})
        for index, cut in enumerate(cuts):
            root = tmp_path / f"cut{index}"
            fuzzed = TraceStore(root)
            path = fuzzed.path_for(digest)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(payload[:cut])
            with pytest.warns(ArtifactIntegrityWarning):
                assert fuzzed.get(digest) is None
            assert fuzzed.corrupt == 1
            assert not path.exists(), f"cut at {cut} was not quarantined"

    def test_bit_flips_never_crash(self, tmp_path):
        digest = "cd" * 32
        store = TraceStore(tmp_path)
        store.put(digest, chain_trace(4))
        payload = bytearray(store.path_for(digest).read_bytes())
        positions = [0, 5, 9, 13, len(payload) // 3, len(payload) // 2,
                     len(payload) - 1]
        for index, position in enumerate(positions):
            mutated = bytearray(payload)
            mutated[position] ^= 0xFF
            root = tmp_path / f"flip{index}"
            fuzzed = TraceStore(root)
            path = fuzzed.path_for(digest)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(bytes(mutated))
            # A flip may land in payload bytes the format cannot police (no
            # per-column checksum); the contract is no exception and no lie:
            # either a structurally valid trace loads, or the file is
            # quarantined as corrupt -- version flips alone read as stale.
            import warnings as _warnings
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")
                loaded = fuzzed.get(digest)
            if loaded is None and fuzzed.corrupt:
                assert not path.exists()


class TestResultCacheFuzz:
    def _seed_entry(self, tmp_path):
        spec = crash_spec()
        point = spec.points()[0]
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run(spec)
        path = cache._object_path(point.point_id)
        return point, path, path.read_text()

    def test_truncations_quarantine_and_miss(self, tmp_path):
        point, path, payload = self._seed_entry(tmp_path / "seed")
        for index, cut in enumerate([0, 1, len(payload) // 3,
                                     len(payload) // 2, len(payload) - 2]):
            cache = ResultCache(tmp_path / f"cut{index}")
            target = cache._object_path(point.point_id)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(payload[:cut])
            with pytest.warns(ArtifactIntegrityWarning):
                assert cache.get(point) is None
            assert cache.corrupt == 1
            assert not target.exists()
            assert list(cache.quarantine_dir().glob("*.quarantined"))

    def test_result_payload_flip_fails_the_digest(self, tmp_path):
        point, path, payload = self._seed_entry(tmp_path / "seed")
        entry = json.loads(payload)
        entry["result"]["makespan_cycles"] += 1  # silent corruption
        cache = ResultCache(tmp_path / "flip")
        target = cache._object_path(point.point_id)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(entry))
        with pytest.warns(ArtifactIntegrityWarning, match="digest"):
            assert cache.get(point) is None
        assert cache.corrupt == 1

    def test_schema_mismatch_is_a_plain_miss_not_damage(self, tmp_path):
        point, path, payload = self._seed_entry(tmp_path / "seed")
        entry = json.loads(payload)
        entry["schema"] = 2  # a well-formed artifact from older code
        cache = ResultCache(tmp_path / "stale")
        target = cache._object_path(point.point_id)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(entry))
        assert cache.get(point) is None
        assert cache.corrupt == 0, "stale schema is not corruption"
        assert cache.misses == 1


class TestCampaignReportFuzz:
    def _write_report(self, tmp_path):
        from repro.sweep.campaign import (Campaign, load_report, run_campaign,
                                          write_report)
        campaign = Campaign(name="fuzz", members=(crash_spec(),))
        cache = ResultCache(tmp_path)
        report = run_campaign(campaign, SweepRunner(cache=cache))
        directory = write_report(report, cache)
        return directory / "report.json", load_report, report

    def test_clean_report_round_trips(self, tmp_path):
        path, load_report, report = self._write_report(tmp_path)
        loaded = load_report(path)
        assert loaded.campaign_id == report.campaign_id

    def test_truncations_raise_integrity_error(self, tmp_path):
        path, load_report, _ = self._write_report(tmp_path)
        payload = path.read_text()
        for cut in [0, 10, len(payload) // 2, len(payload) - 3]:
            path.write_text(payload[:cut])
            with pytest.raises(ArtifactIntegrityError):
                load_report(path)

    def test_bit_flips_raise_integrity_error(self, tmp_path):
        path, load_report, report = self._write_report(tmp_path)
        payload = path.read_text()
        flipped = 0
        for position in range(10, len(payload), max(1, len(payload) // 8)):
            mutated = payload[:position] + \
                chr((ord(payload[position]) % 94) + 33) + payload[position + 1:]
            if mutated == payload:
                continue
            path.write_text(mutated)
            try:
                loaded = load_report(path)
            except (ArtifactIntegrityError, ConfigurationError):
                flipped += 1  # detected: digest check or schema rejection
            else:
                # Undetected implies unchanged semantics (e.g. the flip only
                # touched insignificant whitespace).
                assert loaded.campaign_id == report.campaign_id
        assert flipped > 0, "no flip was ever detected -- digest is inert"

    def test_schema_mismatch_still_raises_configuration_error(self, tmp_path):
        path, load_report, _ = self._write_report(tmp_path)
        path.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ConfigurationError, match="schema"):
            load_report(path)


# ---------------------------------------------------------------------------
# RunJournal
# ---------------------------------------------------------------------------

class TestRunJournal:
    def test_emit_read_round_trip(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.emit("sweep_start", points=3)
        journal.emit("point_done", point_id="abc")
        records = journal.read()
        assert [r["event"] for r in records] == ["sweep_start", "point_done"]
        assert all(r["schema"] == JOURNAL_SCHEMA for r in records)
        assert all("ts" in r for r in records)

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.emit("sweep_start", points=1)
        journal.emit("point_done", point_id="abc")
        with open(journal.path, "a") as handle:
            handle.write('{"event": "point_done", "point_id": "tr')
        assert [r["event"] for r in journal.read()] == \
            ["sweep_start", "point_done"]

    def test_disabled_journal_is_inert(self):
        journal = RunJournal(None)
        assert not journal.enabled
        journal.emit("sweep_start")  # must not raise
        assert journal.read() == []

    def test_unwritable_journal_warns_once_then_goes_dead(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        journal = RunJournal(blocker / "impossible" / "run.jsonl")
        with pytest.warns(RuntimeWarning, match="journaling disabled"):
            journal.emit("sweep_start")
        assert not journal.enabled
        journal.emit("point_done")  # silent no-op, no second warning

    def test_replay_counters(self):
        records = [
            {"event": "sweep_start"},
            {"event": "point_running", "point_id": "a"},
            {"event": "point_retried", "point_id": "a"},
            {"event": "pool_restart"},
            {"event": "point_running", "point_id": "a"},
            {"event": "point_done", "point_id": "a"},
            {"event": "point_cached", "point_id": "b"},
            {"event": "point_failed", "point_id": "c"},
        ]
        state = replay(records)
        assert state["points"] == {"a": "done", "b": "cached", "c": "failed"}
        assert state["retries"] == 1
        assert state["failures"] == 1
        assert state["pool_restarts"] == 1
        assert not state["completed"]

    def test_serial_runner_journals_the_run(self, tmp_path):
        spec = crash_spec()
        run = SweepRunner(cache=ResultCache(tmp_path)).run(spec)
        assert run.journal_path is not None
        state = replay(RunJournal(run.journal_path).read())
        assert state["completed"]
        assert set(state["points"]) == {p.point_id for p in spec.points()}


# ---------------------------------------------------------------------------
# Heartbeat events
# ---------------------------------------------------------------------------

class TestHeartbeatEvents:
    def test_point_failed_and_retried_events(self, tmp_path):
        from repro.obs.report import HeartbeatWriter, read_heartbeats

        writer = HeartbeatWriter(tmp_path)
        writer.point_failed("ab" * 32, error="BrokenProcessPool", attempt=1)
        writer.point_retried("ab" * 32, attempt=2, reason="worker crash")
        events = read_heartbeats(tmp_path)
        assert [e["event"] for e in events] == ["point_failed",
                                                "point_retried"]
        assert events[0]["error"] == "BrokenProcessPool"
        assert events[0]["attempt"] == 1
        assert events[1]["attempt"] == 2
        assert events[1]["reason"] == "worker crash"


# ---------------------------------------------------------------------------
# Atomic trace writes (crash-safe JSONL exports)
# ---------------------------------------------------------------------------

class TestAtomicTraceWrite:
    def test_write_trace_leaves_no_temp_on_success(self, tmp_path):
        from repro.trace.io import read_trace, write_trace

        trace = chain_trace(4)
        target = tmp_path / "out" / "trace.jsonl"
        write_trace(trace, target)
        assert len(read_trace(target)) == 4
        assert [p.name for p in target.parent.iterdir()] == ["trace.jsonl"]

    def test_write_trace_gz_round_trips(self, tmp_path):
        from repro.trace.io import read_trace, write_trace

        trace = chain_trace(3)
        target = tmp_path / "trace.jsonl.gz"
        write_trace(trace, target)
        loaded = read_trace(target)
        assert list(loaded) == list(trace)
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl.gz"]
