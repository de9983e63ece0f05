"""Tests for the opt-in observability layer (``repro.obs``).

Pins the four contracts the subsystem is built on:

* **Bit identity** -- attaching an observer (with or without module spans
  or occupancy sampling) never changes a single bit of the simulation
  result; the engine's ``on_advance`` hook is read-only and its wake/clamp
  protocol skips the hook with one integer compare per event.
* **Ring semantics** -- the event ring keeps the newest ``capacity``
  events in chronological order across wrap-around, counts what it
  dropped, and its list buffer stays identity-stable so the observer's
  pre-bound recording closures compose with the wrap path.
* **Analysis** -- on a known 5-task diamond graph, the timeline
  reconstructs complete monotone lifecycles, stall attribution classifies
  the blocked cycles (dependence waits dominate a diamond), and the
  critical path ends at the last task to retire.
* **Round-trips** -- the Chrome trace-event export validates and survives
  JSON serialisation; ``.robs`` files load back equal and corrupt files
  raise ``TraceFormatError``; obs-directory gc honours ``--dry-run``.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.backend.system import TaskSuperscalarSystem
from repro.common.errors import TraceFormatError
from repro.experiments.common import experiment_config, experiment_trace
from repro.obs import (
    EV_DEP_FORWARD,
    EV_MODULE_SERVICE,
    EV_MODULE_STALL,
    EV_OCCUPANCY,
    EV_STALL_SOURCE,
    EV_TASK_ADMITTED,
    EV_TASK_ALLOCATED,
    EV_TASK_CREATED,
    EV_TASK_DECODED,
    EV_TASK_DISPATCHED,
    EV_TASK_FREED,
    EV_TASK_READY,
    EV_TASK_RETIRED,
    EV_TASK_WINDOW_WAIT,
    EventRing,
    ObsConfig,
    Observer,
    Recording,
    decode_task_id,
    encode_task_id,
)
from repro.obs.export import (
    PID_CORES,
    to_trace_events,
    validate_trace_events,
)
from repro.obs.io import (
    OBS_FORMAT_VERSION,
    gc_obs_dir,
    load_recording,
    recording_from_bytes,
    recording_to_bytes,
    save_recording,
)
from repro.obs.report import (
    load_point_summaries,
    point_summary,
    write_point_summary,
)
from repro.obs.timeline import (
    STALL_CATEGORIES,
    build_timeline,
    critical_path,
    stall_attribution,
)
from repro.sim.engine import Engine
from repro.trace.records import Direction, OperandRecord, TaskRecord, TaskTrace


def _noop():
    pass


# -- Event ring ---------------------------------------------------------------


class TestEventRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventRing(0)

    def test_append_below_capacity_keeps_order(self):
        ring = EventRing(8)
        for i in range(5):
            ring.append(i, 1, 0, i, i * 10)
        assert len(ring) == 5
        assert not ring.wrapped
        assert ring.dropped == 0
        assert [event[0] for event in ring.events()] == [0, 1, 2, 3, 4]

    def test_wraparound_keeps_newest_and_counts_dropped(self):
        ring = EventRing(4)
        for i in range(6):
            ring.append(i, 1, 0, i, 0)
        assert len(ring) == 4
        assert ring.wrapped
        assert ring.dropped == 2
        # The oldest two events were overwritten; order stays chronological.
        assert [event[0] for event in ring.events()] == [2, 3, 4, 5]

    @pytest.mark.parametrize("appended, expected", [
        (3, [0, 1, 2]),        # never wrapped: the buffer as it is
        (4, [0, 1, 2, 3]),     # exactly full, still not wrapped
        (6, [2, 3, 4, 5]),     # wrapped mid-buffer: two slices
        (8, [4, 5, 6, 7]),     # wrapped exactly once round: one slice
    ])
    def test_snapshot_copies_events_in_current_order(self, appended,
                                                     expected):
        observer = Observer(ObsConfig(capacity=4))
        for i in range(appended):
            observer.ring.append(i, 1, 0, i, 0)
        events = observer.snapshot().events
        assert [event[0] for event in events] == expected
        # A copy: later appends do not reach the snapshot.
        assert events is not observer.ring._buf
        observer.ring.append(99, 1, 0, 99, 0)
        assert [event[0] for event in events] == expected

    def test_wrapped_events_survive_robs_round_trip(self):
        # Every field of every retained event, in chronological order,
        # survives the .robs columns after the ring wrapped.
        observer = Observer(ObsConfig(capacity=3))
        for i in range(5):
            observer.ring.append(i, i + 1, i + 2, i + 3, i + 4)
        recording = observer.snapshot()
        loaded = recording_from_bytes(recording_to_bytes(recording))
        assert loaded.events == list(observer.ring.events()) == [
            (i, i + 1, i + 2, i + 3, i + 4) for i in (2, 3, 4)]

    def test_prebound_fast_path_composes_with_wrap_path(self):
        # Observer handles prebind ring._buf / ring._buf.append for the
        # bounded fast path and fall back to EventRing.append once full;
        # interleaving the two paths must preserve order and buffer identity.
        ring = EventRing(3)
        buf, append = ring._buf, ring._buf.append
        for i in range(4):
            if len(buf) < ring.capacity:
                append((i, 1, 0, 0, 0))
            else:
                ring.append(i, 1, 0, 0, 0)
        assert buf is ring._buf
        assert ring.dropped == 1
        assert [event[0] for event in ring.events()] == [1, 2, 3]

    def test_task_id_encoding_round_trip(self):
        for trs, slot in ((0, 0), (3, 17), (15, (1 << 32) - 1)):
            assert decode_task_id(encode_task_id(trs, slot)) == (trs, slot)


# -- Observer handles and sampling -------------------------------------------


class TestObserver:
    def test_intern_is_stable(self):
        observer = Observer(ObsConfig())
        first = observer.intern("gateway")
        assert observer.intern("gateway") == first
        assert observer.names[first] == "gateway"

    def test_task_handle_records_and_wraps(self):
        observer = Observer(ObsConfig(capacity=2))
        record = observer.task_handle("gateway")
        mid = observer.intern("gateway")
        record(EV_TASK_CREATED, 5, 0)
        record(EV_TASK_ADMITTED, 6, 0)
        record(EV_TASK_ALLOCATED, 7, 0, 42)  # exercises the wrap fallback
        assert observer.ring.dropped == 1
        assert list(observer.ring.events()) == [
            (6, EV_TASK_ADMITTED, mid, 0, 0),
            (7, EV_TASK_ALLOCATED, mid, 0, 42),
        ]

    def test_advance_hook_requires_probes_and_interval(self):
        silent = Observer(ObsConfig(sample_interval=0))
        silent.add_probe("a", lambda: 1)
        assert silent.advance_hook() is None
        probeless = Observer(ObsConfig())
        assert probeless.advance_hook() is None

    def test_advance_hook_samples_probes_and_returns_wake(self):
        observer = Observer(ObsConfig(sample_interval=16))
        observer.add_probe("a", lambda: 3)
        observer.add_probe("b", lambda: 7)
        hook = observer.advance_hook()
        assert hook(100) == 116
        pid_a, pid_b = observer.intern("a"), observer.intern("b")
        assert list(observer.ring.events()) == [
            (100, EV_OCCUPANCY, pid_a, -1, 3),
            (100, EV_OCCUPANCY, pid_b, -1, 7),
        ]

    def test_add_probe_replaces_callable_but_keeps_id(self):
        observer = Observer(ObsConfig(sample_interval=4))
        observer.add_probe("occ", lambda: 1)
        pid = observer.intern("occ")
        observer.add_probe("occ", lambda: 9)
        hook = observer.advance_hook()
        hook(0)
        assert list(observer.ring.events()) == [(0, EV_OCCUPANCY, pid, -1, 9)]


# -- Engine on_advance protocol ----------------------------------------------


class TestEngineAdvanceHook:
    def test_hook_fires_only_on_strict_advances_past_wake(self):
        engine = Engine()
        calls = []

        def hook(now):
            calls.append(now)
            return now + 3

        engine.on_advance = hook
        for time in (0, 1, 2, 5, 10):
            engine.schedule(time, _noop)
        engine.run()
        # run() normalises the wake to now+1, so the event at time 0 (no
        # strict advance) is skipped; then each firing pushes wake 3 ahead.
        assert calls == [1, 5, 10]

    def test_wake_at_or_below_now_is_clamped_to_next_cycle(self):
        engine = Engine()
        calls = []
        # Returning 0 violates the wake > now contract; the engine clamps it
        # to now+1, so the hook fires once per strictly advancing cycle and
        # never twice within one cycle.
        engine.on_advance = lambda now: calls.append(now) or 0
        for time in (0, 2, 2, 3, 7):
            engine.schedule(time, _noop)
        engine.run()
        assert calls == [2, 3, 7]

    def test_step_honors_wake_and_clamp(self):
        engine = Engine()
        calls = []
        engine.on_advance = lambda now: calls.append(now) or (now + 2)
        for time in (1, 2, 3, 4, 5):
            engine.schedule(time, _noop)
        while engine.step():
            pass
        assert calls == [1, 3, 5]

    def test_hook_never_fires_without_observer(self):
        engine = Engine()
        engine.schedule(5, _noop)
        assert engine.run() == 5  # on_advance is None: nothing to do


# -- Bit identity -------------------------------------------------------------


def _cholesky_result(observer):
    config = experiment_config(num_cores=32)
    trace = experiment_trace("Cholesky", scale_factor=0.25, max_tasks=60)
    return asdict(TaskSuperscalarSystem(config, observer=observer).run(trace))


class TestBitIdentity:
    def test_observer_never_changes_simulation_results(self):
        baseline = _cholesky_result(None)
        for config in (ObsConfig(),
                       ObsConfig(module_spans=True),
                       ObsConfig(sample_interval=0)):
            observer = Observer(config)
            assert _cholesky_result(observer) == baseline, config
            assert len(observer.ring) > 0
            assert observer.ring.dropped == 0


# -- Timeline analysis on a known 5-task diamond ------------------------------


def _diamond_trace() -> TaskTrace:
    """t0 -> (t1, t2) -> t3 -> t4: two parallel arms then a join."""
    addr_a, addr_b, addr_c, addr_d = 0x1000, 0x2000, 0x3000, 0x4000

    def operand(address, direction):
        return OperandRecord(address=address, size=1024, direction=direction)

    tasks = [
        TaskRecord(sequence=0, kernel="k",
                   operands=(operand(addr_a, Direction.OUTPUT),),
                   runtime_cycles=400),
        TaskRecord(sequence=1, kernel="k",
                   operands=(operand(addr_a, Direction.INPUT),
                             operand(addr_b, Direction.OUTPUT)),
                   runtime_cycles=400),
        TaskRecord(sequence=2, kernel="k",
                   operands=(operand(addr_a, Direction.INPUT),
                             operand(addr_c, Direction.OUTPUT)),
                   runtime_cycles=400),
        TaskRecord(sequence=3, kernel="k",
                   operands=(operand(addr_b, Direction.INPUT),
                             operand(addr_c, Direction.INPUT),
                             operand(addr_d, Direction.OUTPUT)),
                   runtime_cycles=400),
        TaskRecord(sequence=4, kernel="k",
                   operands=(operand(addr_d, Direction.INPUT),),
                   runtime_cycles=400),
    ]
    return TaskTrace("diamond5", tasks)


@pytest.fixture(scope="module")
def diamond():
    observer = Observer(ObsConfig(module_spans=True, sample_interval=64))
    system = TaskSuperscalarSystem(experiment_config(num_cores=4),
                                   observer=observer)
    result = system.run(_diamond_trace())
    recording = observer.snapshot(meta={"workload": "diamond5"})
    return result, recording


class TestTimelineAnalysis:
    def test_lifecycles_are_complete_and_monotone(self, diamond):
        _, recording = diamond
        timeline = build_timeline(recording)
        assert sorted(timeline.tasks) == [0, 1, 2, 3, 4]
        for spans in timeline.tasks.values():
            assert spans.complete, spans
            stamps = (spans.created, spans.admitted, spans.allocated,
                      spans.decoded, spans.ready, spans.dispatched,
                      spans.retired, spans.freed)
            assert all(stamp >= 0 for stamp in stamps), spans
            assert list(stamps) == sorted(stamps), spans

    def test_stall_attribution_classifies_the_dependence_waits(self, diamond):
        _, recording = diamond
        attribution = stall_attribution(build_timeline(recording))
        assert set(attribution["totals"]) == set(STALL_CATEGORIES)
        assert attribution["tasks_attributed"] == 5
        assert attribution["tasks_skipped"] == 0
        # The join (t3) and the sink (t4) both wait on producers, so true
        # dependences must show up; every task executes for 400 cycles.
        assert attribution["totals"]["operand_unready"] > 0
        assert attribution["totals"]["execute"] >= 5 * 400
        assert sum(attribution["fractions"].values()) == pytest.approx(1.0)

    def test_critical_path_ends_at_the_last_retired_task(self, diamond):
        _, recording = diamond
        timeline = build_timeline(recording)
        chain = critical_path(timeline)
        assert chain, "empty critical path"
        last = max(timeline.tasks.values(), key=lambda s: (s.retired, s.seq))
        assert chain[-1]["seq"] == last.seq
        # The diamond's spine is t0 -> arm -> t3 -> t4; retire times along
        # the chain are strictly increasing.
        assert len(chain) >= 3
        retires = [step["retired"] for step in chain]
        assert retires == sorted(retires)
        assert len(set(retires)) == len(retires)

    def test_occupancy_probes_were_sampled(self, diamond):
        _, recording = diamond
        sampled = {recording.names[module]
                   for _, kind, module, _, _ in recording.events
                   if kind == EV_OCCUPANCY}
        assert "frontend.window_tasks" in sampled
        # The timeline does not keep the samples, but their cycles still
        # count towards the end of the recording.
        assert build_timeline(recording).end_time == max(
            event[0] for event in recording.events)


def _two_task_recording() -> Recording:
    """A hand-built recording: task 1 reads task 0's output, an ORT stall
    overlaps task 1's allocation wait, and an occupancy sample is last."""
    names = ["gateway", "trs0", "ort0", "frontend.window_tasks",
             "AllocRequest"]
    gateway, trs0, ort0, window, alloc = range(len(names))
    events = [
        (0, EV_OCCUPANCY, window, -1, 0),
        (0, EV_TASK_CREATED, gateway, 0, 0),
        (1, EV_TASK_ADMITTED, gateway, 0, 0),
        (1, EV_TASK_CREATED, gateway, 1, 0),
        (2, EV_TASK_ADMITTED, gateway, 1, 0),
        (2, EV_TASK_WINDOW_WAIT, gateway, 1, 0),
        (3, EV_MODULE_SERVICE, trs0, alloc, 2),
        (3, EV_TASK_ALLOCATED, trs0, 0, encode_task_id(0, 0)),
        (4, EV_STALL_SOURCE, gateway, ort0, 1),
        (4, EV_MODULE_STALL, gateway, -1, 1),
        (5, EV_TASK_DECODED, trs0, 0, 0),
        (5, EV_TASK_READY, trs0, 0, 0),
        (6, EV_TASK_DISPATCHED, gateway, 0, 0),
        (7, EV_STALL_SOURCE, gateway, ort0, 0),
        (7, EV_MODULE_STALL, gateway, -1, 0),
        (8, EV_MODULE_SERVICE, trs0, alloc, 2),
        (8, EV_TASK_ALLOCATED, trs0, 1, encode_task_id(0, 1)),
        (10, EV_TASK_DECODED, trs0, 1, 0),
        (16, EV_OCCUPANCY, window, -1, 2),
        (16, EV_TASK_RETIRED, gateway, 0, 0),
        (17, EV_TASK_FREED, trs0, 0, 0),
        (17, EV_DEP_FORWARD, trs0, encode_task_id(0, 1),
         encode_task_id(0, 0)),
        (17, EV_TASK_READY, trs0, 1, 0),
        (18, EV_TASK_DISPATCHED, gateway, 1, 1),
        (30, EV_TASK_RETIRED, gateway, 1, 1),
        (31, EV_TASK_FREED, trs0, 1, 0),
        (40, EV_OCCUPANCY, window, -1, 0),
    ]
    return Recording(names=names, events=events, dropped=0,
                     meta={"point": "two-task"})


class TestPointSummary:
    def test_summary_of_a_known_recording_is_pinned(self, tmp_path):
        # Per task: admitted->allocated splits into renaming (overlap with
        # the ORT stall [4, 7)) and window; then decode, operand wait, core
        # wait and execution.  Task 0: 0+2, 2, 0, 1, 10; task 1: 3+3, 2, 7,
        # 1, 12.
        totals = {"window_full": 5, "renaming_full": 3, "decode": 4,
                  "operand_unready": 7, "no_free_core": 2, "execute": 22}
        summary = point_summary(_two_task_recording(),
                                params={"workload": "two"},
                                metrics={"makespan_cycles": 30})
        assert summary == {
            "schema": "repro.obs.point/1",
            "events": 27,
            "dropped": 0,
            "tasks": 2,
            "end_time": 40,
            "stalls": {"totals": totals,
                       "fractions": {category: cycles / 43
                                     for category, cycles in totals.items()},
                       "tasks_attributed": 2, "tasks_skipped": 0},
            "critical_path": [
                {"seq": 0, "ready": 5, "dispatched": 6, "retired": 16},
                {"seq": 1, "ready": 17, "dispatched": 18, "retired": 30}],
            "critical_path_length": 2,
            "modules": {"trs0": {"services": 2, "busy_cycles": 4}},
            "params": {"workload": "two"},
            "metrics": {"makespan_cycles": 30},
            "meta": {"point": "two-task"},
        }
        write_point_summary(tmp_path, "two", summary)
        assert load_point_summaries(tmp_path) == {"two": summary}


# -- Perfetto / Chrome trace-event export -------------------------------------


class TestExport:
    def test_export_validates_and_survives_json_round_trip(self, diamond):
        _, recording = diamond
        document = to_trace_events(recording)
        count = validate_trace_events(document)
        assert count == len(document["traceEvents"]) > 0
        rehydrated = json.loads(json.dumps(document))
        assert validate_trace_events(rehydrated) == count
        assert rehydrated["metadata"]["dropped_events"] == 0
        assert rehydrated["metadata"]["workload"] == "diamond5"

    def test_export_emits_task_spans_and_counters(self, diamond):
        _, recording = diamond
        events = to_trace_events(recording)["traceEvents"]
        task_spans = [event for event in events
                      if event["ph"] == "X" and event["pid"] == PID_CORES]
        assert {span["args"]["seq"] for span in task_spans} == {0, 1, 2, 3, 4}
        assert any(event["ph"] == "C" for event in events)

    def test_validator_rejects_malformed_events(self):
        with pytest.raises(ValueError):
            validate_trace_events({"traceEvents": [{"ph": "Z"}]})
        with pytest.raises(ValueError):
            validate_trace_events({"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 1,
                 "ts": -1, "dur": 0}]})
        with pytest.raises(ValueError):
            validate_trace_events({})


# -- .robs persistence and obs-directory gc -----------------------------------


class TestRecordingIO:
    def test_round_trip_preserves_everything(self, diamond, tmp_path):
        _, recording = diamond
        path = save_recording(recording, tmp_path / "point.robs")
        loaded = load_recording(path)
        assert loaded.names == recording.names
        assert loaded.events == recording.events
        assert loaded.dropped == recording.dropped
        assert loaded.meta == recording.meta

    def test_round_trip_preserves_drop_count_after_wrap(self):
        observer = Observer(ObsConfig(capacity=4))
        record = observer.task_handle("m")
        for i in range(7):
            record(EV_TASK_CREATED, i, i)
        recording = observer.snapshot()
        loaded = recording_from_bytes(recording_to_bytes(recording))
        assert loaded.dropped == 3
        assert [event[0] for event in loaded.events] == [3, 4, 5, 6]

    def test_corrupt_files_raise_trace_format_error(self, diamond):
        _, recording = diamond
        good = recording_to_bytes(recording)
        bad_magic = b"JUNK" + good[4:]
        wrong_version = (good[:4]
                         + (OBS_FORMAT_VERSION + 1).to_bytes(4, "little")
                         + good[8:])
        truncated = good[:-8]
        lying_header = good[:8] + (1 << 30).to_bytes(8, "little") + good[16:]
        for raw in (bad_magic, wrong_version, truncated, lying_header, b""):
            with pytest.raises(TraceFormatError):
                recording_from_bytes(raw)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(TraceFormatError):
            load_recording(tmp_path / "absent.robs")


class TestObsDirGc:
    def _populate(self, root):
        known = []
        for subdir, name in (("recordings", "a.robs"),
                             ("points", "b.json"),
                             ("heartbeats", "c.jsonl")):
            directory = root / subdir
            directory.mkdir(parents=True)
            path = directory / name
            path.write_bytes(b"x" * 10)
            known.append(path)
        stranger = root / "recordings" / "README.txt"
        stranger.write_text("not an artifact")
        return known, stranger

    def test_dry_run_reports_without_removing(self, tmp_path):
        known, stranger = self._populate(tmp_path)
        removed, reclaimed = gc_obs_dir(tmp_path, dry_run=True)
        assert sorted(removed) == sorted(known)
        assert reclaimed == 30
        assert all(path.exists() for path in known)
        assert stranger.exists()

    def test_gc_removes_only_known_artifact_kinds(self, tmp_path):
        known, stranger = self._populate(tmp_path)
        removed, reclaimed = gc_obs_dir(tmp_path)
        assert sorted(removed) == sorted(known)
        assert reclaimed == 30
        assert not any(path.exists() for path in known)
        assert stranger.exists()

    def test_gc_of_missing_directory_is_empty(self, tmp_path):
        assert gc_obs_dir(tmp_path / "nowhere") == ([], 0)
