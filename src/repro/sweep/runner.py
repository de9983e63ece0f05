"""Execute sweep specs in this process or over a crash-tolerant worker pool.

:func:`simulate_point` is the single entry point that turns one
:class:`repro.sweep.spec.SweepPoint`'s parameters into a
:class:`repro.backend.system.SimulationResult`; :func:`execute_point` wraps
it for pool workers, returning plain data.  Both are module-level functions
taking only plain data, so they pickle cleanly into ``multiprocessing``
workers; every call builds its own engine, frontend and
backend, which is what keeps pool execution bit-identical to in-process
execution -- simulations share no mutable state, and the runner reassembles
results in spec order regardless of completion order.

:class:`SweepRunner` is the one runner.  It consults an optional
:class:`repro.sweep.cache.ResultCache` before simulating, runs each distinct
pending configuration once -- in this process with ``jobs=1``, over a worker
pool otherwise -- and persists each fresh result as soon as it arrives, so
an interrupted sweep resumes from its last completed point.

Trace amortization: when a result cache is configured the runner also pairs
with a :class:`repro.trace.store.TraceStore` (``<artifacts>/traces`` by
default).  In-process runs bake each trace on first use; pool runs bake each
distinct trace once in the parent before fan-out, and workers (and later
runs, and other processes sharing the artifacts directory) load the packed
file by content address instead of regenerating it.  The per-process memo
that backs :func:`trace_for_params` is keyed by the same canonical digest
and holds :data:`TRACE_CACHE_SIZE` traces; a memo miss falls back to the
store, so multi-workload grids never regenerate a trace.

Process settings: :func:`configure_trace_store` and
:func:`configure_observability` set the trace store and telemetry that
:func:`execute_point` uses in this process.  Runners install their store
around in-process runs, the CLI installs ``--obs``/``--obs-dir``, and pool
workers receive both through their initializer.

Fault tolerance: pool runs use a
``concurrent.futures.ProcessPoolExecutor`` and treat a dead worker as a
recoverable event -- completed points are already in the cache, the broken
pool is replaced (with exponential backoff, see
:class:`repro.sweep.resilience.RetryPolicy`), and the in-flight points are
re-dispatched with a bounded per-point retry budget.  A per-point wall-clock
timeout re-dispatches stragglers the same way.  In both modes every
transition is recorded in a crash-safe
:class:`repro.sweep.resilience.RunJournal`, and the deterministic fault
injector (:mod:`repro.sweep.faults`) can crash, slow or corrupt any of it on
demand -- the chaos suite proves recovered runs are bit-identical to clean
ones.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
import warnings
from collections import OrderedDict, deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.backend.system import SimulationResult, TaskSuperscalarSystem
from repro.common.errors import ConfigurationError, SweepExecutionError
from repro.common.hashing import content_digest
from repro.obs.observer import ObsConfig
from repro.sweep.cache import ResultCache, result_from_dict, result_to_dict
from repro.sweep.faults import (CRASH_EXIT_CODE, active_fault_plan,
                                configure_faults)
from repro.sweep.faults import fire as fire_fault
from repro.sweep.resilience import RetryPolicy, RunJournal
from repro.sweep.spec import (OVERRIDE_SECTIONS, WORKLOAD_SECTION, ParamValue,
                              SweepPoint, SweepSpec, canonical_scalar,
                              spec_id_of)
from repro.trace.store import TraceStore, canonical_trace_params

_WORKLOAD_PREFIX = WORKLOAD_SECTION + "."

#: Capacity of the per-process trace memo.
TRACE_CACHE_SIZE = 32


@dataclass(frozen=True)
class ObsSettings:
    """Per-process observability configuration for sweep execution.

    Plain data (it crosses the pool boundary in the worker initializer).
    When active, :func:`execute_point` attaches a
    :class:`repro.obs.Observer` to each hardware simulation, writes a
    per-point telemetry summary to ``<root>/points/<digest>.json``, streams
    heartbeat progress events to ``<root>/heartbeats/`` and -- when
    ``keep_recordings`` is set -- saves the full event recording to
    ``<root>/recordings/<digest>.robs``.
    """

    root: str
    #: Configuration of the observer attached to each point.  Its defaults
    #: leave per-packet service spans off: they are the densest event class,
    #: and lifecycle, stall and occupancy events cover the reports, so
    #: fleet-wide telemetry stays within the bench overhead budget.
    config: ObsConfig = field(default_factory=ObsConfig)
    keep_recordings: bool = False


def build_point_config(params: Dict[str, ParamValue]):
    """Build the :class:`SimulationConfig` for one point's parameters."""
    from dataclasses import replace

    from repro.experiments.common import experiment_config

    config = experiment_config(num_cores=int(params.get("num_cores", 256)),
                               fast_generator=bool(params.get("fast_generator", False)))
    overrides: Dict[str, Dict[str, ParamValue]] = {}
    for name, value in params.items():
        if "." not in name:
            continue
        section, fieldname = name.split(".", 1)
        if section == WORKLOAD_SECTION:
            continue  # generator-constructor parameter, not a config field
        if section not in OVERRIDE_SECTIONS:
            raise ConfigurationError(f"unknown override section in {name!r}")
        overrides.setdefault(section, {})[fieldname] = value
    for section, fields in overrides.items():
        config = replace(config, **{section: replace(getattr(config, section),
                                                     **fields)})
    config.validate()
    return config


def workload_params(params: Dict[str, ParamValue]) -> Dict[str, ParamValue]:
    """Extract the ``workload.<param>`` entries as constructor keyword args."""
    return {name[len(_WORKLOAD_PREFIX):]: value
            for name, value in params.items()
            if name.startswith(_WORKLOAD_PREFIX)}


@dataclass
class TraceStats:
    """Per-process counters of how traces were obtained (see ``snapshot``)."""

    generated: int = 0    #: built by running a workload generator (the slow path)
    packed_hits: int = 0  #: found in the packed trace store
    memo_hits: int = 0    #: answered by the in-process memo

    def snapshot(self) -> "TraceStats":
        return TraceStats(self.generated, self.packed_hits, self.memo_hits)

    def since(self, base: "TraceStats") -> "TraceStats":
        return TraceStats(self.generated - base.generated,
                          self.packed_hits - base.packed_hits,
                          self.memo_hits - base.memo_hits)


#: Process-wide trace accounting (pool workers keep their own copies).
TRACE_STATS = TraceStats()

#: LRU memo of trace objects keyed by their canonical digest -- the *same*
#: content address the trace store files use, so multi-workload grids never
#: collide and the memo never diverges from the on-disk key space.
_TRACE_MEMO: "OrderedDict[str, object]" = OrderedDict()

_TRACE_STORE: Optional[TraceStore] = None

#: ``(store_root, digest)`` pairs known to be present on disk, so memo hits
#: ensure the active store is populated without re-reading its header every
#: time (a store configured after the memo warmed up still gets baked).
_STORE_SEEN: set = set()

_OBS_SETTINGS: Optional[ObsSettings] = None


def trace_cache_clear() -> None:
    """Drop the per-process trace memo (tests; memory pressure)."""
    _TRACE_MEMO.clear()
    _STORE_SEEN.clear()


def configure_trace_store(store: Union[TraceStore, str, None, bool],
                          ) -> Optional[TraceStore]:
    """Set the trace store :func:`execute_point` uses in this process.

    A path is shorthand for ``TraceStore(path)``; ``None`` or ``False``
    means no store.  Returns the previous store so callers can restore it.
    """
    global _TRACE_STORE
    previous = _TRACE_STORE
    if isinstance(store, (str, os.PathLike)):
        store = TraceStore(store)
    _TRACE_STORE = None if store is False else store
    return previous


def active_trace_store() -> Optional[TraceStore]:
    """The trace store :func:`execute_point` will consult, if any."""
    return _TRACE_STORE


def configure_observability(settings: Union[ObsSettings, str, None, bool],
                            ) -> Optional[ObsSettings]:
    """Set this process's sweep observability (mirrors the trace-store API).

    A path is shorthand for ``ObsSettings(root=...)`` with defaults;
    ``None`` or ``False`` turns telemetry off.  Returns the previous
    settings so callers can restore them.
    """
    global _OBS_SETTINGS
    previous = _OBS_SETTINGS
    if isinstance(settings, (str, os.PathLike)):
        settings = ObsSettings(root=str(settings))
    _OBS_SETTINGS = None if settings is False else settings
    return previous


def active_obs_settings() -> Optional[ObsSettings]:
    """The observability settings :func:`execute_point` will honour, if any."""
    return _OBS_SETTINGS


def trace_key_for_params(params: Dict[str, ParamValue],
                         ) -> Tuple[Dict[str, ParamValue], str]:
    """The canonical trace key and digest for one point's parameters.

    Every site that names a trace -- the per-process memo, the parent-side
    pre-bake, the bake CLI and the trace bench -- derives its key through
    this one helper, so the parent can never bake under a different digest
    than the one workers look up.  Scalars are canonicalised the same way
    :meth:`SweepSpec.points` canonicalises point parameters
    (:func:`repro.sweep.spec.canonical_scalar`), so a standalone
    ``execute_point`` caller passing ``seed="3"`` or
    ``workload.width="16"`` names the same trace as a spec-driven sweep.
    """
    max_tasks = canonical_scalar(params.get("max_tasks"))
    key_params = canonical_trace_params(
        str(params["workload"]),
        scale_factor=float(canonical_scalar(params.get("scale_factor", 1.0))),
        seed=int(canonical_scalar(params.get("seed", 0))),
        max_tasks=None if max_tasks is None else int(max_tasks),
        workload_kwargs={name: canonical_scalar(value)
                         for name, value in workload_params(params).items()})
    return key_params, content_digest(key_params)


def generate_trace_for_key(key_params: Dict[str, ParamValue]):
    """Run the workload generator named by a canonical trace key."""
    from repro.experiments.common import experiment_trace

    return experiment_trace(
        key_params["workload"], scale_factor=key_params["scale_factor"],
        seed=key_params["seed"], max_tasks=key_params["max_tasks"])


def trace_for_params(params: Dict[str, ParamValue]):
    """Resolve the trace for one point's parameters (memo -> store -> generate).

    The memo and the store share one canonical key
    (:func:`repro.trace.store.trace_digest` of the normalised workload spec),
    so a grid touching many (workload, seed, scale) tuples is served
    correctly at any memo size, and every process that misses its memo loads
    the packed baked trace instead of regenerating.  Replayed packed traces
    are bit-identical to generated ones (pinned by the determinism suite).
    """
    key_params, digest = trace_key_for_params(params)
    store = active_trace_store()
    trace = _TRACE_MEMO.get(digest)
    if trace is not None:
        _TRACE_MEMO.move_to_end(digest)
        TRACE_STATS.memo_hits += 1
        if store is not None:
            _ensure_stored(store, digest, key_params, trace)
        return trace

    if store is not None:
        trace, baked = store.get_or_bake(
            key_params, lambda: generate_trace_for_key(key_params))
        _STORE_SEEN.add((str(store.root), digest))
        if baked:
            TRACE_STATS.generated += 1
        else:
            TRACE_STATS.packed_hits += 1
    else:
        trace = generate_trace_for_key(key_params)
        TRACE_STATS.generated += 1
    _TRACE_MEMO[digest] = trace
    while len(_TRACE_MEMO) > TRACE_CACHE_SIZE:
        _TRACE_MEMO.popitem(last=False)
    return trace


def _ensure_stored(store: TraceStore, digest: str,
                   key_params: Dict[str, ParamValue], trace) -> None:
    """Back-fill the active store from a memoized trace.

    A store configured *after* the per-process memo warmed up (e.g. a second
    campaign in the same process pointed at a fresh artifacts dir) would
    otherwise never receive the trace while the run still reported it as
    'reused' -- leaving later fleets to regenerate.  The ``_STORE_SEEN`` memo
    keeps this to one ``contains`` header-read per (store, digest).
    """
    key = (str(store.root), digest)
    if key in _STORE_SEEN:
        return
    if not store.contains(digest):
        store.put(digest, trace, params=key_params)
    _STORE_SEEN.add(key)


def execute_point(point_params: Dict[str, ParamValue]) -> Dict:
    """Simulate one sweep point and return the result as plain JSON data.

    Takes and returns plain dicts (not dataclasses) so the function can cross
    process boundaries regardless of the multiprocessing start method.
    """
    return result_to_dict(simulate_point(point_params))


def simulate_point(point_params: Dict[str, ParamValue]) -> SimulationResult:
    """Simulate one sweep point (with telemetry when configured).

    The in-process runner calls this directly, so a result is serialised
    once, by the cache that stores it; :func:`execute_point` is the same
    call for pool workers and other callers that need plain data.
    """
    params = dict(point_params)
    config = build_point_config(params)
    trace = trace_for_params(params)
    system_kind = params.get("system", "hardware")
    obs = active_obs_settings()
    observer = heartbeats = digest = None
    if obs is not None and system_kind == "hardware":
        # Telemetry is hardware-frontend instrumentation; software-runtime
        # points run unobserved (their results are unaffected either way).
        from repro.obs import Observer
        from repro.obs.report import HeartbeatWriter

        digest = content_digest(params)
        observer = Observer(obs.config)
        heartbeats = HeartbeatWriter(obs.root)
        observer.heartbeat = heartbeats.progress_hook(digest)
        heartbeats.emit("point_start", point=digest,
                        workload=str(params.get("workload", "")))
    try:
        if system_kind == "hardware":
            result = TaskSuperscalarSystem(config, observer=observer).run(
                trace, validate=bool(params.get("validate", False)))
        elif system_kind == "software":
            from repro.software.runtime_sim import SoftwareRuntimeSystem

            result = SoftwareRuntimeSystem(config).run(
                trace, validate=bool(params.get("validate", False)))
        else:  # pragma: no cover - SweepSpec.validate rejects this earlier
            raise ConfigurationError(f"unknown system {system_kind!r}")
    except Exception as exc:
        if heartbeats is not None:
            heartbeats.point_failed(digest, error=repr(exc))
        raise
    if observer is not None:
        # Telemetry is best-effort by contract: a full disk or an unwritable
        # obs dir must never take down the simulation whose result is already
        # in hand.
        try:
            _write_point_telemetry(obs, digest, params, observer, result)
            heartbeats.emit("point_done", point=digest,
                            makespan_cycles=result.makespan_cycles,
                            tasks=result.tasks_completed)
        except OSError as exc:
            warnings.warn(
                f"telemetry write failed for point {digest[:12]} ({exc}); "
                "the simulation result is unaffected", RuntimeWarning,
                stacklevel=2)
    return result


def _write_point_telemetry(obs: ObsSettings, digest: str,
                           params: Dict[str, ParamValue], observer,
                           result: SimulationResult) -> None:
    """Persist one observed point's telemetry artifacts under ``obs.root``."""
    from repro.obs.io import save_recording
    from repro.obs.report import point_summary, write_point_summary

    fault = fire_fault("obs_fail")
    if fault is not None:
        raise OSError(f"injected obs write failure ({fault.describe()})")

    recording = observer.snapshot(meta={"point": digest})
    summary = point_summary(
        recording, params=params,
        metrics={"makespan_cycles": result.makespan_cycles,
                 "speedup": result.speedup,
                 "decode_rate_cycles": result.decode_rate_cycles})
    write_point_summary(obs.root, digest, summary)
    if obs.keep_recordings:
        save_recording(recording,
                       Path(obs.root) / "recordings" / f"{digest}.robs")


def _execute_chunk(payloads: List[Tuple[int, Dict[str, ParamValue]]],
                   ) -> List[Tuple[int, Dict]]:
    """Worker entry point: execute one dispatched chunk of indexed points.

    This is also where the process-fatal fault injections live
    (:mod:`repro.sweep.faults`): ``worker_crash`` kills this worker before
    the target point simulates -- exactly the failure mode a preempted
    container or an OOM kill produces -- and ``slow_point`` turns the target
    point into a straggler for the per-point timeout.  Both target the
    point's spec index, so injected runs are deterministic.
    """
    out: List[Tuple[int, Dict]] = []
    for index, params in payloads:
        if fire_fault("worker_crash", point=index) is not None:
            os._exit(CRASH_EXIT_CODE)
        fault = fire_fault("slow_point", point=index)
        if fault is not None:
            time.sleep(fault.seconds)
        out.append((index, execute_point(params)))
    return out


@dataclass
class SweepRun:
    """The outcome of running one spec: results in spec point order."""

    spec: SweepSpec
    points: List[SweepPoint]
    #: Content address of ``points`` (:func:`spec_id_of`; the manifest key).
    spec_id: str
    results: List[SimulationResult]
    computed_count: int
    cached_count: int
    #: Parent-side trace accounting: the :data:`TRACE_STATS` delta over the
    #: run.  In-process runs count per lookup -- every trace the run
    #: generated (cold bakes, or plain generation when no store is
    #: configured).  Pool runs count per distinct trace the parent bakes
    #: before fan-out -- with a store, workers never regenerate, so 0 means
    #: every needed trace was already baked.  A *store-less* pool run
    #: regenerates inside the workers, which the parent cannot observe; both
    #: counters stay 0 there.
    trace_generated: int = 0
    #: Traces answered without regeneration (packed-store hits + memo hits),
    #: counted parent-side under the same caveat as ``trace_generated``.
    trace_reused: int = 0
    #: Points re-dispatched after a worker crash or a per-point timeout.
    retried_points: int = 0
    #: Times the worker pool was torn down and replaced mid-run.
    pool_restarts: int = 0
    #: Corrupt artifacts (cache entries, packed traces) quarantined during
    #: this run, parent-side.  Workers quarantine independently; their events
    #: surface as warnings, not in this counter.
    corrupt_artifacts: int = 0
    #: Where the quarantined artifacts went (for the post-mortem).
    quarantined_paths: List[str] = field(default_factory=list)
    #: The run journal recording this run's transitions, when journaling on.
    journal_path: Optional[str] = None

    def __iter__(self):
        return iter(zip(self.points, self.results))

    def summary(self) -> str:
        """One-line human-readable outcome."""
        return (f"{self.spec.name}: {len(self.points)} points "
                f"({self.cached_count} cached, {self.computed_count} computed)")

    def trace_summary(self) -> str:
        """One-line trace-amortization outcome (the store's scoreboard)."""
        return (f"traces: {self.trace_generated} regenerated, "
                f"{self.trace_reused} reused")

    def resilience_summary(self) -> Optional[str]:
        """One-line recovery outcome, or ``None`` when the run was clean.

        Kept off the main :meth:`summary` line so the long-standing
        ``"N cached, M computed"`` contract (and the CI greps pinned to it)
        is untouched by a clean run.
        """
        if not (self.retried_points or self.pool_restarts
                or self.corrupt_artifacts):
            return None
        return (f"resilience: {self.retried_points} point(s) retried, "
                f"{self.pool_restarts} pool restart(s), "
                f"{self.corrupt_artifacts} corrupt artifact(s) quarantined")


ProgressCallback = Callable[[SweepPoint, SimulationResult, bool], None]


def resolve_trace_store(trace_store: Union[TraceStore, str, None, bool],
                        cache: Optional[ResultCache]) -> Optional[TraceStore]:
    """Pick a runner's trace store.

    ``None`` derives the conventional store from the result cache
    (``<artifacts>/traces``) so any cached sweep amortises trace generation
    by default; ``False`` disables the store; a path or :class:`TraceStore`
    is used as given.  Cache-less (``--no-cache``) runs write nothing.
    """
    if trace_store is False:
        return None
    if isinstance(trace_store, TraceStore):
        return trace_store
    if isinstance(trace_store, (str, os.PathLike)):
        return TraceStore(trace_store)
    if cache is not None:
        return TraceStore.for_cache(cache)
    return None


def _use_trace_store(setting: Union[TraceStore, None, bool],
                     ) -> Callable[[], object]:
    """Apply a runner's trace-store setting to this process; return the undo.

    A :class:`TraceStore` is installed and ``False`` disables the store.
    ``None`` -- a store-less runner that was not told to disable one --
    leaves the process's configuration alone, so a store set by
    :func:`configure_trace_store` stays in effect rather than being silently
    cleared.
    """
    if setting is None:
        return lambda: None
    previous = configure_trace_store(setting)
    return lambda: configure_trace_store(previous)


def _integrity_snapshot(cache: Optional[ResultCache],
                        store: Optional[TraceStore]) -> Tuple[int, int]:
    """Parent-side corrupt-artifact counters before a run (for the delta)."""
    return (getattr(cache, "corrupt", 0) if cache is not None else 0,
            getattr(store, "corrupt", 0) if store is not None else 0)


def _integrity_since(base: Tuple[int, int], cache: Optional[ResultCache],
                     store: Optional[TraceStore]) -> Tuple[int, List[str]]:
    """Corrupt-artifact count and quarantine paths accrued since ``base``."""
    cache_now, store_now = _integrity_snapshot(cache, store)
    paths: List[str] = []
    if cache is not None and cache_now > base[0]:
        paths.extend(str(p) for p in cache.quarantined[-(cache_now - base[0]):])
    if store is not None and store_now > base[1]:
        paths.extend(str(p) for p in store.quarantined[-(store_now - base[1]):])
    return (cache_now - base[0]) + (store_now - base[1]), paths


def _point_failure(journal: RunJournal, points: List[SweepPoint],
                   attempt: int, exc: Exception) -> SweepExecutionError:
    """Journal points that raised and build the error naming them.

    A raising point is a deterministic application error: retrying would
    fail identically, so the sweep fails now -- but with the point context a
    bare traceback lacks.  Callers raise the result ``from exc``.
    """
    for point in points:
        journal.emit("point_failed", point_id=point.point_id,
                     attempt=attempt, reason=repr(exc))
    labels = ", ".join(point.label() for point in points[:5])
    return SweepExecutionError(
        f"sweep point(s) {labels} raised {type(exc).__name__}: {exc}")


def adaptive_chunksize(num_pending: int, num_workers: int) -> int:
    """Pool chunk size for a batch of ``num_pending`` uncached points.

    Fanning out one point per pool task is ideal for long simulations but
    pays one round of pickling/dispatch overhead per point, which dominates
    on large grids of cheap points.  Batching to roughly four chunks per
    worker amortises that overhead while keeping the pool load-balanced;
    the cap keeps any single chunk from serialising too much work behind
    one slow point.
    """
    return max(1, min(32, num_pending // (num_workers * 4)))


def _bake_traces(store: TraceStore,
                 points: List[Dict[str, ParamValue]]) -> None:
    """Bake each distinct trace of ``points`` (params) once, before fan-out.

    With ``W`` workers and no store, every worker regenerates every trace
    it touches (up to ``W`` regenerations per trace).  Baking in the parent
    makes generation a one-time cost: workers find the packed file by
    content address and load it with a bulk ``frombytes``.  Each distinct
    trace counts into :data:`TRACE_STATS` -- ``generated`` when baked here,
    ``packed_hits`` when already in the store.

    The bake loop is deliberately serial: it guarantees exactly-once
    generation at the cost of startup latency proportional to the number
    of *cold* distinct traces.  (Letting workers bake on demand would
    overlap generation with simulation but admits up to ``W`` redundant
    generations per trace -- the cost this subsystem exists to remove.
    Warm traces are skipped via ``contains``, so the latency is paid only
    on the first campaign to touch a trace.)
    """
    seen: set = set()
    for params in points:
        key_params, digest = trace_key_for_params(params)
        if digest in seen:
            continue
        seen.add(digest)
        if store.contains(digest):
            TRACE_STATS.packed_hits += 1
            continue
        _, baked = store.get_or_bake(
            key_params, lambda kp=key_params: generate_trace_for_key(kp))
        if baked:
            TRACE_STATS.generated += 1
        else:  # pragma: no cover - benign race with a concurrent baker
            TRACE_STATS.packed_hits += 1


def _dispose_executor(executor: concurrent.futures.ProcessPoolExecutor,
                      kill: bool = False) -> None:
    """Tear a pool down without waiting on work that will never finish.

    ``kill=True`` terminates the worker processes first -- the straggler
    path, where a hung point would otherwise block shutdown forever.
    The ``_processes`` map is CPython implementation detail, hence the
    defensive ``getattr``; losing the kill merely leaves an orphan worker
    to finish a result nobody collects.
    """
    if kill:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except (OSError, AttributeError):  # pragma: no cover - racing exit
                pass
    executor.shutdown(wait=False, cancel_futures=True)


#: A dispatched pool work item: its ``(spec index, params)`` payloads and
#: the attempt number the chunk is on.
_WorkItem = Tuple[Tuple[Tuple[int, Dict[str, ParamValue]], ...], int]


class SweepRunner:
    """Run a spec's points in this process (``jobs=1``) or over a pool.

    Cached points are answered from the artifact directory, and each
    distinct pending configuration is simulated once: grids whose axes
    repeat a parameter set (e.g. clamped capacity points) share the result.
    Fresh results are written to the cache as they arrive, so killing a
    sweep midway loses at most the points still in flight.  Results come
    back in spec point order, bit-identical for every ``jobs``.

    With ``jobs == 1`` the points run in this process, in spec order, with
    the runner's trace store installed around the loop.  With more jobs
    they fan out over a crash-tolerant process pool (at most one chunk per
    worker in flight; see :func:`adaptive_chunksize`).  A dead worker (OOM
    kill, container preemption, an injected ``worker_crash``) does not lose
    the sweep: the broken pool is replaced after an exponential backoff,
    and every in-flight point is re-dispatched as its own single-point task
    with a bounded per-point retry budget (:class:`RetryPolicy`).  With
    ``point_timeout_seconds`` set, a chunk that exceeds its wall-clock
    deadline is treated the same way: the pool is torn down (terminating
    the straggler) and the timed-out points retried while innocent
    in-flight points are re-dispatched without spending their retry budget.

    In both modes a point that *raises* is not retried -- a deterministic
    error would fail identically -- but journaled as ``point_failed`` and
    re-raised as :class:`SweepExecutionError` naming the point, chained to
    the original exception.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 trace_store: Union[TraceStore, str, None, bool] = None,
                 retry: Optional[RetryPolicy] = None):
        if jobs < 1:
            raise ConfigurationError(f"jobs must be positive, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.trace_store = resolve_trace_store(trace_store, cache)
        #: What this runner asks of each simulating process's trace store
        #: (see :func:`_use_trace_store`).
        self._store_setting = (False if trace_store is False
                               else self.trace_store)
        self.retry = retry if retry is not None else RetryPolicy()

    def run(self, spec: SweepSpec,
            progress: Optional[ProgressCallback] = None) -> SweepRun:
        """Execute ``spec`` and return its :class:`SweepRun`."""
        points = spec.points()
        spec_id = spec_id_of(points)
        results: List[Optional[SimulationResult]] = [None] * len(points)
        stats_base = TRACE_STATS.snapshot()
        integrity_base = _integrity_snapshot(self.cache, self.trace_store)
        journal = RunJournal.for_root(
            None if self.cache is None else self.cache.root, spec_id)
        journal.emit("sweep_start", spec=spec.name, points=len(points),
                     workers=self.jobs)
        # Every spec index each pending configuration serves, by point_id.
        pending: Dict[str, List[int]] = {}
        for index, point in enumerate(points):
            if point.point_id in pending:
                pending[point.point_id].append(index)
                continue
            result = self.cache.get(point) if self.cache is not None else None
            if result is None:
                pending[point.point_id] = [index]
                continue
            results[index] = result
            journal.emit("point_cached", point_id=point.point_id)
            if progress is not None:
                progress(point, result, True)

        def record(first: int, result: SimulationResult) -> None:
            """Cache, journal and report one fresh result (by first index)."""
            point = points[first]
            if self.cache is not None:
                self.cache.put(point, result)
            journal.emit("point_done", point_id=point.point_id)
            for index in pending[point.point_id]:
                results[index] = result
                if progress is not None:
                    progress(points[index], result, index != first)

        retried = restarts = 0
        if pending and self.jobs == 1:
            self._run_in_process(points, pending, journal, record)
        elif pending:
            retried, restarts = self._run_pool(points, pending, journal,
                                               record)

        _require_complete(points, results)
        if self.cache is not None:
            self.cache.write_manifest(spec_id, spec.name, points)
        stats = TRACE_STATS.since(stats_base)
        corrupt, quarantined = _integrity_since(integrity_base, self.cache,
                                                self.trace_store)
        computed = len(pending)
        cached = len(points) - computed
        journal.emit("sweep_done", computed=computed, cached=cached,
                     retried=retried, pool_restarts=restarts,
                     corrupt_artifacts=corrupt)
        return SweepRun(spec=spec, points=points, spec_id=spec_id,
                        results=list(results),
                        computed_count=computed, cached_count=cached,
                        trace_generated=stats.generated,
                        trace_reused=stats.packed_hits + stats.memo_hits,
                        retried_points=retried, pool_restarts=restarts,
                        corrupt_artifacts=corrupt,
                        quarantined_paths=quarantined,
                        journal_path=(str(journal.path)
                                      if journal.enabled else None))

    def _run_in_process(self, points: List[SweepPoint],
                        pending: Dict[str, List[int]], journal: RunJournal,
                        record: Callable[[int, SimulationResult], None],
                        ) -> None:
        """Simulate every pending configuration here, in spec order."""
        restore = _use_trace_store(self._store_setting)
        try:
            for indexes in pending.values():
                point = points[indexes[0]]
                journal.emit("point_running", point_id=point.point_id,
                             attempt=0)
                try:
                    result = simulate_point(point.as_dict())
                except Exception as exc:
                    raise _point_failure(journal, [point], 0, exc) from exc
                record(indexes[0], result)
        finally:
            restore()

    # -- The crash-tolerant pool -------------------------------------------

    def _run_pool(self, points: List[SweepPoint],
                  pending: Dict[str, List[int]], journal: RunJournal,
                  record: Callable[[int, SimulationResult], None],
                  ) -> Tuple[int, int]:
        """Dispatch every pending point, surviving crashes and stragglers.

        Returns ``(retried_points, pool_restarts)``.  With a trace store the
        parent first bakes every trace the points need (:func:`_bake_traces`).
        The loop keeps a queue of (chunk, attempt) work items and at most
        ``workers`` chunks in flight; a chunk that dies with its worker is
        requeued as single-point items with its attempt count bumped, so one
        bad point can exhaust its own retry budget without dragging
        chunk-mates down with it.
        """
        retry = self.retry
        payloads = [(indexes[0], points[indexes[0]].as_dict())
                    for indexes in pending.values()]
        if self.trace_store is not None:
            _bake_traces(self.trace_store, [params for _, params in payloads])
        workers = min(self.jobs, len(payloads))
        chunk = adaptive_chunksize(len(payloads), workers)
        queue: Deque[_WorkItem] = deque(
            (tuple(payloads[start:start + chunk]), 0)
            for start in range(0, len(payloads), chunk))

        heartbeats = None
        obs = active_obs_settings()
        if obs is not None:
            from repro.obs.report import HeartbeatWriter
            heartbeats = HeartbeatWriter(obs.root)
        plan = active_fault_plan()
        initargs = (self._store_setting, obs,
                    None if plan is None else (plan.spec, plan.state_dir))

        def new_pool() -> concurrent.futures.ProcessPoolExecutor:
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init,
                initargs=initargs)

        retried = restarts = 0
        executor = new_pool()

        def replace_pool(reason: str, kill: bool = False) -> None:
            """Dispose the pool, journal the restart, back off, start anew.

            A straggler kill (``kill=True``) skips the backoff: the pool
            itself was healthy.
            """
            nonlocal executor, restarts
            _dispose_executor(executor, kill=kill)
            journal.emit("pool_restart", restart=restarts + 1, reason=reason)
            delay = 0.0 if kill else retry.backoff_delay(restarts)
            restarts += 1
            if delay > 0:
                time.sleep(delay)
            executor = new_pool()

        def collect(future: concurrent.futures.Future,
                    item: _WorkItem) -> bool:
            """Record a finished chunk; ``False`` when its worker died."""
            try:
                chunk_results = future.result()
            except BrokenProcessPool:
                return False
            except Exception as exc:
                raise _point_failure(
                    journal, [points[index] for index, _ in item[0]],
                    item[1], exc) from exc
            for first, data in chunk_results:
                record(first, result_from_dict(data))
            return True

        in_flight: Dict[concurrent.futures.Future,
                        Tuple[_WorkItem, Optional[float]]] = {}
        try:
            while queue or in_flight:
                while queue and len(in_flight) < workers:
                    item = queue.popleft()
                    try:
                        future = executor.submit(_execute_chunk, list(item[0]))
                    except BrokenProcessPool:
                        # The pool broke between waits (e.g. an idle worker
                        # died).  Push the work back; if nothing is in flight
                        # the wait loop can never discover the break, so
                        # replace the pool here.
                        queue.appendleft(item)
                        if in_flight:
                            break
                        replace_pool("broken pool")
                        continue
                    deadline = (None if retry.point_timeout_seconds is None
                                else time.monotonic()
                                + retry.point_timeout_seconds)
                    in_flight[future] = (item, deadline)
                    for index, _ in item[0]:
                        journal.emit("point_running",
                                     point_id=points[index].point_id,
                                     attempt=item[1])
                timeout = None
                if retry.point_timeout_seconds is not None:
                    timeout = max(0.0, min(deadline for _, deadline
                                           in in_flight.values())
                                  - time.monotonic())
                done, _ = concurrent.futures.wait(
                    in_flight, timeout=timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED)

                victims: List[_WorkItem] = []
                for future in done:
                    item, _ = in_flight.pop(future)
                    if not collect(future, item):
                        victims.append(item)
                if victims:
                    # The pool is gone: every other in-flight chunk died with
                    # it.  Chunks that already delivered results were
                    # recorded above; the rest go back on the queue with
                    # their attempt count bumped (the crash could have been
                    # any of them).
                    victims += [item for item, _ in in_flight.values()]
                    in_flight.clear()
                    retried += self._requeue(
                        victims, queue, points, journal, heartbeats,
                        reason="worker process died (broken pool)")
                    replace_pool("broken pool")
                    continue

                now = time.monotonic()
                if not any(deadline is not None and now >= deadline
                           for _, deadline in in_flight.values()):
                    continue
                # At least one chunk blew its wall-clock deadline.  Collect
                # whatever finished in the meantime and requeue the rest --
                # expired chunks spend retry budget, innocent bystanders are
                # re-dispatched for free -- then kill the pool, the only
                # reliable way to stop a stuck worker.
                expired: List[_WorkItem] = []
                innocent: List[_WorkItem] = []
                for future, (item, deadline) in in_flight.items():
                    if future.done() and collect(future, item):
                        continue
                    (expired if now >= deadline else innocent).append(item)
                in_flight.clear()
                retried += self._requeue(
                    expired, queue, points, journal, heartbeats,
                    reason=(f"point exceeded its "
                            f"{retry.point_timeout_seconds:g}s wall-clock "
                            f"timeout"))
                queue.extend(innocent)
                replace_pool("straggler timeout", kill=True)
        finally:
            _dispose_executor(executor)
        return retried, restarts

    def _requeue(self, victims: List[_WorkItem], queue: Deque[_WorkItem],
                 points: List[SweepPoint], journal: RunJournal, heartbeats,
                 reason: str) -> int:
        """Requeue crashed/timed-out chunks as single-point retry items.

        Raises :class:`SweepExecutionError` with full point context the
        moment any victim exhausts its retry budget -- including the
        ``max_retries=0`` case, where the first crash fails the sweep but
        still names the point instead of surfacing a bare
        ``BrokenProcessPool``.  Returns the number of point retries queued.
        """
        retries = 0
        for chunk_payloads, attempt in victims:
            for index, params in chunk_payloads:
                point = points[index]
                next_attempt = attempt + 1
                if next_attempt > self.retry.max_retries:
                    journal.emit("point_failed", point_id=point.point_id,
                                 attempt=attempt, reason=reason)
                    if heartbeats is not None:
                        heartbeats.point_failed(content_digest(params),
                                                error=reason, attempt=attempt)
                    raise SweepExecutionError(
                        f"sweep point {point.label()} "
                        f"(point_id {point.point_id[:12]}) failed after "
                        f"{next_attempt} dispatch(es): {reason}; "
                        f"params: {params}")
                journal.emit("point_retried", point_id=point.point_id,
                             attempt=next_attempt, reason=reason)
                if heartbeats is not None:
                    heartbeats.point_retried(content_digest(params),
                                             attempt=next_attempt)
                queue.append((((index, params),), next_attempt))
                retries += 1
        return retries


def _worker_init(store_setting: Union[TraceStore, None, bool],
                 obs_settings: Optional[ObsSettings] = None,
                 fault_args: Optional[Tuple[str, Optional[str]]] = None) -> None:
    """Pool initializer: hand the parent's trace store, obs and faults over.

    ``store_setting`` is the runner's :func:`_use_trace_store` setting, so a
    disabled store (``False``) overrides any store a forked worker inherited
    from its parent.  ``fault_args`` is the parent's ``(spec, state_dir)``
    fault plan, reconstructed here so spawned workers inject the same faults
    as forked ones (the shared state dir keeps firing once-only across the
    whole fleet and across pool restarts).
    """
    _use_trace_store(store_setting)
    if obs_settings is not None:
        configure_observability(obs_settings)
    if fault_args is not None:
        from repro.sweep.faults import FaultPlan
        spec, state_dir = fault_args
        configure_faults(FaultPlan(spec, state_dir=state_dir))


def _require_complete(points: List[SweepPoint],
                      results: List[Optional[SimulationResult]]) -> None:
    """Raise if any point ended the run without a result.

    A shorter-than-spec result list would silently misalign downstream
    zip(points, results) consumers, so missing results are a hard error.
    """
    missing = [point for point, result in zip(points, results) if result is None]
    if missing:
        labels = ", ".join(point.label() for point in missing[:5])
        suffix = ", ..." if len(missing) > 5 else ""
        raise SweepExecutionError(
            f"{len(missing)} of {len(points)} sweep points produced no result "
            f"({labels}{suffix}); the worker pool returned fewer results than "
            "points")


def default_runner(jobs: int = 1, cache: Optional[ResultCache] = None,
                   trace_store: Union[TraceStore, str, None, bool] = None,
                   retry: Optional[RetryPolicy] = None) -> SweepRunner:
    """The runner for a ``--jobs`` CLI value (below 1 runs in-process)."""
    return SweepRunner(jobs=max(1, jobs), cache=cache,
                       trace_store=trace_store, retry=retry)
