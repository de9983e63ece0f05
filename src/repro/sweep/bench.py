"""Host-side checks the repository benchmark does not make (``repro bench``).

The simulator's throughput -- events and decoded tasks per host second,
same-host pre/post pairs and the per-layer ledger behind them -- is measured
by the repository benchmark, ``python3 perfbench/run.py`` (declared in
``BENCHMARK.json``).  This module keeps the two checks that benchmark does
not make:

* ``obs-overhead`` -- the telemetry budget.  :func:`run_scenario_pair` times
  each pinned :data:`SUITE` scenario obs-off and obs-on in strict
  alternation, and the suite fails when the geomean off/on speed ratio
  (:func:`overhead_geomean`) falls below ``1 - OBS_OVERHEAD_BUDGET``, and
* ``trace`` -- packed trace-store load against cold generation
  (:func:`run_trace_bench`).

Typical use::

    python -m repro bench obs-overhead --quick --repeat 7
    python -m repro bench trace --quick --min-speedup 5
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.backend.system import TaskSuperscalarSystem
from repro.common.errors import ReproError
from repro.sweep.runner import (build_point_config, generate_trace_for_key,
                                trace_key_for_params)

SCHEMA = "repro.bench/1"

#: Largest fraction by which telemetry may slow the pinned suite: the
#: obs-overhead gate fails when the geomean off/on speed ratio is below
#: ``1 - OBS_OVERHEAD_BUDGET``.
OBS_OVERHEAD_BUDGET = 0.05


class BenchError(ReproError):
    """Raised for impossible bench arguments (bad repeat, unknown scenario)."""


@dataclass(frozen=True)
class BenchScenario:
    """One pinned point of the bench suite.

    ``params`` uses the sweep parameter language (``workload``, ``num_cores``,
    ``scale_factor``, ``max_tasks``, ``fast_generator``, dotted config
    overrides, ``workload.<knob>`` generator arguments), so every scenario is
    reproducible through :mod:`repro.sweep` as well.  ``quick_overrides`` are
    applied on top for ``--quick`` runs, shrinking the trace while keeping the
    configuration shape.
    """

    name: str
    description: str
    params: Dict[str, object]
    quick_overrides: Dict[str, object] = field(default_factory=dict)

    def effective_params(self, quick: bool = False) -> Dict[str, object]:
        """The parameter dict for a run (quick overrides applied if asked)."""
        merged = dict(self.params)
        if quick:
            merged.update(self.quick_overrides)
        return merged


#: The pinned suite.  Table 1 operating points exercise the real benchmark
#: traces at the paper's default pipeline (8 TRS / 2 ORT / 2 OVT); the
#: synthetic shapes stress the two axes the paper's design-space section
#: cares about (operand pressure and creation-stream dependency distance).
SUITE: List[BenchScenario] = [
    BenchScenario(
        name="cholesky",
        description="Table 1 Cholesky through the default Table II pipeline",
        params={"workload": "Cholesky", "num_cores": 128, "scale_factor": 1.0,
                "max_tasks": 2000, "seed": 0},
        quick_overrides={"scale_factor": 0.4, "max_tasks": 300},
    ),
    BenchScenario(
        name="h264",
        description="Table 1 H264 (deep dependency chains, inout traffic)",
        params={"workload": "H264", "num_cores": 128, "scale_factor": 1.0,
                "max_tasks": 1500, "seed": 0},
        quick_overrides={"scale_factor": 0.5, "max_tasks": 250},
    ),
    BenchScenario(
        name="matmul_decode",
        description="Table 1 MatMul with the fast generator (decode-rate shape)",
        params={"workload": "MatMul", "num_cores": 256, "scale_factor": 1.0,
                "fast_generator": True, "max_tasks": 1500, "seed": 0},
        quick_overrides={"scale_factor": 0.4, "max_tasks": 250},
    ),
    BenchScenario(
        name="operand_pressure",
        description="random_dag with 8 extra inputs per task (ORT/OVT stress)",
        params={"workload": "random_dag", "num_cores": 64, "seed": 0,
                "fast_generator": True, "workload.width": 24,
                "workload.depth": 48, "workload.extra_inputs": 8},
        quick_overrides={"workload.depth": 10},
    ),
    BenchScenario(
        name="window_pressure",
        description="pipeline_chain with dependency distance 64 (window stress)",
        params={"workload": "pipeline_chain", "num_cores": 64, "seed": 0,
                "fast_generator": True, "workload.width": 16,
                "workload.depth": 64, "workload.dep_distance": 64},
        quick_overrides={"workload.depth": 16},
    ),
]


def _metrics(result, events: int) -> Dict[str, int]:
    """The simulated work of one run (deterministic for a given code)."""
    return {
        "num_tasks": result.num_tasks,
        "tasks_decoded": result.tasks_decoded,
        "events": events,
        "makespan_cycles": result.makespan_cycles,
    }


# -- Telemetry overhead ------------------------------------------------------


@dataclass(frozen=True)
class PairedRun:
    """One scenario timed obs-off and obs-on in strict alternation."""

    name: str
    #: Simulated work of each side; observers never change it.
    metrics_off: Dict[str, int]
    metrics_on: Dict[str, int]
    #: Fastest wall time of each side, in seconds.
    off_seconds: float
    on_seconds: float
    #: obs-off/obs-on speed: 1 / the median over rounds of the on/off wall
    #: ratio (below 1 means telemetry slows the run).
    speed_ratio: float


def run_scenario_pair(scenario: BenchScenario, quick: bool = False,
                      repeat: int = 1) -> PairedRun:
    """Time one scenario obs-off and obs-on in strict alternation.

    Comparing two independently timed suite runs confounds telemetry
    overhead with host drift (frequency scaling and co-tenant load easily
    move wall time by more than the overhead under test).  This function
    interleaves the two configurations run-by-run inside one process --
    every obs-on run executes adjacent to an obs-off run of the same
    scenario -- so each round yields an on/off wall ratio in which host
    drift cancels.  The **median of those per-round ratios** is the
    overhead statistic: a ratio of two best-of-N minima is itself an order
    statistic of the noise floor and flaps around a few-percent threshold,
    while the median ratio discards outlier rounds entirely.  Each timed
    region runs with the cyclic garbage collector paused after a collect
    (the standard ``timeit`` hygiene): whether a collection lands inside a
    run is allocator scheduling, not the cost under test, and one stray
    collection otherwise skews a ratio of two ~50ms measurements.
    """
    if repeat < 1:
        raise BenchError(f"repeat must be >= 1, got {repeat}")
    import gc
    import statistics

    from repro.obs import ObsConfig, Observer

    params = scenario.effective_params(quick)
    config = build_point_config(params)
    trace = generate_trace_for_key(trace_key_for_params(params)[0])
    walls: Dict[bool, List[float]] = {False: [], True: []}
    metrics: Dict[bool, Dict[str, int]] = {}
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(repeat):
            for with_obs in (False, True):
                observer = Observer(ObsConfig()) if with_obs else None
                system = TaskSuperscalarSystem(config, observer=observer)
                gc.collect()
                gc.disable()
                start = time.perf_counter()
                result = system.run(trace)
                wall = time.perf_counter() - start
                if gc_was_enabled:
                    gc.enable()
                metrics[with_obs] = _metrics(
                    result, system.engine.events_processed)
                walls[with_obs].append(wall)
    finally:
        if gc_was_enabled:
            gc.enable()
    overhead = statistics.median(
        on / max(off, 1e-9) for off, on in zip(walls[False], walls[True]))
    return PairedRun(name=scenario.name, metrics_off=metrics[False],
                     metrics_on=metrics[True], off_seconds=min(walls[False]),
                     on_seconds=min(walls[True]), speed_ratio=1.0 / overhead)


def overhead_geomean(runs: Sequence[PairedRun]) -> float:
    """The gated statistic: the geomean of the runs' speed ratios.

    The budget applies to the suite, not to each scenario: per-scenario
    ratios carry a few percent of timer noise each, and the geomean
    averages it down by roughly the square root of the scenario count.
    """
    return math.prod(run.speed_ratio for run in runs) ** (1.0 / len(runs))


# -- Trace-load bench --------------------------------------------------------

#: The workload used by :func:`run_trace_bench`: a large synthetic trace whose
#: generation cost is dominated by Python object construction -- exactly what
#: the packed store amortises.
TRACE_BENCH_SCENARIO = BenchScenario(
    name="trace_load",
    description="packed trace-store load vs cold generation (large random_dag)",
    params={"workload": "random_dag", "seed": 0, "workload.width": 48,
            "workload.depth": 320, "workload.extra_inputs": 6},
    quick_overrides={"workload.depth": 48},
)


def _trace_metrics(trace) -> Dict[str, object]:
    """Deterministic content fingerprint of a trace (load-vs-generate check)."""
    return {
        "num_tasks": len(trace),
        "total_runtime_cycles": trace.total_runtime_cycles,
        "operand_entries": sum(task.num_operands for task in trace),
        "max_operands": trace.max_operands(),
        "kernels": sorted({task.kernel for task in trace}),
    }


def run_trace_bench(quick: bool = False, repeat: int = 3,
                    store_root: Optional[str] = None) -> Dict[str, object]:
    """Measure packed trace *load* against cold generation.

    Generates :data:`TRACE_BENCH_SCENARIO`'s workload cold (timed), bakes it
    into a trace store, then times loading the packed file back (best of
    ``repeat``).  The two paths must describe bit-identical work, so the
    entry carries one ``metrics`` block per path plus ``metrics_match``; the
    ``speedup`` is ``cold_generate_seconds / packed_load_seconds``.
    """
    import tempfile

    from repro.trace.packed import pack_trace
    from repro.trace.store import TraceStore

    if repeat < 1:
        raise BenchError(f"repeat must be >= 1, got {repeat}")
    params = TRACE_BENCH_SCENARIO.effective_params(quick)
    key_params, digest = trace_key_for_params(params)

    start = time.perf_counter()
    trace = generate_trace_for_key(key_params)
    cold_seconds = time.perf_counter() - start

    temp_dir = None
    if store_root is None:
        temp_dir = tempfile.TemporaryDirectory(prefix="repro-trace-bench-")
        store_root = temp_dir.name
    try:
        store = TraceStore(store_root)
        start = time.perf_counter()
        packed = pack_trace(trace)
        store.put(digest, packed, params=key_params)
        bake_seconds = time.perf_counter() - start
        entry_bytes = store.path_for(digest).stat().st_size

        best_load = None
        loaded = None
        for _ in range(repeat):
            start = time.perf_counter()
            loaded = store.get(digest)
            load_seconds = time.perf_counter() - start
            if best_load is None or load_seconds < best_load:
                best_load = load_seconds
        if loaded is None:
            raise BenchError("trace store lost the freshly baked entry")
        cold_metrics = _trace_metrics(trace)
        packed_metrics = _trace_metrics(loaded)
    finally:
        if temp_dir is not None:
            temp_dir.cleanup()

    load = max(best_load, 1e-9)
    return {
        "schema": SCHEMA,
        "name": TRACE_BENCH_SCENARIO.name,
        "description": TRACE_BENCH_SCENARIO.description,
        "quick": bool(quick),
        "params": {key: params[key] for key in sorted(params)},
        "digest": digest,
        "metrics": cold_metrics,
        "packed_metrics": packed_metrics,
        "metrics_match": cold_metrics == packed_metrics,
        "timing": {
            "cold_generate_seconds": cold_seconds,
            "bake_seconds": bake_seconds,
            "packed_load_seconds": load,
            "speedup": cold_seconds / load,
            "entry_bytes": entry_bytes,
        },
    }


def format_trace_bench(entry: Dict[str, object]) -> str:
    """Human-readable rendering of one :func:`run_trace_bench` entry."""
    timing = entry["timing"]
    metrics = entry["metrics"]
    lines = [
        f"trace bench '{entry['name']}'"
        f"{' (quick)' if entry.get('quick') else ''}: "
        f"{metrics['num_tasks']} tasks, {metrics['operand_entries']} operands",
        f"  cold generation : {timing['cold_generate_seconds'] * 1e3:9.1f} ms",
        f"  pack + bake     : {timing['bake_seconds'] * 1e3:9.1f} ms "
        f"({timing['entry_bytes']} bytes on disk)",
        f"  packed load     : {timing['packed_load_seconds'] * 1e3:9.1f} ms",
        f"  load speedup    : {timing['speedup']:9.1f}x vs cold generation",
        f"  metrics match   : {entry['metrics_match']}",
    ]
    return "\n".join(lines)


def write_report(report: Dict[str, object], path: str) -> str:
    """Atomically write ``report`` to ``path`` (tmp + rename) and return it."""
    from repro.common.fileio import atomic_write_text

    atomic_write_text(path, json.dumps(report, indent=1, sort_keys=True) + "\n")
    return path
