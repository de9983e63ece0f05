"""Figures 12 and 13: task decode rate vs. pipeline parallelism.

The experiments sweep the number of TRSs (1-64) and ORTs/OVTs (1, 2, 4, 8)
and measure the average time between two successive additions to the task
graph.  Figure 12 plots the sweep for Cholesky (few operands per task) and
H264 (many operands per task); Figure 13 plots the average over all nine
benchmarks and compares it against the decode-rate limits for 128 and 256
processors.

To measure what the *pipeline* can sustain, the task-generating thread uses a
near-zero creation cost (see
:func:`repro.experiments.common.fast_generator_config`) and the backend has
enough cores that execution never back-pressures the frontend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.backend.system import SimulationResult
from repro.common.units import cycles_to_ns
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec
from repro.workloads import registry

#: Sweep axes used by the paper.
TRS_COUNTS = (1, 2, 4, 8, 16, 32, 64)
ORT_COUNTS = (1, 2, 4, 8)

#: Rate limits drawn as horizontal lines in Figure 13 (in cycles at 3.2 GHz,
#: from the 15 us average shortest task: 58 ns -> ~186 cycles for 256 cores,
#: 117 ns -> ~373 cycles for 128 cores).
RATE_LIMIT_256P_CYCLES = 186
RATE_LIMIT_128P_CYCLES = 373


@dataclass
class DecodeRatePoint:
    """Decode rate measured for one (workload, #TRS, #ORT) configuration."""

    workload: str
    num_trs: int
    num_ort: int
    decode_rate_cycles: float
    decode_rate_ns: float
    tasks_decoded: int


def _decode_point(workload: str, num_trs: int, num_ort: int,
                  result: SimulationResult) -> DecodeRatePoint:
    return DecodeRatePoint(
        workload=workload,
        num_trs=num_trs,
        num_ort=num_ort,
        decode_rate_cycles=result.decode_rate_cycles,
        decode_rate_ns=result.decode_rate_ns,
        tasks_decoded=result.tasks_decoded,
    )


def decode_rate_spec(workloads: Sequence[str],
                     trs_counts: Sequence[int] = TRS_COUNTS,
                     ort_counts: Sequence[int] = ORT_COUNTS,
                     scale_factor: float = 1.0, max_tasks: Optional[int] = 600,
                     num_cores: int = 256) -> SweepSpec:
    """The Figure 12/13 parameter grid as a declarative :class:`SweepSpec`.

    ORT and OVT counts are linked (each OVT pairs with one ORT, Section IV),
    so they form one axis; the axis order (#ORT outer, #TRS inner) matches
    the paper's figure layout and the pre-sweep nested loops.
    """
    return SweepSpec(
        name="decode-rate",
        workloads=tuple(workloads),
        axes={
            "ort": [{"frontend.num_ort": n, "frontend.num_ovt": n}
                    for n in ort_counts],
            "frontend.num_trs": list(trs_counts),
        },
        base={"num_cores": num_cores, "scale_factor": scale_factor,
              "max_tasks": max_tasks, "fast_generator": True},
    )


def sweep_workload(name: str, trs_counts: Sequence[int] = TRS_COUNTS,
                   ort_counts: Sequence[int] = ORT_COUNTS,
                   scale_factor: float = 1.0, max_tasks: Optional[int] = 600,
                   num_cores: int = 256, runner=None) -> List[DecodeRatePoint]:
    """Figure 12 sweep for one workload.

    ``runner`` is a :class:`~repro.sweep.runner.SweepRunner`; the default
    is an uncached in-process one.  Pass one with ``jobs > 1`` (optionally
    with a :class:`~repro.sweep.cache.ResultCache`) to fan the grid out.
    """
    spec = decode_rate_spec((name,), trs_counts, ort_counts,
                            scale_factor=scale_factor, max_tasks=max_tasks,
                            num_cores=num_cores)
    runner = runner if runner is not None else SweepRunner()
    run = runner.run(spec)
    return [_decode_point(point.workload,
                          point.as_dict()["frontend.num_trs"],
                          point.as_dict()["frontend.num_ort"], result)
            for point, result in run]


def figure12(workloads: Iterable[str] = ("Cholesky", "H264"),
             trs_counts: Sequence[int] = TRS_COUNTS,
             ort_counts: Sequence[int] = ORT_COUNTS,
             scale_factor: float = 1.0, max_tasks: Optional[int] = 600,
             runner=None) -> Dict[str, List[DecodeRatePoint]]:
    """Figure 12: decode-rate sweeps for Cholesky and H264."""
    return {name: sweep_workload(name, trs_counts, ort_counts,
                                 scale_factor=scale_factor, max_tasks=max_tasks,
                                 runner=runner)
            for name in workloads}


def figure13(trs_counts: Sequence[int] = TRS_COUNTS,
             ort_counts: Sequence[int] = ORT_COUNTS,
             workloads: Optional[Iterable[str]] = None,
             scale_factor: float = 1.0,
             max_tasks: Optional[int] = 400,
             runner=None) -> List[DecodeRatePoint]:
    """Figure 13: decode rate averaged over the benchmark set.

    Returns one :class:`DecodeRatePoint` per (#TRS, #ORT) pair whose
    ``decode_rate_cycles`` is the arithmetic mean over the workloads (the
    workload field is ``"Average"``).
    """
    if workloads is None:
        workloads = registry.table1_names()
    per_workload = {name: sweep_workload(name, trs_counts, ort_counts,
                                         scale_factor=scale_factor, max_tasks=max_tasks,
                                         runner=runner)
                    for name in workloads}
    averaged: List[DecodeRatePoint] = []
    for num_ort in ort_counts:
        for num_trs in trs_counts:
            rates = []
            for name, points in per_workload.items():
                match = next(p for p in points
                             if p.num_trs == num_trs and p.num_ort == num_ort)
                rates.append(match.decode_rate_cycles)
            mean_cycles = sum(rates) / len(rates)
            averaged.append(DecodeRatePoint(workload="Average", num_trs=num_trs,
                                            num_ort=num_ort,
                                            decode_rate_cycles=mean_cycles,
                                            decode_rate_ns=cycles_to_ns(mean_cycles),
                                            tasks_decoded=0))
    return averaged


def format_series(points: List[DecodeRatePoint]) -> str:
    """Render a sweep as a text table: rows = #TRS, columns = #ORT."""
    trs_values = sorted({p.num_trs for p in points})
    ort_values = sorted({p.num_ort for p in points})
    title = points[0].workload if points else "decode rate"
    header = f"{title}: decode rate [cycles/task]"
    columns = "".join(f"{f'{o} ORT':>12s}" for o in ort_values)
    lines = [header, f"{'#TRS':>6s}{columns}"]
    by_key = {(p.num_trs, p.num_ort): p for p in points}
    for trs in trs_values:
        row = f"{trs:>6d}"
        for ort in ort_values:
            point = by_key.get((trs, ort))
            row += f"{point.decode_rate_cycles:>12.0f}" if point else f"{'-':>12s}"
        lines.append(row)
    lines.append(f"(rate limits: 128p = {RATE_LIMIT_128P_CYCLES} cycles, "
                 f"256p = {RATE_LIMIT_256P_CYCLES} cycles)")
    return "\n".join(lines)
