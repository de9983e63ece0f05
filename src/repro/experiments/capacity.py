"""Figures 14 and 15: speedup vs. ORT / TRS storage capacity.

Figure 14 sweeps the total ORT capacity from 16 KB to 1 MB and Figure 15
sweeps the total TRS capacity from 128 KB to 8 MB, measuring the speedup over
sequential execution on a 256-core backend for Cholesky, H264 and the average
over all benchmarks.  Larger capacities sustain a larger task window and
therefore uncover more parallelism, until either the application's
parallelism or the task-generating thread saturates.

The Python traces are smaller than the paper's (thousands rather than tens of
thousands of tasks), so the capacity axes are scaled down by
``CAPACITY_SCALE`` to keep the knee of each curve inside the swept range; the
*shape* -- speedup rising with capacity and flattening once the window is
large enough, with H264 needing a larger window than Cholesky -- is the
reproduction target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.backend.system import SimulationResult
from repro.common.units import KB, MB
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec
from repro.workloads import registry

#: Capacity points of Figure 14 (total ORT bytes) and Figure 15 (total TRS bytes).
ORT_CAPACITY_POINTS = (16 * KB, 32 * KB, 64 * KB, 128 * KB, 256 * KB, 512 * KB, 1 * MB)
TRS_CAPACITY_POINTS = (128 * KB, 256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB, 6 * MB, 8 * MB)

#: The experiment traces hold a few thousand tasks instead of the paper's
#: tens of thousands, so the same storage covers a proportionally larger part
#: of each application; the sweep divides the capacity axis by this factor to
#: keep the saturation knee visible.
CAPACITY_SCALE = 8


@dataclass
class CapacityPoint:
    """Speedup measured at one capacity setting."""

    workload: str
    capacity_bytes: int
    speedup: float
    window_peak_tasks: int
    decode_rate_cycles: float


def _capacity_overrides(ort_bytes: Optional[int],
                        trs_bytes: Optional[int]) -> Dict[str, int]:
    """Frontend overrides for one nominal capacity point (scaled down)."""
    overrides: Dict[str, int] = {}
    if ort_bytes is not None:
        scaled = max(4 * KB, ort_bytes // CAPACITY_SCALE)
        overrides["frontend.total_ort_capacity_bytes"] = scaled
        overrides["frontend.total_ovt_capacity_bytes"] = scaled
    if trs_bytes is not None:
        scaled = max(16 * KB, trs_bytes // CAPACITY_SCALE)
        overrides["frontend.total_trs_capacity_bytes"] = scaled
    return overrides


def capacity_spec(workloads: Sequence[str], axis: str,
                  capacities: Sequence[int], num_cores: int = 256,
                  scale_factor: float = 1.0, seed: int = 0) -> SweepSpec:
    """The Figure 14 (``axis="ort"``) / 15 (``axis="trs"``) grid as a spec.

    Each capacity point is a linked axis value because one nominal capacity
    sets several (scaled) frontend fields at once.
    """
    if axis not in ("ort", "trs"):
        raise ValueError(f"axis must be 'ort' or 'trs', got {axis!r}")
    values = [_capacity_overrides(ort_bytes=c if axis == "ort" else None,
                                  trs_bytes=c if axis == "trs" else None)
              for c in capacities]
    return SweepSpec(
        name=f"{axis}-capacity",
        workloads=tuple(workloads),
        axes={"capacity": values},
        base={"num_cores": num_cores, "scale_factor": scale_factor, "seed": seed},
    )


def _capacity_point(workload: str, capacity: int,
                    result: SimulationResult) -> CapacityPoint:
    return CapacityPoint(workload=workload, capacity_bytes=capacity,
                         speedup=result.speedup,
                         window_peak_tasks=result.window_peak_tasks,
                         decode_rate_cycles=result.decode_rate_cycles)


def _sweep_capacity(name: str, axis: str, capacities: Sequence[int],
                    num_cores: int, scale_factor: float, seed: int,
                    runner) -> List[CapacityPoint]:
    spec = capacity_spec((name,), axis, capacities, num_cores=num_cores,
                         scale_factor=scale_factor, seed=seed)
    runner = runner if runner is not None else SweepRunner()
    run = runner.run(spec)
    return [_capacity_point(point.workload, capacity, result)
            for capacity, (point, result) in zip(capacities, run)]


def sweep_ort_capacity(name: str, capacities: Sequence[int] = ORT_CAPACITY_POINTS,
                       num_cores: int = 256, scale_factor: float = 1.0,
                       seed: int = 0, runner=None) -> List[CapacityPoint]:
    """Figure 14 sweep for one workload."""
    return _sweep_capacity(name, "ort", capacities, num_cores, scale_factor,
                           seed, runner)


def sweep_trs_capacity(name: str, capacities: Sequence[int] = TRS_CAPACITY_POINTS,
                       num_cores: int = 256, scale_factor: float = 1.0,
                       seed: int = 0, runner=None) -> List[CapacityPoint]:
    """Figure 15 sweep for one workload."""
    return _sweep_capacity(name, "trs", capacities, num_cores, scale_factor,
                           seed, runner)


def _average_series(per_workload: Dict[str, List[CapacityPoint]]) -> List[CapacityPoint]:
    capacities = [point.capacity_bytes for point in next(iter(per_workload.values()))]
    averaged = []
    for index, capacity in enumerate(capacities):
        speedups = [points[index].speedup for points in per_workload.values()]
        peaks = [points[index].window_peak_tasks for points in per_workload.values()]
        averaged.append(CapacityPoint(workload="Average", capacity_bytes=capacity,
                                      speedup=sum(speedups) / len(speedups),
                                      window_peak_tasks=int(sum(peaks) / len(peaks)),
                                      decode_rate_cycles=0.0))
    return averaged


def figure14(workloads: Iterable[str] = ("Cholesky", "H264"),
             include_average: bool = False,
             capacities: Sequence[int] = ORT_CAPACITY_POINTS,
             num_cores: int = 256,
             scale_factor: float = 1.0,
             runner=None) -> Dict[str, List[CapacityPoint]]:
    """Figure 14: speedup vs. total ORT capacity.

    ``include_average`` adds the all-benchmark average series (expensive: it
    simulates every workload at every capacity point).
    """
    names = list(workloads)
    if include_average:
        names = registry.table1_names()
    series = {name: sweep_ort_capacity(name, capacities, num_cores, scale_factor,
                                       runner=runner)
              for name in names}
    result = {name: series[name] for name in workloads if name in series}
    if include_average:
        result["Average"] = _average_series(series)
    return result


def figure15(workloads: Iterable[str] = ("Cholesky", "H264"),
             include_average: bool = False,
             capacities: Sequence[int] = TRS_CAPACITY_POINTS,
             num_cores: int = 256,
             scale_factor: float = 1.0,
             runner=None) -> Dict[str, List[CapacityPoint]]:
    """Figure 15: speedup vs. total TRS capacity."""
    names = list(workloads)
    if include_average:
        names = registry.table1_names()
    series = {name: sweep_trs_capacity(name, capacities, num_cores, scale_factor,
                                       runner=runner)
              for name in names}
    result = {name: series[name] for name in workloads if name in series}
    if include_average:
        result["Average"] = _average_series(series)
    return result


def format_series(series: Dict[str, List[CapacityPoint]], axis_label: str) -> str:
    """Render capacity sweeps as a text table: rows = capacity, columns = workload."""
    names = list(series)
    capacities = [point.capacity_bytes for point in series[names[0]]]
    header = f"{axis_label:>12s}" + "".join(f"{name:>12s}" for name in names)
    lines = [header]
    for index, capacity in enumerate(capacities):
        label = f"{capacity // KB} KB" if capacity < MB else f"{capacity // MB} MB"
        row = f"{label:>12s}"
        for name in names:
            row += f"{series[name][index].speedup:>12.1f}"
        lines.append(row)
    return "\n".join(lines)
