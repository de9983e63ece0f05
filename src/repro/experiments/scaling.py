"""Figure 16: speedup vs. core count, hardware pipeline vs. software runtime.

For every benchmark and for 32, 64, 128 and 256 cores, the driver runs the
trace twice -- once through the task-superscalar pipeline and once through the
StarSs-style software runtime -- and reports the speedup over sequential
execution of the same trace.

Reproduction targets (shapes, not absolute values):

* the hardware pipeline keeps scaling to 256 cores while the software runtime
  flattens around 32-64 cores for most benchmarks (its ~700 ns serial decode
  bounds its throughput at roughly ``task_runtime / 700 ns`` tasks in flight);
* Knn and H264, whose tasks mostly run for more than 100 us, are the
  exceptions where the software runtime stays competitive up to 128 cores;
* STAP, with 1-2 us tasks, is decode-bound on both systems and shows the
  lowest speedups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.backend.system import SimulationResult, TaskSuperscalarSystem
from repro.experiments.common import experiment_config, experiment_trace
from repro.software.runtime_sim import SoftwareRuntimeSystem
from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec
from repro.trace.records import TaskTrace
from repro.workloads import registry

#: Machine widths swept by Figure 16.
PROCESSOR_COUNTS = (32, 64, 128, 256)


@dataclass
class ScalingPoint:
    """Speedups measured for one benchmark at one machine width."""

    workload: str
    num_cores: int
    hardware_speedup: float
    software_speedup: float
    hardware_decode_ns: float
    software_decode_ns: float
    dataflow_limit: Optional[float] = None


def measure_point(trace: TaskTrace, num_cores: int) -> ScalingPoint:
    """Run one trace on both systems at one machine width."""
    hw_config = experiment_config(num_cores=num_cores)
    hw_result = TaskSuperscalarSystem(hw_config).run(trace)
    sw_config = experiment_config(num_cores=num_cores)
    sw_result = SoftwareRuntimeSystem(sw_config).run(trace)
    return _scaling_point(trace.name, num_cores, hw_result, sw_result)


def _scaling_point(workload: str, num_cores: int, hw_result: SimulationResult,
                   sw_result: SimulationResult) -> ScalingPoint:
    return ScalingPoint(
        workload=workload,
        num_cores=num_cores,
        hardware_speedup=hw_result.speedup,
        software_speedup=sw_result.speedup,
        hardware_decode_ns=hw_result.decode_rate_ns,
        software_decode_ns=sw_result.decode_rate_ns,
    )


def scaling_spec(workloads: Sequence[str],
                 processor_counts: Sequence[int] = PROCESSOR_COUNTS,
                 scale_factor: float = 1.0, seed: int = 0) -> SweepSpec:
    """The Figure 16 grid as a spec: machine widths x both system models."""
    return SweepSpec(
        name="fig16-scaling",
        workloads=tuple(workloads),
        axes={
            "num_cores": list(processor_counts),
            "system": ["hardware", "software"],
        },
        base={"scale_factor": scale_factor, "seed": seed},
    )


def sweep_workload(name: str, processor_counts: Sequence[int] = PROCESSOR_COUNTS,
                   scale_factor: float = 1.0, seed: int = 0,
                   runner=None) -> List[ScalingPoint]:
    """Figure 16 series for one benchmark.

    The spec interleaves (hardware, software) runs per machine width; the
    pairs are zipped back into one :class:`ScalingPoint` per width.
    """
    spec = scaling_spec((name,), processor_counts, scale_factor=scale_factor,
                        seed=seed)
    runner = runner if runner is not None else SweepRunner()
    run = runner.run(spec)
    points: List[ScalingPoint] = []
    for cores in processor_counts:
        hw = run.result_for(workload=name, num_cores=cores, system="hardware")
        sw = run.result_for(workload=name, num_cores=cores, system="software")
        points.append(_scaling_point(name, cores, hw, sw))
    return points


def figure16(workloads: Optional[Iterable[str]] = None,
             processor_counts: Sequence[int] = PROCESSOR_COUNTS,
             scale_factor: float = 1.0,
             include_average: bool = True,
             runner=None) -> Dict[str, List[ScalingPoint]]:
    """Figure 16: all benchmarks plus the average series."""
    if workloads is None:
        workloads = registry.table1_names()
    series = {name: sweep_workload(name, processor_counts, scale_factor=scale_factor,
                                   runner=runner)
              for name in workloads}
    if include_average and series:
        averaged = []
        for index, cores in enumerate(processor_counts):
            hw = [points[index].hardware_speedup for points in series.values()]
            sw = [points[index].software_speedup for points in series.values()]
            averaged.append(ScalingPoint(workload="Average", num_cores=cores,
                                         hardware_speedup=sum(hw) / len(hw),
                                         software_speedup=sum(sw) / len(sw),
                                         hardware_decode_ns=0.0,
                                         software_decode_ns=0.0))
        series["Average"] = averaged
    return series


def format_series(series: Dict[str, List[ScalingPoint]]) -> str:
    """Render the Figure 16 data as a text table."""
    lines = [f"{'Workload':>10s} {'P':>5s} {'HW speedup':>12s} {'SW speedup':>12s}"]
    for name, points in series.items():
        for point in points:
            lines.append(f"{name:>10s} {point.num_cores:>5d} "
                         f"{point.hardware_speedup:>12.1f} {point.software_speedup:>12.1f}")
    return "\n".join(lines)
