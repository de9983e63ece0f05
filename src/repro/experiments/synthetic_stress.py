"""Design-space stress campaigns over the synthetic task-graph families.

The Table I figures probe the pipeline at nine fixed operating points; these
campaigns use the :mod:`repro.workloads.synthetic` generators to sweep the
*structural* axes the paper can only sample:

* **Operand pressure** (``random_dag`` + ``workload.extra_inputs``): every
  added operand costs module-processing time in the gateway, ORT lookups and
  TRS writes, and pushes tasks into indirect TRS blocks, so the decode rate
  (cycles/task) degrades as per-task operand count approaches the 19-operand
  layout limit.
* **Window pressure** (``pipeline_chain`` + ``workload.dep_distance``): the
  chains are emitted in runs of ``dep_distance`` consecutive steps, so
  dependent tasks sit roughly ``dep_distance * width`` apart in the creation
  stream.  In the regime where execution keeps pace with decode, the task
  window the pipeline actually holds (and must hold, to keep the chains
  concurrent) grows with the dependency distance -- the synthetic analogue of
  the Figure 14/15 observation that applications with distant parallelism
  need a larger task window.

Both campaigns run through :mod:`repro.sweep`, so ``runner=`` accepts a
cached :class:`~repro.sweep.runner.SweepRunner` (``jobs > 1`` fans the grid
out) and repeated invocations resume from the artifact directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.sweep.runner import SweepRunner
from repro.sweep.spec import SweepSpec

#: Extra INPUT operands per task swept by the operand-pressure campaign
#: (base random_dag tasks carry ~3 operands, so the top value nudges the
#: 19-operand TRS layout limit).
OPERAND_PRESSURE_STEPS = (0, 4, 8, 12, 15)

#: Dependency distances (creation-stream run lengths) swept by the
#: window-pressure campaign.
WINDOW_DEP_DISTANCES = (1, 4, 16, 64)


@dataclass
class StressPoint:
    """One measured point of a stress campaign."""

    family: str
    axis: str
    value: int
    decode_rate_cycles: float
    window_peak_tasks: int
    window_mean_tasks: float
    speedup: float
    tasks: int


def operand_stress_spec(steps: Sequence[int] = OPERAND_PRESSURE_STEPS,
                        num_cores: int = 128, width: int = 16, depth: int = 16,
                        seed: int = 0) -> SweepSpec:
    """Decode rate vs. per-task operand count on a parallel random DAG.

    The near-zero-cost task generator and a wide dependency horizon keep the
    pipeline itself the bottleneck, so the decode-rate trend isolates the
    per-operand processing cost.
    """
    return SweepSpec(
        name="synthetic-operand-stress",
        workloads=("random_dag",),
        axes={"workload.extra_inputs": list(steps)},
        base={"num_cores": num_cores, "seed": seed, "fast_generator": True,
              "workload.width": width, "workload.depth": depth,
              "workload.dep_distance": 64, "workload.fanout": 2,
              "workload.runtime_us": 5.0},
    )


def window_stress_spec(dep_distances: Sequence[int] = WINDOW_DEP_DISTANCES,
                       num_cores: int = 32, width: int = 16, depth: int = 96,
                       seed: int = 0) -> SweepSpec:
    """Task-window occupancy vs. dependency distance on pipeline chains.

    Short tasks and the default (non-fast) task generator put the run in the
    drain-keeps-up regime, where window occupancy tracks the creation-stream
    distance between dependent tasks instead of saturating at the trace
    length.
    """
    return SweepSpec(
        name="synthetic-window-stress",
        workloads=("pipeline_chain",),
        axes={"workload.dep_distance": list(dep_distances)},
        base={"num_cores": num_cores, "seed": seed,
              "workload.width": width, "workload.depth": depth,
              "workload.fanout": 1, "workload.runtime_us": 1.0,
              "workload.runtime_spread": 0.05},
    )


def _points(spec: SweepSpec, axis: str, runner) -> List[StressPoint]:
    runner = runner if runner is not None else SweepRunner()
    run = runner.run(spec)
    points: List[StressPoint] = []
    for point, result in run:
        params = point.as_dict()
        points.append(StressPoint(
            family=str(params["workload"]),
            axis=axis,
            value=int(params[axis]),
            decode_rate_cycles=result.decode_rate_cycles,
            window_peak_tasks=result.window_peak_tasks,
            window_mean_tasks=result.window_mean_tasks,
            speedup=result.speedup,
            tasks=result.num_tasks,
        ))
    return points


def run_operand_stress(runner=None,
                       steps: Sequence[int] = OPERAND_PRESSURE_STEPS,
                       num_cores: int = 128, width: int = 16, depth: int = 16,
                       seed: int = 0) -> List[StressPoint]:
    """Run the operand-pressure campaign; points in axis order."""
    spec = operand_stress_spec(steps, num_cores=num_cores, width=width,
                               depth=depth, seed=seed)
    return _points(spec, "workload.extra_inputs", runner)


def run_window_stress(runner=None,
                      dep_distances: Sequence[int] = WINDOW_DEP_DISTANCES,
                      num_cores: int = 32, width: int = 16, depth: int = 96,
                      seed: int = 0) -> List[StressPoint]:
    """Run the window-pressure campaign; points in axis order."""
    spec = window_stress_spec(dep_distances, num_cores=num_cores, width=width,
                              depth=depth, seed=seed)
    return _points(spec, "workload.dep_distance", runner)


#: Campaigns run_all knows about.
CAMPAIGNS = ("operands", "window")


def run_all(runner=None, quick: bool = False,
            campaigns: Sequence[str] = CAMPAIGNS) -> Dict[str, List[StressPoint]]:
    """Run the selected campaigns and return them keyed by campaign name.

    ``quick`` shrinks both axes and trace depths so the whole map finishes in
    seconds (the CI smoke setting).
    """
    series: Dict[str, List[StressPoint]] = {}
    for campaign in campaigns:
        if campaign == "operands":
            series[campaign] = (run_operand_stress(runner, steps=(0, 6, 12), depth=8)
                                if quick else run_operand_stress(runner))
        elif campaign == "window":
            series[campaign] = (run_window_stress(runner, dep_distances=(1, 8, 32),
                                                  depth=48)
                                if quick else run_window_stress(runner))
        else:
            raise ValueError(f"unknown campaign {campaign!r}; known: {CAMPAIGNS}")
    return series


def format_report(series: Dict[str, List[StressPoint]]) -> str:
    """Render the stress campaigns as text tables."""
    lines: List[str] = []
    if "operands" in series:
        lines.append("operand pressure: decode rate vs. extra inputs "
                     "(random_dag, fast generator)")
        lines.append(f"{'extra inputs':>14s}{'decode [cyc/task]':>19s}"
                     f"{'window peak':>13s}{'speedup':>9s}")
        for point in series["operands"]:
            lines.append(f"{point.value:>14d}{point.decode_rate_cycles:>19.0f}"
                         f"{point.window_peak_tasks:>13d}{point.speedup:>9.1f}")
    if "window" in series:
        if lines:
            lines.append("")
        lines.append("window pressure: occupancy vs. dependency distance "
                     "(pipeline_chain)")
        lines.append(f"{'dep distance':>14s}{'window mean':>13s}"
                     f"{'window peak':>13s}{'decode [cyc/task]':>19s}")
        for point in series["window"]:
            lines.append(f"{point.value:>14d}{point.window_mean_tasks:>13.1f}"
                         f"{point.window_peak_tasks:>13d}"
                         f"{point.decode_rate_cycles:>19.0f}")
    return "\n".join(lines)
