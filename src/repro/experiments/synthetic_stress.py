"""Design-space stress campaigns over the synthetic task-graph families.

The Table I figures probe the pipeline at nine fixed operating points; the
``synthetic-stress`` campaign (:func:`synthetic_stress_campaign`) uses the
:mod:`repro.workloads.synthetic` generators to sweep the *structural* axes
the paper can only sample, one member each:

* **Operand pressure** (member ``operands``: ``random_dag`` +
  ``workload.extra_inputs``): every added operand costs module-processing
  time in the gateway, ORT lookups and TRS writes, and pushes tasks into
  indirect TRS blocks, so the decode rate (cycles/task) degrades as per-task
  operand count approaches the 19-operand layout limit.
* **Window pressure** (member ``window``: ``pipeline_chain`` +
  ``workload.dep_distance``): the chains are emitted in runs of
  ``dep_distance`` consecutive steps, so dependent tasks sit roughly
  ``dep_distance * width`` apart in the creation stream.  In the regime
  where execution keeps pace with decode, the task window the pipeline
  actually holds (and must hold, to keep the chains concurrent) grows with
  the dependency distance -- the synthetic analogue of the Figure 14/15
  observation that applications with distant parallelism need a larger
  task window.

:func:`stress_series` pivots a member's report onto its swept axis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.sweep.campaign import Campaign, CampaignReport, MemberReport
from repro.sweep.spec import SweepSpec

#: Extra INPUT operands per task swept by the operand-pressure member
#: (base random_dag tasks carry ~3 operands, so the top value nudges the
#: 19-operand TRS layout limit).
OPERAND_PRESSURE_STEPS = (0, 4, 8, 12, 15)

#: Dependency distances (creation-stream run lengths) swept by the
#: window-pressure member.
WINDOW_DEP_DISTANCES = (1, 4, 16, 64)

#: The parameter each member sweeps.
AXES = {"operands": "workload.extra_inputs", "window": "workload.dep_distance"}


def operand_stress_spec(steps: Sequence[int] = OPERAND_PRESSURE_STEPS,
                        num_cores: int = 128, width: int = 16,
                        depth: int = 16) -> SweepSpec:
    """Decode rate vs. per-task operand count on a parallel random DAG.

    The near-zero-cost task generator and a wide dependency horizon keep the
    pipeline itself the bottleneck, so the decode-rate trend isolates the
    per-operand processing cost.
    """
    return SweepSpec(
        name="operands",
        workloads=("random_dag",),
        axes={AXES["operands"]: list(steps)},
        base={"num_cores": num_cores, "fast_generator": True,
              "workload.width": width, "workload.depth": depth,
              "workload.dep_distance": 64, "workload.fanout": 2,
              "workload.runtime_us": 5.0},
    )


def window_stress_spec(dep_distances: Sequence[int] = WINDOW_DEP_DISTANCES,
                       num_cores: int = 32, width: int = 16,
                       depth: int = 96) -> SweepSpec:
    """Task-window occupancy vs. dependency distance on pipeline chains.

    Short tasks and the default (non-fast) task generator put the run in the
    drain-keeps-up regime, where window occupancy tracks the creation-stream
    distance between dependent tasks instead of saturating at the trace
    length.
    """
    return SweepSpec(
        name="window",
        workloads=("pipeline_chain",),
        axes={AXES["window"]: list(dep_distances)},
        base={"num_cores": num_cores,
              "workload.width": width, "workload.depth": depth,
              "workload.fanout": 1, "workload.runtime_us": 1.0,
              "workload.runtime_spread": 0.05},
    )


def synthetic_stress_campaign(seeds: Sequence[int],
                              quick: bool = False) -> Campaign:
    """The ``synthetic-stress`` campaign: members ``operands`` and ``window``.

    ``quick`` shrinks both axes and trace depths so the whole map finishes
    in seconds.
    """
    if quick:
        members = (operand_stress_spec(steps=(0, 6, 12), depth=8),
                   window_stress_spec(dep_distances=(1, 8, 32), depth=48))
    else:
        members = (operand_stress_spec(), window_stress_spec())
    return Campaign(name="synthetic-stress", members=members, seeds=seeds)


def stress_series(member: MemberReport, metric: str) -> Dict[int, float]:
    """Pivot a stress member into ``axis value -> mean metric``, axis order."""
    axis = AXES[member.name]
    return {int(group.params[axis]): group.metrics[metric].mean
            for group in member.groups}


def format_report(report: CampaignReport) -> str:
    """Render a ``synthetic-stress`` report as text tables."""
    operands = report.member("operands")
    decode, peak, speedup = (stress_series(operands, metric) for metric in (
        "decode_rate_cycles", "window_peak_tasks", "speedup"))
    lines: List[str] = [
        "operand pressure: decode rate vs. extra inputs "
        "(random_dag, fast generator)",
        f"{'extra inputs':>14s}{'decode [cyc/task]':>19s}"
        f"{'window peak':>13s}{'speedup':>9s}"]
    lines += [f"{value:>14d}{decode[value]:>19.0f}"
              f"{peak[value]:>13.0f}{speedup[value]:>9.1f}" for value in decode]
    window = report.member("window")
    mean, peak, decode = (stress_series(window, metric) for metric in (
        "window_mean_tasks", "window_peak_tasks", "decode_rate_cycles"))
    lines += [
        "",
        "window pressure: occupancy vs. dependency distance (pipeline_chain)",
        f"{'dep distance':>14s}{'window mean':>13s}"
        f"{'window peak':>13s}{'decode [cyc/task]':>19s}"]
    lines += [f"{value:>14d}{mean[value]:>13.1f}{peak[value]:>13.0f}"
              f"{decode[value]:>19.0f}" for value in mean]
    return "\n".join(lines)
