"""Figure 16: speedup vs. core count, hardware pipeline vs. software runtime.

For every benchmark and for 32, 64, 128 and 256 cores, the ``speedup``
campaign (:func:`speedup_campaign`) runs the trace twice -- once through the
task-superscalar pipeline and once through the StarSs-style software
runtime -- and reports the speedup over sequential execution of the same
trace.  :func:`speedup_series` pivots its report into per-benchmark series
plus the average.

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

from typing import Dict, Sequence

from repro.sweep.campaign import Campaign, CampaignReport, MemberReport
from repro.sweep.spec import SweepSpec
from repro.workloads import registry

#: Machine widths swept by Figure 16.
PROCESSOR_COUNTS = (32, 64, 128, 256)

#: cores -> {"hardware": value, "software": value}: one Figure 16 series.
SpeedupSeries = Dict[int, Dict[str, float]]


def scaling_spec(workloads: Sequence[str],
                 processor_counts: Sequence[int] = PROCESSOR_COUNTS,
                 scale_factor: float = 1.0) -> SweepSpec:
    """The Figure 16 grid as a spec: machine widths x both system models."""
    return SweepSpec(
        name="fig16",
        workloads=tuple(workloads),
        axes={
            "num_cores": list(processor_counts),
            "system": ["hardware", "software"],
        },
        base={"scale_factor": scale_factor},
    )


def speedup_campaign(seeds: Sequence[int], quick: bool = False) -> Campaign:
    """The ``speedup`` campaign: member ``fig16`` over the Table I benchmarks.

    ``quick`` shrinks the traces.
    """
    spec = scaling_spec(registry.table1_names(),
                        scale_factor=0.7 if quick else 1.0)
    return Campaign(name="speedup", members=(spec,), seeds=seeds)


def speedup_series(member: MemberReport,
                   metric: str = "speedup") -> Dict[str, SpeedupSeries]:
    """Pivot a Figure 16 member into ``workload -> {cores: {system: mean}}``.

    The last series, ``"Average"``, is the arithmetic mean of the
    workloads' means, summed in workload order.
    """
    series: Dict[str, SpeedupSeries] = {}
    for group in member.groups:
        params = group.params
        by_cores = series.setdefault(str(params["workload"]), {})
        by_cores.setdefault(int(params["num_cores"]), {})[
            str(params["system"])] = group.metrics[metric].mean
    rows = list(series.values())
    series["Average"] = {
        cores: {system: sum(row[cores][system] for row in rows) / len(rows)
                for system in systems}
        for cores, systems in rows[0].items()}
    return series


def format_series(series: Dict[str, SpeedupSeries]) -> str:
    """Render the Figure 16 data as a text table."""
    lines = [f"{'Workload':>10s} {'P':>5s} {'HW speedup':>12s} {'SW speedup':>12s}"]
    for name, by_cores in series.items():
        for cores, speedup in by_cores.items():
            lines.append(f"{name:>10s} {cores:>5d} {speedup['hardware']:>12.1f} "
                         f"{speedup['software']:>12.1f}")
    return "\n".join(lines)


def format_report(report: CampaignReport) -> str:
    """Figure 16 of a ``speedup`` report as a text table."""
    return ("== Figure 16: speedup, task superscalar vs. software runtime ==\n"
            + format_series(speedup_series(report.member("fig16"))))
