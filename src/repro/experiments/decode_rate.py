"""Figures 12 and 13: task decode rate vs. pipeline parallelism.

The experiments sweep the number of TRSs (1-64) and ORTs/OVTs (1, 2, 4, 8)
and measure the average time between two successive additions to the task
graph.  Figure 12 plots the sweep for Cholesky (few operands per task) and
H264 (many operands per task); Figure 13 plots the average over all nine
benchmarks and compares it against the decode-rate limits for 128 and 256
processors.

Both figures are members of the ``decode-rate`` campaign
(:func:`decode_rate_campaign`): ``fig12`` sweeps Cholesky and H264, ``fig13``
the nine Table I benchmarks.  :func:`decode_rate_series` pivots a member's
report into one table per workload plus the cross-workload average.

To measure what the *pipeline* can sustain, the task-generating thread uses a
near-zero creation cost (see
:func:`repro.experiments.common.fast_generator_config`) and the backend has
enough cores that execution never back-pressures the frontend.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.sweep.campaign import Campaign, CampaignReport, MemberReport
from repro.sweep.spec import SweepSpec
from repro.workloads import registry

#: Sweep axes used by the paper.
TRS_COUNTS = (1, 2, 4, 8, 16, 32, 64)
ORT_COUNTS = (1, 2, 4, 8)

#: Reduced axes of the quick grid (1-16 TRSs capture the shape).
QUICK_TRS_COUNTS = (1, 2, 4, 8, 16)
QUICK_ORT_COUNTS = (1, 2, 4)

#: Rate limits drawn as horizontal lines in Figure 13 (in cycles at 3.2 GHz,
#: from the 15 us average shortest task: 58 ns -> ~186 cycles for 256 cores,
#: 117 ns -> ~373 cycles for 128 cores).
RATE_LIMIT_256P_CYCLES = 186
RATE_LIMIT_128P_CYCLES = 373

#: (#TRS, #ORT) -> value: one decode-rate table.
RateTable = Dict[Tuple[int, int], float]


def decode_rate_spec(name: str, workloads: Sequence[str],
                     trs_counts: Sequence[int] = TRS_COUNTS,
                     ort_counts: Sequence[int] = ORT_COUNTS,
                     scale_factor: float = 1.0, max_tasks: Optional[int] = 600,
                     num_cores: int = 256) -> SweepSpec:
    """The Figure 12/13 parameter grid as a declarative :class:`SweepSpec`.

    ORT and OVT counts are linked (each OVT pairs with one ORT, Section IV),
    so they form one axis; the axis order (#ORT outer, #TRS inner) matches
    the paper's figure layout.
    """
    return SweepSpec(
        name=name,
        workloads=tuple(workloads),
        axes={
            "ort": [{"frontend.num_ort": n, "frontend.num_ovt": n}
                    for n in ort_counts],
            "frontend.num_trs": list(trs_counts),
        },
        base={"num_cores": num_cores, "scale_factor": scale_factor,
              "max_tasks": max_tasks, "fast_generator": True},
    )


def decode_rate_campaign(seeds: Sequence[int],
                         quick: bool = False) -> Campaign:
    """The ``decode-rate`` campaign: members ``fig12`` and ``fig13``.

    ``quick`` shrinks both axes and the measured trace prefixes.
    """
    trs = QUICK_TRS_COUNTS if quick else TRS_COUNTS
    ort = QUICK_ORT_COUNTS if quick else ORT_COUNTS
    return Campaign(name="decode-rate", seeds=seeds, members=(
        decode_rate_spec("fig12", ("Cholesky", "H264"), trs, ort,
                         max_tasks=300 if quick else 600),
        decode_rate_spec("fig13", registry.table1_names(), trs, ort,
                         max_tasks=200 if quick else 400),
    ))


def decode_rate_series(member: MemberReport,
                       metric: str = "decode_rate_cycles",
                       ) -> Dict[str, RateTable]:
    """Pivot a decode-rate member into ``workload -> {(#TRS, #ORT): mean}``.

    The last series, ``"Average"``, is Figure 13's curve: the arithmetic
    mean of the workloads' means, summed in workload order.
    """
    series: Dict[str, RateTable] = {}
    for group in member.groups:
        params = group.params
        key = (int(params["frontend.num_trs"]), int(params["frontend.num_ort"]))
        series.setdefault(str(params["workload"]), {})[key] = \
            group.metrics[metric].mean
    tables = list(series.values())
    series["Average"] = {key: sum(table[key] for table in tables) / len(tables)
                         for key in tables[0]}
    return series


def format_series(name: str, rates: RateTable) -> str:
    """Render one decode-rate table as text: rows = #TRS, columns = #ORT."""
    trs_values = sorted({trs for trs, _ in rates})
    ort_values = sorted({ort for _, ort in rates})
    columns = "".join(f"{f'{o} ORT':>12s}" for o in ort_values)
    lines = [f"{name}: decode rate [cycles/task]", f"{'#TRS':>6s}{columns}"]
    for trs in trs_values:
        lines.append(f"{trs:>6d}" + "".join(f"{rates[trs, ort]:>12.0f}"
                                            for ort in ort_values))
    lines.append(f"(rate limits: 128p = {RATE_LIMIT_128P_CYCLES} cycles, "
                 f"256p = {RATE_LIMIT_256P_CYCLES} cycles)")
    return "\n".join(lines)


def format_report(report: CampaignReport) -> str:
    """Figures 12 and 13 of a ``decode-rate`` report as text tables."""
    fig12 = report.member("fig12")
    series = decode_rate_series(fig12)
    lines = ["== Figure 12: decode rate vs. #TRS / #ORT (Cholesky, H264) =="]
    lines += [format_series(name, series[name]) for name in fig12.workloads]
    lines.append("\n== Figure 13: average decode rate vs. #TRS / #ORT ==")
    lines.append(format_series(
        "Average", decode_rate_series(report.member("fig13"))["Average"]))
    return "\n".join(lines)
