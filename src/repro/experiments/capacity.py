"""Figures 14 and 15: speedup vs. ORT / TRS storage capacity.

Figure 14 sweeps the total ORT capacity from 16 KB to 1 MB and Figure 15
sweeps the total TRS capacity from 128 KB to 8 MB, measuring the speedup over
sequential execution on a 256-core backend for Cholesky, H264 and the average
over all benchmarks.  Larger capacities sustain a larger task window and
therefore uncover more parallelism, until either the application's
parallelism or the task-generating thread saturates.

Both figures are members of the ``capacity`` campaign
(:func:`capacity_campaign`), named after their axis: ``ort`` and ``trs``.
:func:`capacity_series` pivots a member's report back onto the nominal
capacity axis.

The Python traces are smaller than the paper's (thousands rather than tens of
thousands of tasks), so the capacity axes are scaled down by
``CAPACITY_SCALE`` to keep the knee of each curve inside the swept range; the
*shape* -- speedup rising with capacity and flattening once the window is
large enough, with H264 needing a larger window than Cholesky -- is the
reproduction target.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.common.units import KB, MB
from repro.sweep.campaign import Campaign, CampaignReport, MemberReport
from repro.sweep.spec import SweepSpec

#: Capacity points of Figure 14 (total ORT bytes) and Figure 15 (total TRS bytes).
ORT_CAPACITY_POINTS = (16 * KB, 32 * KB, 64 * KB, 128 * KB, 256 * KB, 512 * KB, 1 * MB)
TRS_CAPACITY_POINTS = (128 * KB, 256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB, 6 * MB, 8 * MB)

#: The experiment traces hold a few thousand tasks instead of the paper's
#: tens of thousands, so the same storage covers a proportionally larger part
#: of each application; the sweep divides the capacity axis by this factor to
#: keep the saturation knee visible.
CAPACITY_SCALE = 8


def _capacity_overrides(axis: str, capacity: int) -> Dict[str, int]:
    """Frontend overrides for one nominal capacity point (scaled down)."""
    if axis == "ort":
        scaled = max(4 * KB, capacity // CAPACITY_SCALE)
        return {"frontend.total_ort_capacity_bytes": scaled,
                "frontend.total_ovt_capacity_bytes": scaled}
    return {"frontend.total_trs_capacity_bytes":
            max(16 * KB, capacity // CAPACITY_SCALE)}


def capacity_spec(workloads: Sequence[str], axis: str,
                  capacities: Sequence[int], num_cores: int = 256,
                  scale_factor: float = 1.0) -> SweepSpec:
    """The Figure 14 (``axis="ort"``) / 15 (``axis="trs"``) grid as a spec.

    The spec is named after its axis.  Each capacity point is a linked axis
    value because one nominal capacity sets several (scaled) frontend fields
    at once.  Nominal capacities that scale to the same configuration
    (Figure 14's 16 KB and 32 KB both clamp to the 4 KB floor) are listed
    once, so a campaign never counts one design point twice.
    """
    if axis not in ("ort", "trs"):
        raise ValueError(f"axis must be 'ort' or 'trs', got {axis!r}")
    values: List[Dict[str, int]] = []
    for capacity in capacities:
        overrides = _capacity_overrides(axis, capacity)
        if overrides not in values:
            values.append(overrides)
    return SweepSpec(
        name=axis,
        workloads=tuple(workloads),
        axes={"capacity": values},
        base={"num_cores": num_cores, "scale_factor": scale_factor},
    )


def capacity_campaign(seeds: Sequence[int], quick: bool = False) -> Campaign:
    """The ``capacity`` campaign: members ``ort`` (Fig. 14), ``trs`` (Fig. 15).

    ``quick`` shrinks the traces; both grids keep every capacity point.
    """
    scale = 0.6 if quick else 1.0
    workloads = ("Cholesky", "H264")
    return Campaign(name="capacity", seeds=seeds, members=(
        capacity_spec(workloads, "ort", ORT_CAPACITY_POINTS, scale_factor=scale),
        capacity_spec(workloads, "trs", TRS_CAPACITY_POINTS, scale_factor=scale),
    ))


def capacity_series(member: MemberReport, capacities: Sequence[int],
                    metric: str = "speedup") -> Dict[str, List[float]]:
    """Pivot a capacity member into ``workload -> [mean per capacity]``.

    The member's name is its axis.  Each nominal capacity reads the design
    point its scaled overrides select, so capacities that clamp to one
    configuration repeat its value.
    """
    series: Dict[str, List[float]] = {}
    for capacity in capacities:
        wanted = _capacity_overrides(member.name, capacity).items()
        for group in member.groups:
            if wanted <= group.params.items():
                series.setdefault(str(group.params["workload"]), []).append(
                    group.metrics[metric].mean)
    return series


def format_series(series: Dict[str, List[float]], capacities: Sequence[int],
                  axis_label: str) -> str:
    """Render capacity sweeps as a text table: rows = capacity, columns = workload."""
    names = list(series)
    lines = [f"{axis_label:>12s}" + "".join(f"{name:>12s}" for name in names)]
    for index, capacity in enumerate(capacities):
        label = f"{capacity // KB} KB" if capacity < MB else f"{capacity // MB} MB"
        lines.append(f"{label:>12s}" + "".join(f"{series[name][index]:>12.1f}"
                                               for name in names))
    return "\n".join(lines)


def format_report(report: CampaignReport) -> str:
    """Figures 14 and 15 of a ``capacity`` report as text tables."""
    blocks = []
    for figure, member, capacities, label in (
            (14, "ort", ORT_CAPACITY_POINTS, "ORT capacity"),
            (15, "trs", TRS_CAPACITY_POINTS, "TRS capacity")):
        series = capacity_series(report.member(member), capacities)
        blocks.append(f"== Figure {figure}: speedup vs. total {label} ==\n"
                      + format_series(series, capacities, label))
    return "\n\n".join(blocks)
