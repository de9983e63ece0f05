"""The campaign registry: every family of sweeps the repository runs.

Each entry is a ``(seeds, quick)`` factory returning a
:class:`~repro.sweep.campaign.Campaign`, exposed on the CLI as
``repro campaign run|report|list``:

* ``decode-rate`` -- Figures 12 and 13 (members ``fig12`` and ``fig13``),
  built in :mod:`repro.experiments.decode_rate`.
* ``capacity`` -- Figures 14 and 15 (members ``ort`` and ``trs``), built in
  :mod:`repro.experiments.capacity`.
* ``speedup`` -- Figure 16, hardware pipeline vs. software runtime (member
  ``fig16``), built in :mod:`repro.experiments.scaling`.
* ``synthetic-stress`` -- decode rate vs. operand count and task window vs.
  dependency distance on synthetic families (members ``operands`` and
  ``window``), built in :mod:`repro.experiments.synthetic_stress`.
* ``design-space`` -- the cross-workload capacity x parallelism x width
  study: task-window capacity (``frontend.num_trs``), backend parallelism
  (``num_cores``) and frontend machine width (linked ORT/OVT lane counts)
  swept together over Table I benchmarks *and* synthetic families, with a
  seed ensemble providing variance bars.
* ``window-ablation`` -- a variant grid diffed against the paper's Table II
  operating point: ORT/OVT capacity halved, TRS (task-window) capacity
  halved, and an effectively unbounded window, each reported as
  baseline-relative deltas per metric per design point.
* ``topology-scaling`` -- speedup vs. frontend count x shard policy (and
  steal policy) over a regular and a deliberately imbalanced workload; the
  driver lives in :mod:`repro.experiments.topology_scaling`.

:data:`TABLES` holds each campaign's figure view, the text tables printed
after the generic per-member report.  All campaigns are incremental: every
underlying point is an ordinary sweep point in the content-addressed result
cache and every trace lives in the packed trace store, so re-running a
campaign recomputes nothing and widening the seed ensemble simulates only
the new seeds.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.experiments import (capacity, decode_rate, scaling,
                               synthetic_stress, topology_scaling)
from repro.sweep.campaign import Ablation, Campaign, CampaignReport
from repro.sweep.spec import SweepSpec

#: Default ensemble of every campaign (variance bars need >= 3 seeds).
DEFAULT_SEEDS = (0, 1, 2)

#: 512 MB: far above any trace in the repo, i.e. an unbounded task window.
_UNBOUNDED_TRS_BYTES = 512 * 1024 * 1024


def design_space_campaign(seeds: Sequence[int] = DEFAULT_SEEDS,
                          quick: bool = False) -> Campaign:
    """Capacity x parallelism x width over Table I + synthetic workloads.

    ``quick`` shrinks the workload list, every axis and the traces so two
    back-to-back runs (the zero-recompute check) finish in CI time.
    """
    if quick:
        workloads = ("Cholesky", "random_dag:width=8,dep_distance=16")
        window, cores, width = (2, 8), (16, 64), (1, 2)
        base = {"scale_factor": 0.3, "max_tasks": 50, "fast_generator": True}
    else:
        workloads = ("Cholesky", "H264",
                     "random_dag:width=16,dep_distance=32",
                     "pipeline_chain:width=8,dep_distance=16")
        window, cores, width = (2, 8, 32), (16, 64, 256), (1, 2, 4)
        base = {"max_tasks": 400, "fast_generator": True}
    spec = SweepSpec(
        name="grid",
        workloads=workloads,
        axes={
            "frontend.num_trs": window,
            "num_cores": cores,
            "frontend.num_ort": width,
        },
        base=base,
    )
    return Campaign(name="design-space", members=(spec,), seeds=seeds)


def window_ablation(quick: bool = False) -> Ablation:
    """The capacity ablation grid (baseline = Table II operating point)."""
    if quick:
        workloads: Sequence[str] = ("Cholesky",)
        axes = {"num_cores": (16,)}
        base = {"scale_factor": 0.3, "max_tasks": 50, "fast_generator": True}
    else:
        workloads = ("Cholesky", "H264")
        axes = {"num_cores": (32, 128)}
        base = {"max_tasks": 300, "fast_generator": True}
    return Ablation(
        name="window-ablation",
        workloads=workloads,
        axes=axes,
        base=base,
        # Baseline: the paper's operating point (Table II defaults).
        baseline_overrides={},
        variants={
            "ort-ovt-half": {"frontend.num_ort": 1},
            "trs-half": {"frontend.num_trs": 4},
            "window-unbounded": {
                "frontend.num_trs": 32,
                "frontend.total_trs_capacity_bytes": _UNBOUNDED_TRS_BYTES,
            },
        },
    )


def window_ablation_campaign(seeds: Sequence[int] = DEFAULT_SEEDS,
                             quick: bool = False) -> Campaign:
    """The capacity ablation as a runnable campaign."""
    return window_ablation(quick=quick).campaign(seeds=seeds)


#: name -> factory(seeds, quick) registry the CLI resolves ``--campaign`` in.
CampaignFactory = Callable[..., Campaign]
CAMPAIGNS: Dict[str, CampaignFactory] = {
    "decode-rate": decode_rate.decode_rate_campaign,
    "capacity": capacity.capacity_campaign,
    "speedup": scaling.speedup_campaign,
    "synthetic-stress": synthetic_stress.synthetic_stress_campaign,
    "design-space": design_space_campaign,
    "window-ablation": window_ablation_campaign,
    "topology-scaling": topology_scaling.topology_scaling_campaign,
}

#: One-line descriptions for ``repro campaign list``.
DESCRIPTIONS: Dict[str, str] = {
    "decode-rate": "Figs. 12-13: decode rate vs #TRS x #ORT (Cholesky and "
                   "H264; all nine Table I benchmarks)",
    "capacity": "Figs. 14-15: speedup vs total ORT and TRS capacity",
    "speedup": "Fig. 16: speedup vs cores, hardware pipeline vs software "
               "runtime",
    "synthetic-stress": "decode rate vs operand count, task window vs "
                        "dependency distance (synthetic families)",
    "design-space": "task-window x cores x frontend width over Table I + "
                    "synthetic workloads",
    "window-ablation": "ORT/OVT halved, TRS halved and unbounded window vs "
                       "the Table II baseline",
    "topology-scaling": "speedup vs frontend count x shard policy (with and "
                        "without work stealing)",
}

#: Figure view of a campaign's report (text tables of group means).
TABLES: Dict[str, Callable[[CampaignReport], str]] = {
    "decode-rate": decode_rate.format_report,
    "capacity": capacity.format_report,
    "speedup": scaling.format_report,
    "synthetic-stress": synthetic_stress.format_report,
    "topology-scaling": topology_scaling.format_speedup_table,
}


def get_campaign(name: str, seeds: Optional[Sequence[int]] = None,
                 quick: bool = False) -> Campaign:
    """Build the named campaign (CLI resolver)."""
    try:
        factory = CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(CAMPAIGNS))
        raise ValueError(f"unknown campaign {name!r}; known: {known}")
    return factory(seeds=tuple(seeds) if seeds else DEFAULT_SEEDS, quick=quick)
