#!/usr/bin/env python3
"""A seed-ensemble scenario campaign with an ablation grid.

This example shows the :mod:`repro.sweep.campaign` subsystem end to end:

1. declare an :class:`~repro.sweep.Ablation`: one shared grid, a baseline
   configuration (the paper's Table II operating point) and named variants
   that each override a capacity knob,
2. run it as a :class:`~repro.sweep.Campaign` with a seed ensemble -- every
   design point is simulated once per seed and reduced to
   mean / std / min / max / 95% CI per metric,
3. print the baseline-relative delta table and persist the JSON/CSV report
   under ``<artifacts>/campaigns/<campaign_id>/``.

Because every underlying point is an ordinary cached sweep point (and every
trace a baked entry in the packed trace store), re-running this script
reports ``0 points recomputed, 0 traces regenerated``, and raising
``--seeds`` simulates only the new seeds.

Run with::

    python examples/campaign_study.py [--seeds 3] [--jobs 4] \\
        [--artifacts .repro-artifacts/sweeps]
"""

import argparse

from repro.sweep import Ablation, ResultCache, default_runner
from repro.sweep.campaign import format_report, run_campaign, write_report


def build_ablation(scale_factor: float) -> Ablation:
    """Capacity knobs diffed against the Table II operating point."""
    return Ablation(
        name="example-capacity-ablation",
        workloads=("Cholesky", "H264"),
        axes={"num_cores": (64,)},
        base={"scale_factor": scale_factor, "max_tasks": 150,
              "fast_generator": True},
        baseline_overrides={},  # Table II defaults
        variants={
            "ort-ovt-half": {"frontend.num_ort": 1},
            "trs-half": {"frontend.num_trs": 4},
        },
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3,
                        help="ensemble size: seeds range(N) (default 3)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--artifacts", default=".repro-artifacts/sweeps",
                        help="cache directory (shared across campaigns)")
    parser.add_argument("--scale-factor", type=float, default=0.5)
    args = parser.parse_args()

    campaign = build_ablation(args.scale_factor).campaign(
        seeds=range(args.seeds))
    print(campaign.describe())

    cache = ResultCache(args.artifacts)
    runner = default_runner(jobs=args.jobs, cache=cache)

    def progress(member, group, done, total):
        print(f"  [{member}] {done}/{total} {group.label()}")

    report = run_campaign(campaign, runner, progress=progress)
    print()
    print(format_report(report))
    print(f"\ncampaign totals: {report.recomputed_points} points recomputed, "
          f"{report.regenerated_traces} traces regenerated")
    directory = write_report(report, cache)
    print(f"report: {directory} (report.json, summary.csv, ablation.csv)")


if __name__ == "__main__":
    main()
