"""Run every experiment and produce a text report.

``python -m repro.experiments.runner`` regenerates all tables and figures
and writes the report to stdout (and optionally a file).  Figures 12-16 are
the registered ``decode-rate``, ``capacity`` and ``speedup`` campaigns (see
:mod:`repro.experiments.campaigns`) run at seed 0 and printed through their
figure tables; ``repro campaign run --campaign NAME`` runs the same grids
with a seed ensemble.  The benchmark suite runs the same grids at a smaller
scale; this runner exists so EXPERIMENTS.md can be refreshed with one
command.

``--quick`` runs the campaigns' quick grids.  ``--jobs N`` fans the figure
sweeps out over N worker processes, and ``--artifacts DIR`` caches every
simulated point (and stores each campaign report) so an interrupted or
repeated report run only simulates what it has not seen before (see
:mod:`repro.sweep`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.experiments import figure1, figure3, table1, table2
from repro.experiments.campaigns import TABLES, get_campaign
from repro.sweep.cache import ResultCache
from repro.sweep.campaign import run_campaign, write_report
from repro.sweep.runner import default_runner

#: The figure campaigns of the report, in figure order.
FIGURE_CAMPAIGNS = ("decode-rate", "capacity", "speedup")


def run_all(quick: bool = False, jobs: int = 1,
            artifacts: Optional[str] = None) -> str:
    """Run every experiment and return the combined text report.

    Args:
        quick: Run the figure campaigns' quick grids so the whole report
            finishes in well under a minute.
        jobs: Worker processes for the figure sweeps (1 = in-process).
        artifacts: Optional cache directory for sweep results and campaign
            reports.
    """
    cache = ResultCache(artifacts) if artifacts else None
    runner = default_runner(jobs=jobs, cache=cache)
    sections = []

    sections.append("== Table I: benchmark catalogue (measured/published) ==")
    sections.append(table1.format_table(table1.run()))

    sections.append("\n== Table II: simulated system parameters ==")
    sections.append(table2.format_table(table2.run()))

    sections.append("\n== Figure 1: 5x5 Cholesky task graph ==")
    fig1 = figure1.run()
    sections.append(figure1.format_report(fig1).split("\n\n")[0])

    sections.append("\n== Figure 3: decode-rate law ==")
    sections.append(figure3.format_table(figure3.run()))

    for name in FIGURE_CAMPAIGNS:
        report = run_campaign(get_campaign(name, seeds=(0,), quick=quick),
                              runner)
        if cache is not None:
            write_report(report, cache)
        sections.append("\n" + TABLES[name](report))

    return "\n".join(sections)


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - CLI entry point
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps so the report finishes quickly")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report to this file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the figure sweeps")
    parser.add_argument("--artifacts", type=str, default=None,
                        help="cache sweep results under this directory")
    args = parser.parse_args(argv)
    report = run_all(quick=args.quick, jobs=args.jobs,
                     artifacts=args.artifacts)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
