"""Run every experiment and produce a text report.

``python -m repro.experiments.runner`` regenerates all tables and figures at
a chosen scale factor and writes the report to stdout (and optionally a
file).  The benchmark suite runs the same drivers at a smaller scale; this
runner exists so EXPERIMENTS.md can be refreshed with one command.

``--jobs N`` fans the figure sweeps out over N worker processes, and
``--artifacts DIR`` caches every simulated point so an interrupted or
repeated report run only simulates what it has not seen before (see
:mod:`repro.sweep`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.experiments import capacity, decode_rate, figure1, figure3, scaling, table1, table2
from repro.sweep.cache import ResultCache
from repro.sweep.runner import default_runner


def run_all(scale_factor: float = 1.0, quick: bool = False,
            jobs: int = 1, artifacts: Optional[str] = None) -> str:
    """Run every experiment and return the combined text report.

    Args:
        scale_factor: Trace-size multiplier passed to every driver.
        quick: Restrict the expensive sweeps (Figures 12-16) to smaller axes
            so the whole report finishes in a few minutes.
        jobs: Worker processes for the figure sweeps (1 = in-process).
        artifacts: Optional cache directory for sweep results.
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

    trs_counts = (1, 2, 4, 8, 16) if quick else decode_rate.TRS_COUNTS
    ort_counts = (1, 2, 4) if quick else decode_rate.ORT_COUNTS
    max_tasks = 300 if quick else 600

    sections.append("\n== Figure 12: decode rate vs. #TRS / #ORT (Cholesky, H264) ==")
    fig12 = decode_rate.figure12(trs_counts=trs_counts, ort_counts=ort_counts,
                                 scale_factor=scale_factor, max_tasks=max_tasks,
                                 runner=runner)
    for name, points in fig12.items():
        sections.append(decode_rate.format_series(points))

    sections.append("\n== Figure 13: average decode rate vs. #TRS / #ORT ==")
    fig13 = decode_rate.figure13(trs_counts=trs_counts, ort_counts=ort_counts,
                                 scale_factor=scale_factor,
                                 max_tasks=200 if quick else 400, runner=runner)
    sections.append(decode_rate.format_series(fig13))

    capacity_scale = 0.6 if quick else scale_factor
    sections.append("\n== Figure 14: speedup vs. total ORT capacity ==")
    fig14 = capacity.figure14(scale_factor=capacity_scale, runner=runner)
    sections.append(capacity.format_series(fig14, "ORT capacity"))

    sections.append("\n== Figure 15: speedup vs. total TRS capacity ==")
    fig15 = capacity.figure15(scale_factor=capacity_scale, runner=runner)
    sections.append(capacity.format_series(fig15, "TRS capacity"))

    sections.append("\n== Figure 16: speedup, task superscalar vs. software runtime ==")
    fig16 = scaling.figure16(scale_factor=0.7 if quick else scale_factor,
                             runner=runner)
    sections.append(scaling.format_series(fig16))

    return "\n".join(sections)


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - CLI entry point
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help="trace-size multiplier (default 1.0)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller sweeps so the report finishes quickly")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the report to this file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the figure sweeps")
    parser.add_argument("--artifacts", type=str, default=None,
                        help="cache sweep results under this directory")
    args = parser.parse_args(argv)
    report = run_all(scale_factor=args.scale_factor, quick=args.quick,
                     jobs=args.jobs, artifacts=args.artifacts)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
