#!/usr/bin/env python3
"""A cached, parallel sweep campaign over the task-superscalar design space.

This example shows the :mod:`repro.sweep` subsystem end to end:

1. declare a parameter grid with :class:`~repro.sweep.SweepSpec` -- here a
   frontend design-space exploration crossing #TRS with machine width for
   two benchmarks,
2. fan the points out over a ``multiprocessing`` worker pool with
   :class:`~repro.sweep.SweepRunner` (``--jobs 1`` runs them in this
   process instead, with identical results),
3. persist every simulated point to a content-addressed
   :class:`~repro.sweep.ResultCache`, so re-running the script (or killing it
   halfway and restarting) only simulates points it has never seen -- watch
   the ``cached`` counter on the second run.

Run with::

    python examples/sweep_campaign.py [--jobs 4] [--artifacts .repro-artifacts/sweeps]

The cache layout is self-describing JSON: every entry under
``<artifacts>/objects/`` records the full parameter dict next to its result,
keyed by the sha256 of the canonical parameter encoding, and every completed
campaign writes a manifest under ``<artifacts>/manifests/``.
"""

import argparse

from repro.sweep import ResultCache, SweepRunner, SweepSpec


def build_spec(scale_factor: float) -> SweepSpec:
    """Cross frontend parallelism with machine width for two benchmarks."""
    return SweepSpec(
        name="design-space-tour",
        workloads=("Cholesky", "H264"),
        axes={
            # Each OVT pairs with one ORT (Section IV): this sets both counts.
            "frontend.num_ort": (1, 2),
            "frontend.num_trs": (1, 4, 16),
            "num_cores": (64, 256),
        },
        base={"scale_factor": scale_factor, "max_tasks": 200,
              "fast_generator": True},
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes (default 2)")
    parser.add_argument("--artifacts", default=".repro-artifacts/sweeps",
                        help="cache directory (shared across campaigns)")
    parser.add_argument("--scale-factor", type=float, default=0.5)
    args = parser.parse_args()

    spec = build_spec(args.scale_factor)
    print(spec.describe())

    cache = ResultCache(args.artifacts)
    runner = SweepRunner(jobs=args.jobs, cache=cache)

    def progress(point, result, was_cached):
        origin = "cache" if was_cached else f"{args.jobs} workers"
        print(f"  [{origin:>9s}] {point.label():60s} "
              f"speedup {result.speedup:5.1f}x  "
              f"decode {result.decode_rate_cycles:6.0f} cyc/task")

    run = runner.run(spec, progress=progress)
    print(run.summary())

    # The grid is queryable by parameters after the run:
    best = max(run, key=lambda pair: pair[1].speedup)
    print(f"best point: {best[0].label()} -> speedup {best[1].speedup:.1f}x")
    print(f"artifacts under {cache.root} ({len(cache)} cached points); "
          "re-run this script to see every point answered from the cache")


if __name__ == "__main__":
    main()
