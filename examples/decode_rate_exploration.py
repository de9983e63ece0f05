#!/usr/bin/env python3
"""Exploring the frontend design space: decode rate vs. tiles (Figures 12/13).

The frontend's decode rate -- how quickly new tasks are added to the task
graph -- determines how many cores it can feed (the Figure 3 law).  This
example sweeps the number of TRSs and ORTs/OVTs for one benchmark and prints
the decode rate of every configuration next to the rate limits for 128- and
256-core machines, mirroring Figure 12 of the paper.  The grid is the
``decode-rate`` campaign's, narrowed to one workload and run as a one-member,
seed-0 campaign.

Run with::

    python examples/decode_rate_exploration.py [--workload Cholesky]
"""

import argparse

from repro.analysis.metrics import decode_rate_limit_ns
from repro.common.units import cycles_to_ns
from repro.experiments import decode_rate
from repro.sweep.campaign import Campaign, run_campaign
from repro.workloads import registry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="Cholesky",
                        choices=registry.all_workload_names())
    parser.add_argument("--max-tasks", type=int, default=400,
                        help="decode-rate measurement uses a trace prefix")
    args = parser.parse_args()

    spec = decode_rate.decode_rate_spec("explore", (args.workload,),
                                        trs_counts=(1, 2, 4, 8, 16),
                                        ort_counts=(1, 2, 4),
                                        max_tasks=args.max_tasks)
    report = run_campaign(Campaign(name="decode-rate-exploration",
                                   members=(spec,)))
    rates = decode_rate.decode_rate_series(report.member("explore"))[args.workload]
    print(decode_rate.format_series(args.workload, rates))

    spec = registry.get_spec(args.workload)
    print(f"\n{args.workload}: shortest tasks run for ~{spec.min_runtime_us} us, so the "
          "decode-rate limits are "
          f"{decode_rate_limit_ns(spec.min_runtime_us, 128):.0f} ns/task for 128 cores and "
          f"{decode_rate_limit_ns(spec.min_runtime_us, 256):.0f} ns/task for 256 cores.")
    (num_trs, num_ort), best = min(rates.items(), key=lambda item: item[1])
    print(f"best configuration swept: {num_trs} TRS / {num_ort} ORT at "
          f"{cycles_to_ns(best):.0f} ns/task")


if __name__ == "__main__":
    main()
