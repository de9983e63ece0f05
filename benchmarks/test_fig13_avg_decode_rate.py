"""Figure 13: average task decode rate vs. #TRS / #ORT over all benchmarks."""

from benchmarks.conftest import BENCH_SCALE, run_member, run_once
from repro.experiments import decode_rate
from repro.workloads import registry

TRS_COUNTS = (1, 2, 4, 8, 16)
ORT_COUNTS = (1, 2)


def _sweep():
    spec = decode_rate.decode_rate_spec("fig13", registry.table1_names(),
                                        TRS_COUNTS, ORT_COUNTS,
                                        scale_factor=BENCH_SCALE, max_tasks=250)
    return decode_rate.decode_rate_series(run_member(spec))["Average"]


def test_fig13_average_decode_rate(benchmark):
    by_key = run_once(benchmark, _sweep)
    print("\n" + decode_rate.format_series("Average", by_key))
    # Increasing pipeline parallelism consistently speeds up the average
    # decode rate.
    for ort in ORT_COUNTS:
        rates = [by_key[(t, ort)] for t in TRS_COUNTS]
        assert rates[-1] < rates[0]
    # The paper's conclusion: 8 TRSs and 2 ORTs/OVTs are sufficient for a
    # 256-processor system, i.e. the decode rate beats the 256p limit
    # (~186 cycles/task for the 15 us average shortest task).
    assert by_key[(8, 2)] <= decode_rate.RATE_LIMIT_256P_CYCLES
    # A single-TRS frontend misses the 256-processor target.
    assert by_key[(1, 1)] > decode_rate.RATE_LIMIT_256P_CYCLES
