"""Figure 12: task decode rate vs. #TRS / #ORT for Cholesky and H264."""

from benchmarks.conftest import BENCH_SCALE, run_member, run_once
from repro.experiments import decode_rate

#: Reduced sweep axes (the paper sweeps 1-64 TRSs; 1-16 captures the shape).
TRS_COUNTS = (1, 2, 4, 8, 16)
ORT_COUNTS = (1, 2, 4)
WORKLOADS = ("Cholesky", "H264")


def _sweep():
    spec = decode_rate.decode_rate_spec("fig12", WORKLOADS, TRS_COUNTS,
                                        ORT_COUNTS, scale_factor=BENCH_SCALE,
                                        max_tasks=400)
    return decode_rate.decode_rate_series(run_member(spec))


def test_fig12_decode_rate_cholesky_and_h264(benchmark):
    series = run_once(benchmark, _sweep)
    for name in WORKLOADS:
        print("\n" + decode_rate.format_series(name, series[name]))
    for name in WORKLOADS:
        by_key = series[name]
        # Pipeline parallelism speeds up decode: the largest configuration is
        # at least ~2x faster than a single-TRS/single-ORT frontend.
        assert by_key[(max(TRS_COUNTS), max(ORT_COUNTS))] < 0.6 * by_key[(1, 1)], name
        # With a single TRS, every operation on the task graph serialises, so
        # extra ORTs barely help (the paper's Figure 13 observation).
        single_trs = [by_key[(1, o)] for o in ORT_COUNTS]
        assert max(single_trs) - min(single_trs) < 0.35 * max(single_trs), name
        # More TRSs monotonically (within noise) improve the decode rate at a
        # fixed ORT count.
        for ort in ORT_COUNTS:
            rates = [by_key[(t, ort)] for t in TRS_COUNTS]
            assert rates[-1] <= rates[0], name
    # H264 tasks carry many more operands than Cholesky tasks, so at the
    # chosen operating point (8 TRS / 2 ORT) H264 decodes slower.
    cholesky = series["Cholesky"]
    h264 = series["H264"]
    assert h264[(8, 2)] > cholesky[(8, 2)]
