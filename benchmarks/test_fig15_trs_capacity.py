"""Figure 15: speedup vs. total TRS capacity (Cholesky, H264)."""

from benchmarks.conftest import BENCH_SCALE, run_member, run_once
from repro.common.units import KB, MB
from repro.experiments import capacity

CAPACITIES = (128 * KB, 512 * KB, 2 * MB, 6 * MB)


def _sweep():
    spec = capacity.capacity_spec(("Cholesky", "H264"), "trs", CAPACITIES,
                                  num_cores=256, scale_factor=BENCH_SCALE)
    member = run_member(spec)
    return (capacity.capacity_series(member, CAPACITIES),
            capacity.capacity_series(member, CAPACITIES, "window_peak_tasks"))


def test_fig15_trs_capacity_sweep(benchmark):
    series, peaks = run_once(benchmark, _sweep)
    print("\n" + capacity.format_series(series, CAPACITIES, "TRS capacity"))
    for name, speedups in series.items():
        # The TRS storage is the task window itself: more capacity means a
        # larger achievable window and at least as much speedup.
        assert speedups[-1] >= speedups[0] * 0.95, name
        assert peaks[name][-1] >= peaks[name][0], name
    cholesky = series["Cholesky"]
    # Cholesky's curve flattens by the 2 MB point (the paper: it peaks at
    # 2 MB while H264 keeps improving until ~6 MB).
    assert cholesky[-1] <= cholesky[-2] * 1.15
