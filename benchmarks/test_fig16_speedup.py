"""Figure 16: speedup over sequential execution, hardware vs. software runtime.

This is the headline experiment: all nine benchmarks, 32-256 cores, the
task-superscalar pipeline against the StarSs-style software runtime.
"""

from benchmarks.conftest import BENCH_SCALE, run_member, run_once
from repro.experiments import scaling
from repro.workloads import registry

PROCESSOR_COUNTS = (32, 64, 128, 256)


def _sweep():
    spec = scaling.scaling_spec(registry.table1_names(), PROCESSOR_COUNTS,
                                scale_factor=BENCH_SCALE)
    return scaling.speedup_series(run_member(spec))


def test_fig16_speedup_vs_software_runtime(benchmark):
    series = run_once(benchmark, _sweep)
    print("\n" + scaling.format_series(series))

    average = series["Average"]
    # The pipeline keeps uncovering parallelism as the machine grows.
    assert average[256]["hardware"] > average[64]["hardware"]
    assert average[256]["hardware"] > average[32]["hardware"] * 1.5
    # At 256 cores the hardware pipeline clearly outperforms the software
    # runtime on average (the paper reports roughly 3-4x at this point).
    assert average[256]["hardware"] > 1.5 * average[256]["software"]
    # The software runtime flattens: going from 128 to 256 cores buys little.
    assert average[256]["software"] < average[128]["software"] * 1.25

    # Per-benchmark shape checks.
    for name, by_cores in series.items():
        if name == "Average":
            continue
        # More cores never hurt the hardware pipeline (within noise).
        assert by_cores[256]["hardware"] >= by_cores[32]["hardware"] * 0.9, name

    # The long-task benchmarks are where the software runtime stays
    # competitive up to 128 cores (Section VI.C singles out Knn and H264).
    knn = series["Knn"]
    assert knn[128]["software"] > 0.6 * knn[128]["hardware"]
    # The fine-grain benchmarks are decode-bound under the software runtime:
    # the hardware pipeline wins by a wide margin at 256 cores.
    for fine_grained in ("MatMul", "FFT", "STAP"):
        points = series[fine_grained]
        assert points[256]["hardware"] > 1.5 * points[256]["software"], fine_grained
    kmeans = series["KMeans"]
    assert kmeans[256]["hardware"] > 1.25 * kmeans[256]["software"]
    # Cholesky sits in between at the reduced trace sizes used here: the
    # hardware pipeline is at least on par with the software runtime.
    cholesky = series["Cholesky"]
    assert cholesky[256]["hardware"] >= 0.95 * cholesky[256]["software"]
