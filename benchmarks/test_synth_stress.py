"""Synthetic design-space stress campaigns (repro.experiments.synthetic_stress).

Unlike the figure benchmarks these have no paper artefact to match; the
checked shape is the pair of qualitative laws the synthetic subsystem is
built to expose: per-operand decode cost and the window-size footprint of
dependency distance.
"""

from benchmarks.conftest import BENCH_SCALE, run_once
from repro.experiments import synthetic_stress
from repro.sweep.campaign import Campaign, run_campaign


def _campaigns():
    depth = max(4, int(16 * BENCH_SCALE))
    members = (
        synthetic_stress.operand_stress_spec(
            steps=(0, 4, 8, 15), num_cores=64, depth=depth),
        synthetic_stress.window_stress_spec(
            dep_distances=(1, 4, 16, 64), num_cores=32,
            depth=max(24, int(96 * BENCH_SCALE))),
    )
    return run_campaign(Campaign(name="synthetic-stress", members=members))


def test_synthetic_stress_trends(benchmark):
    report = run_once(benchmark, _campaigns)
    print("\n" + synthetic_stress.format_report(report))

    operands = report.member("operands")
    # Decode rate degrades monotonically (within noise) with operand count,
    # and the heaviest tasks cost several times the lean ones.
    rates = list(synthetic_stress.stress_series(
        operands, "decode_rate_cycles").values())
    assert rates[-1] > 2.0 * rates[0]
    for earlier, later in zip(rates, rates[1:]):
        assert later > 0.9 * earlier

    window = report.member("window")
    # Window occupancy tracks the creation-stream dependency distance while
    # the decode rate stays flat.
    means = list(synthetic_stress.stress_series(
        window, "window_mean_tasks").values())
    assert all(later > earlier for earlier, later in zip(means, means[1:]))
    assert means[-1] > 5 * means[0]
    decode = list(synthetic_stress.stress_series(
        window, "decode_rate_cycles").values())
    assert max(decode) < 1.25 * min(decode)
