"""Tests for the table/figure experiment drivers (small-scale runs).

Each driver is exercised at a reduced scale so the suite stays fast; the
full-size sweeps live in the benchmark harness.
"""

import pytest

from repro.common.units import KB, MB
from repro.experiments import capacity, common, decode_rate, figure1, figure3, scaling, table1, table2
from repro.sweep.campaign import Campaign, run_campaign
from repro.workloads import registry
from tests.conftest import run_member


class TestCommonHelpers:
    def test_scales_cover_all_benchmarks(self):
        assert set(common.EXPERIMENT_SCALES) == set(registry.table1_names())

    def test_experiment_trace_truncation(self):
        trace = common.experiment_trace("MatMul", scale_factor=0.5, max_tasks=50)
        assert len(trace) == 50

    def test_experiment_trace_synthetic_defaults(self):
        # Workloads without an EXPERIMENT_SCALES entry scale from their own
        # default, and constructor kwargs pass through.
        trace = common.experiment_trace("random_dag", scale_factor=2.0,
                                        width=4, depth=4)
        assert len(trace) == 32  # width * depth * (default_scale 1 * 2.0)

    def test_fast_generator_is_cheap(self):
        config = common.fast_generator_config()
        assert config.generation_cycles(4) < 50


class TestTable1:
    def test_rows_align_with_registry(self):
        rows = table1.run()
        assert [row["name"] for row in rows] == registry.table1_names()

    def test_format_contains_all_benchmarks(self):
        text = table1.format_table(table1.run())
        for name in registry.table1_names():
            assert name in text


class TestTable2:
    def test_rows_match_paper_structure(self):
        rows = table2.run()
        assert set(rows) == set(table2.PAPER_TABLE2)

    def test_key_values_present(self):
        rows = table2.run()
        assert "3.2GHz" in rows["Cores"]
        assert "22 cycles" in rows["L2"]
        assert "16 bytes/cycle" in rows["Interconnect"]
        assert "8 TRS / 2 ORT" in rows["Task pipeline"]
        assert "64KB" in table2.format_table(rows)


class TestFigure1:
    def test_graph_matches_paper(self):
        result = figure1.run()
        assert result.num_tasks == 35
        assert result.distant_parallel_pair_independent
        assert set(result.kernels) == {"spotrf", "strsm", "ssyrk", "sgemm"}
        assert result.max_width >= 4

    def test_dot_output_lists_every_task(self):
        result = figure1.run()
        dot = figure1.to_dot(result)
        assert dot.count("->") == len(result.true_edges)
        assert "t35" in dot
        assert "digraph" in dot

    def test_report_text(self):
        text = figure1.format_report(figure1.run())
        assert "35 tasks" in text


class TestFigure3:
    def test_points_follow_the_law(self):
        points = figure3.run()
        assert [p.num_processors for p in points] == [32, 64, 128, 256]
        assert points[-1].decode_limit_ns == pytest.approx(58.6, abs=0.1)
        assert points[0].software_utilization > points[-1].software_utilization

    def test_format(self):
        text = figure3.format_table(figure3.run())
        assert "T/P" in text and "21 processors" in text


class TestDecodeRateExperiment:
    @pytest.fixture(scope="class")
    def sweep(self):
        spec = decode_rate.decode_rate_spec("fig12", ("Cholesky",),
                                            trs_counts=(1, 4), ort_counts=(1, 2),
                                            scale_factor=0.5, max_tasks=120)
        return decode_rate.decode_rate_series(run_member(spec))["Cholesky"]

    def test_sweep_covers_grid(self, sweep):
        assert len(sweep) == 4
        assert set(sweep) == {(1, 1), (4, 1), (1, 2), (4, 2)}

    def test_more_parallelism_is_not_slower(self, sweep):
        assert sweep[(4, 2)] <= sweep[(1, 1)]

    def test_format_series(self, sweep):
        text = decode_rate.format_series("Cholesky", sweep)
        assert "Cholesky" in text and "1 ORT" in text

    def test_figure13_averages(self):
        spec = decode_rate.decode_rate_spec("fig13", ("Cholesky", "MatMul"),
                                            trs_counts=(1, 4), ort_counts=(1,),
                                            scale_factor=0.4, max_tasks=80)
        series = decode_rate.decode_rate_series(run_member(spec))
        assert list(series) == ["Cholesky", "MatMul", "Average"]
        average = series["Average"]
        assert len(average) == 2
        for key, rate in average.items():
            assert rate == (series["Cholesky"][key] + series["MatMul"][key]) / 2
        assert average[(4, 1)] <= average[(1, 1)]


class TestCapacityExperiment:
    def test_ort_capacity_sweep_shape(self):
        capacities = (16 * KB, 512 * KB)
        spec = capacity.capacity_spec(("Cholesky",), "ort", capacities,
                                      num_cores=64, scale_factor=0.5)
        member = run_member(spec)
        small, large = (group.params["frontend.total_ort_capacity_bytes"]
                        for group in member.groups)
        assert small < large
        speedups = capacity.capacity_series(member, capacities)["Cholesky"]
        assert len(speedups) == 2
        assert speedups[1] >= speedups[0] * 0.9

    def test_trs_capacity_sweep_shape(self):
        capacities = (128 * KB, 6 * MB)
        spec = capacity.capacity_spec(("Cholesky",), "trs", capacities,
                                      num_cores=64, scale_factor=0.5)
        member = run_member(spec)
        speedups = capacity.capacity_series(member, capacities)["Cholesky"]
        peaks = capacity.capacity_series(member, capacities,
                                         "window_peak_tasks")["Cholesky"]
        assert speedups[-1] >= speedups[0] * 0.9
        assert peaks[-1] >= peaks[0]

    def test_format_series(self):
        capacities = (16 * KB,)
        spec = capacity.capacity_spec(("Cholesky",), "ort", capacities,
                                      num_cores=32, scale_factor=0.4)
        series = capacity.capacity_series(run_member(spec), capacities)
        text = capacity.format_series(series, capacities, "ORT capacity")
        assert "16 KB" in text and "Cholesky" in text

    def test_clamped_capacities_share_one_design_point(self):
        # Figure 14's 16 KB and 32 KB both clamp to the 4 KB floor.  The spec
        # lists that configuration once, so a two-seed ensemble counts each
        # seed once, and the pivot maps both nominal capacities onto it.
        capacities = (16 * KB, 32 * KB, 64 * KB)
        spec = capacity.capacity_spec(("Cholesky",), "ort", capacities,
                                      num_cores=16, scale_factor=0.2)
        assert spec.cardinality == 2
        report = run_campaign(Campaign(name="fig14", members=(spec,),
                                       seeds=(0, 1)))
        member = report.member("ort")
        floor = member.groups[0]
        assert floor.params["frontend.total_ort_capacity_bytes"] == 4 * KB
        assert floor.seeds == [0, 1]
        assert floor.metrics["speedup"].n == 2
        speedups = capacity.capacity_series(member, capacities)["Cholesky"]
        assert speedups[0] == speedups[1] == floor.metrics["speedup"].mean


class TestScalingExperiment:
    def test_figure16_small(self):
        spec = scaling.scaling_spec(("MatMul",), processor_counts=(16, 32, 64),
                                    scale_factor=0.5)
        series = scaling.speedup_series(run_member(spec))
        assert set(series) == {"MatMul", "Average"}
        matmul = series["MatMul"]
        assert matmul[64]["hardware"] >= matmul[16]["hardware"] * 0.9
        # The hardware pipeline outpaces the 700 ns software decoder at 64 cores.
        assert matmul[64]["hardware"] > matmul[64]["software"]
        # Both systems beat sequential execution at 32 cores.
        assert matmul[32]["hardware"] > 1.0
        assert matmul[32]["software"] > 1.0
        text = scaling.format_series(series)
        assert "MatMul" in text and "Average" in text
