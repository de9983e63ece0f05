"""Tests for the ``repro bench`` host-side checks.

Both checks are pinned:

* ``obs-overhead`` -- telemetry changes no simulated work, and the suite
  gate passes exactly while the geomean obs-off/obs-on speed ratio stays at
  or above ``1 - OBS_OVERHEAD_BUDGET``, and
* ``trace`` -- a packed trace-store load returns the generated trace.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

from repro.cli import main as cli_main
from repro.sweep import bench

#: One cheap pinned scenario so the suite-running tests stay fast.
TINY = bench.BenchScenario(
    name="tiny",
    description="minimal smoke scenario",
    params={"workload": "MatMul", "num_cores": 16, "scale_factor": 0.3,
            "max_tasks": 40, "seed": 0, "fast_generator": True},
    quick_overrides={"max_tasks": 25},
)


class TestRunSuite:
    def test_repeat_must_be_positive(self):
        with pytest.raises(bench.BenchError):
            bench.run_scenario_pair(TINY, quick=True, repeat=0)

    def test_pinned_suite_names_are_unique(self):
        names = [scenario.name for scenario in bench.SUITE]
        assert len(names) == len(set(names)) >= 5


def stub_pair(speed_ratio):
    """A ``run_scenario_pair`` stand-in reporting a fixed speed ratio."""
    def run_scenario_pair(scenario, quick=False, repeat=1):
        metrics = {"num_tasks": 1, "tasks_decoded": 1, "events": 1,
                   "makespan_cycles": 1}
        return bench.PairedRun(name=scenario.name, metrics_off=metrics,
                               metrics_on=dict(metrics), off_seconds=1.0,
                               on_seconds=1.0, speed_ratio=speed_ratio)
    return run_scenario_pair


class TestObsOverhead:
    def test_paired_run_simulates_identical_work(self):
        run = bench.run_scenario_pair(TINY, quick=True, repeat=2)
        assert run.name == "tiny"
        assert run.metrics_on == run.metrics_off
        assert run.metrics_off["num_tasks"] == 25  # quick override applied
        assert run.metrics_off["events"] > 0
        assert run.metrics_off["makespan_cycles"] > 0
        assert 0 < run.off_seconds and 0 < run.on_seconds
        assert run.speed_ratio > 0

    def test_speed_ratio_is_off_over_on(self, monkeypatch):
        """Telemetry that makes every run 25% slower reads 0.8x."""
        clock = [0.0]

        class FakeSystem:
            def __init__(self, config, observer=None):
                self.seconds = 1.0 if observer is None else 1.25
                self.engine = SimpleNamespace(events_processed=7)

            def run(self, trace):
                clock[0] += self.seconds
                return SimpleNamespace(num_tasks=1, tasks_decoded=1,
                                       makespan_cycles=1)

        monkeypatch.setattr(bench, "TaskSuperscalarSystem", FakeSystem)
        monkeypatch.setattr(bench, "time",
                            SimpleNamespace(perf_counter=lambda: clock[0]))
        run = bench.run_scenario_pair(TINY, quick=True, repeat=3)
        assert (run.off_seconds, run.on_seconds) == (1.0, 1.25)
        assert run.speed_ratio == pytest.approx(0.8)

    def test_geomean_of_speed_ratios(self):
        runs = [stub_pair(ratio)(TINY) for ratio in (2.0, 0.5, 1.0)]
        assert bench.overhead_geomean(runs) == pytest.approx(1.0)

    def test_budget_boundary_is_inclusive(self, monkeypatch, capsys):
        floor = 1.0 - bench.OBS_OVERHEAD_BUDGET
        assert floor == 0.95
        at_floor = [stub_pair(floor)(scenario) for scenario in bench.SUITE]
        assert bench.overhead_geomean(at_floor) == floor
        argv = ["bench", "obs-overhead", "--quick", "--repeat", "1"]
        # Exactly at the floor: not over budget (strict less-than fails).
        monkeypatch.setattr(bench, "run_scenario_pair", stub_pair(floor))
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert f"over {len(bench.SUITE)} scenarios" in out
        monkeypatch.setattr(bench, "run_scenario_pair",
                            stub_pair(math.nextafter(floor, 0.0)))
        assert cli_main(argv) == 1
        assert "FAIL: telemetry overhead beyond the 5% budget" in (
            capsys.readouterr().out)


class TestTraceBench:
    def test_trace_bench_metrics_match_and_store_entry(self, tmp_path):
        entry = bench.run_trace_bench(quick=True, repeat=1,
                                      store_root=str(tmp_path))
        assert entry["name"] == "trace_load"
        assert entry["metrics_match"] is True
        assert entry["metrics"] == entry["packed_metrics"]
        assert entry["metrics"]["num_tasks"] > 0
        timing = entry["timing"]
        assert timing["cold_generate_seconds"] > 0
        assert timing["packed_load_seconds"] > 0
        assert timing["speedup"] == pytest.approx(
            timing["cold_generate_seconds"] / timing["packed_load_seconds"])
        # The baked entry landed in the explicit store root.
        from repro.trace.store import TraceStore

        assert len(TraceStore(tmp_path)) == 1
        rendered = bench.format_trace_bench(entry)
        assert "load speedup" in rendered

    def test_trace_bench_uses_a_temporary_store_by_default(self):
        entry = bench.run_trace_bench(quick=True, repeat=1)
        assert entry["metrics_match"] is True

    def test_trace_bench_rejects_bad_repeat(self):
        with pytest.raises(bench.BenchError):
            bench.run_trace_bench(quick=True, repeat=0)

    def test_trace_bench_cli(self, tmp_path, capsys):
        output = tmp_path / "trace_bench.json"
        code = cli_main(["bench", "trace", "--quick", "--repeat", "1",
                         "--output", str(output)])
        assert code == 0
        assert "load speedup" in capsys.readouterr().out
        assert json.loads(output.read_text())["metrics_match"] is True

    def test_trace_bench_cli_min_speedup_failure(self, capsys):
        code = cli_main(["bench", "trace", "--quick", "--repeat", "1",
                         "--min-speedup", "1e12"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
