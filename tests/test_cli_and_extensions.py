"""Tests for the command-line interface (``python -m repro``)."""

import pytest

from repro.cli import main
from repro.trace.io import read_trace
from repro.workloads import registry


class TestCLI:
    def test_list_catalogue(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in registry.all_workload_names():
            assert name in out

    def test_simulate_hardware(self, capsys):
        assert main(["simulate", "--workload", "Cholesky", "--scale", "6",
                     "--cores", "8", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "task superscalar" in out and "speedup" in out

    def test_simulate_compare(self, capsys):
        assert main(["simulate", "--workload", "MatMul", "--scale", "4",
                     "--cores", "8", "--compare"]) == 0
        out = capsys.readouterr().out
        assert "task superscalar" in out and "software runtime" in out

    def test_trace_export(self, tmp_path, capsys):
        path = tmp_path / "fft.jsonl"
        assert main(["trace", "--workload", "FFT", "--scale", "4",
                     "--output", str(path)]) == 0
        trace = read_trace(path)
        assert len(trace) > 0
        assert trace.name == "FFT"

    def test_trace_export_gzipped(self, tmp_path, capsys):
        path = tmp_path / "fft.jsonl.gz"
        assert main(["trace", "--workload", "FFT", "--scale", "4",
                     "--output", str(path)]) == 0
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert len(read_trace(path)) > 0

    def test_trace_export_requires_workload_and_output(self):
        with pytest.raises(SystemExit):
            main(["trace", "--workload", "FFT"])

    def test_trace_bake_ls_gc(self, tmp_path, capsys):
        store = str(tmp_path / "traces")
        assert main(["trace", "bake", "--workload", "Cholesky",
                     "--scale-factor", "0.3", "--max-tasks", "30",
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "[baked ]" in out and "1 baked traces" in out
        # A second bake of the same spec is answered from the store.
        assert main(["trace", "bake", "--workload", "cholesky",
                     "--scale-factor", "0.3", "--max-tasks", "30",
                     "--store", store]) == 0
        assert "[cached]" in capsys.readouterr().out
        assert main(["trace", "ls", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "Cholesky" in out and "1 traces" in out
        assert main(["trace", "gc", "--store", store]) == 0
        assert "removed 0 file(s)" in capsys.readouterr().out
        assert main(["trace", "gc", "--store", store, "--all"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 file(s)" in out and "0 entries remain" in out
        assert main(["trace", "ls", "--store", store]) == 0
        assert "empty" in capsys.readouterr().out

    def test_sweep_cli_reports_trace_amortization(self, tmp_path, capsys):
        args = ["sweep", "--workload", "Cholesky",
                "--axis", "frontend.num_trs=1,2",
                "--scale-factor", "0.2", "--max-tasks", "20",
                "--fast-generator", "--artifacts", str(tmp_path / "a")]
        assert main(args) == 0
        assert "traces:" in capsys.readouterr().out
        # Fresh result cache + the first run's trace store: zero regenerations.
        from repro.sweep.runner import trace_cache_clear

        trace_cache_clear()
        assert main(["sweep", "--workload", "Cholesky",
                     "--axis", "frontend.num_trs=1,2",
                     "--scale-factor", "0.2", "--max-tasks", "20",
                     "--fast-generator", "--artifacts", str(tmp_path / "b"),
                     "--trace-store", str(tmp_path / "a" / "traces")]) == 0
        assert "traces: 0 regenerated" in capsys.readouterr().out

    def test_sweep_explicit_seed_conflicts_with_seed_axis(self, capsys):
        # Regression: an explicit --seed used to be silently shadowed by a
        # seed axis (last-wins); now the conflict is a hard error.
        with pytest.raises(SystemExit, match="seed"):
            main(["sweep", "--workload", "Cholesky", "--seed", "3",
                  "--axis", "seed=0,1", "--no-cache"])
        with pytest.raises(SystemExit, match="num_cores"):
            main(["sweep", "--workload", "Cholesky", "--cores", "8",
                  "--axis", "num_cores=4,8", "--no-cache"])

    def test_sweep_seed_axis_without_flag_is_fine(self, capsys):
        assert main(["sweep", "--workload", "Cholesky",
                     "--axis", "seed=0,1", "--scale-factor", "0.2",
                     "--max-tasks", "10", "--fast-generator",
                     "--no-cache"]) == 0
        assert "2 points" in capsys.readouterr().out

    def test_campaign_list(self, capsys):
        from repro.experiments.campaigns import CAMPAIGNS

        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "design-space" in out
        assert "window-ablation" in out
        for name in CAMPAIGNS:
            assert name in out

    def test_campaign_run_and_report_roundtrip(self, tmp_path, capsys):
        args = ["campaign", "run", "--campaign", "window-ablation",
                "--quick", "--seeds", "2", "--artifacts", str(tmp_path)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "ablation vs baseline" in out
        assert "report:" in out
        # A second run is fully cache-served...
        from repro.sweep.runner import trace_cache_clear

        trace_cache_clear()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "campaign totals: 0 points recomputed, 0 traces regenerated" in out
        # ...and `campaign report` reads the stored report back.
        assert main(["campaign", "report", "--campaign", "window-ablation",
                     "--quick", "--seeds", "2",
                     "--artifacts", str(tmp_path)]) == 0
        assert "window-ablation" in capsys.readouterr().out

    def test_campaign_report_before_run_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no report"):
            main(["campaign", "report", "--campaign", "design-space",
                  "--quick", "--artifacts", str(tmp_path)])

    def test_campaign_unknown_name_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown campaign"):
            main(["campaign", "run", "--campaign", "nope",
                  "--artifacts", str(tmp_path)])

    def test_campaign_negative_seeds_rejected(self, tmp_path):
        # range(-2) is empty, which used to fall back to the default ensemble.
        for action in ("run", "report"):
            with pytest.raises(SystemExit, match="--seeds"):
                main(["campaign", action, "--campaign", "window-ablation",
                      "--quick", "--seeds", "-2",
                      "--artifacts", str(tmp_path)])
        assert not any(tmp_path.iterdir()), "a rejected run wrote artifacts"

    @pytest.mark.parametrize("artefact", ["table1", "table2", "fig1", "fig3"])
    def test_experiment_artefacts(self, artefact, capsys):
        assert main(["experiment", artefact]) == 0
        assert capsys.readouterr().out.strip()

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "Quicksort"])

    def test_workload_lookup_is_case_insensitive(self, capsys):
        # choices= used to reject lower-case spellings that the registry
        # itself accepted; the type= resolver normalizes instead.
        assert main(["simulate", "--workload", "cholesky", "--scale", "4",
                     "--cores", "4"]) == 0
        assert "Cholesky" in capsys.readouterr().out

    def test_simulate_synthetic_spec(self, capsys):
        assert main(["simulate", "--workload",
                     "random_dag:width=4,depth=4,runtime_us=2.0",
                     "--cores", "4"]) == 0
        out = capsys.readouterr().out
        assert "random_dag: 16 tasks" in out

    def test_synth_list(self, capsys):
        assert main(["synth", "list"]) == 0
        out = capsys.readouterr().out
        for family in registry.synthetic_names():
            assert family in out
        assert "dep_distance" in out
        # The stress maps are the synthetic-stress campaign now.
        with pytest.raises(SystemExit):
            main(["synth", "stress"])

    def test_invalid_synthetic_params_rejected(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "random_dag:bogus_knob=3"])

    def test_bench_has_no_profile_command(self, capsys):
        # Profiling is `python -m cProfile` plus perfbench's per-layer
        # ledger; `repro bench` keeps only its two checks.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "profile", "--scenario", "h264", "--quick"])
        assert exc.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err
