"""Tests for the scenario-campaign subsystem (:mod:`repro.sweep.campaign`).

The acceptance-critical scenarios:

* a seed-ensemble campaign (>= 3 seeds, >= 2 workloads) produces per-point
  mean/std/CI summaries that match a hand-computed reduction of the
  per-seed runs,
* the report is bit-identical between ``jobs=1`` and ``jobs=2`` runners,
* a second ``run_campaign`` against the same artifacts is fully
  cache-served: zero recomputed points, zero regenerated traces, and a
  widened ensemble simulates only the new seeds,
* the ablation helpers emit baseline-relative deltas per capacity knob.
"""

from __future__ import annotations

import csv
import json
import math

import pytest

from repro.common.errors import ConfigurationError
from repro.sweep import ResultCache, SweepRunner
from repro.sweep.campaign import (Ablation, Campaign, CampaignReport,
                                  MetricSummary, aggregate_run,
                                  ablation_deltas, campaign_dir, format_report,
                                  group_id_of, load_report, run_campaign,
                                  write_report)
from repro.sweep.runner import trace_cache_clear
from repro.sweep.spec import SweepSpec, spec_id_of


def tiny_member(name="grid", workloads=("Cholesky", "MatMul"), **base_extra):
    base = {"num_cores": 8, "scale_factor": 0.2, "max_tasks": 25,
            "fast_generator": True}
    base.update(base_extra)
    return SweepSpec(name=name, workloads=workloads,
                     axes={"frontend.num_trs": (1, 2)}, base=base)


def tiny_campaign(seeds=(0, 1, 2), **kwargs) -> Campaign:
    return Campaign(name="tiny-campaign", members=(tiny_member(),),
                    seeds=seeds, **kwargs)


class TestMetricSummary:
    def test_hand_computed_reduction(self):
        values = [2.0, 4.0, 9.0]
        summary = MetricSummary.of(values)
        mean = 5.0
        std = math.sqrt(((2 - mean) ** 2 + (4 - mean) ** 2 + (9 - mean) ** 2) / 2)
        assert summary.n == 3
        assert summary.mean == pytest.approx(mean)
        assert summary.std == pytest.approx(std)
        assert summary.minimum == 2.0
        assert summary.maximum == 9.0
        assert summary.ci95 == pytest.approx(1.96 * std / math.sqrt(3))

    def test_single_sample_has_zero_spread(self):
        summary = MetricSummary.of([7.5])
        assert summary.mean == 7.5
        assert summary.std == 0.0
        assert summary.ci95 == 0.0
        with pytest.raises(ValueError):
            MetricSummary.of([])

    def test_roundtrip(self):
        summary = MetricSummary.of([1.0, 2.0])
        assert MetricSummary.from_dict(summary.to_dict()) == summary


class TestCampaignValidation:
    def test_member_seed_axis_is_rejected(self):
        spec = SweepSpec(name="bad", workloads=("Cholesky",),
                         axes={"seed": (0, 1)})
        with pytest.raises(ConfigurationError, match="'seed' axis"):
            Campaign(name="c", members=(spec,), seeds=(0, 1)).validate()
        linked = SweepSpec(name="bad", workloads=("Cholesky",),
                           axes={"combo": [{"seed": 0}, {"seed": 1}]})
        with pytest.raises(ConfigurationError, match="'seed' axis"):
            Campaign(name="c", members=(linked,)).validate()

    def test_member_base_seed_is_rejected(self):
        spec = tiny_member(seed=3)
        with pytest.raises(ConfigurationError, match="base parameters"):
            Campaign(name="c", members=(spec,)).validate()

    def test_duplicate_member_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            Campaign(name="c",
                     members=(tiny_member("a"), tiny_member("a"))).validate()

    def test_bad_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one seed"):
            Campaign(name="c", members=(tiny_member(),), seeds=()).validate()
        with pytest.raises(ConfigurationError, match="duplicate"):
            Campaign(name="c", members=(tiny_member(),),
                     seeds=(0, "0")).validate()
        with pytest.raises(ConfigurationError, match="integers"):
            Campaign(name="c", members=(tiny_member(),),
                     seeds=(0.5,)).validate()

    def test_repeated_design_point_rejected(self):
        # Two linked-axis values that apply the same overrides would list
        # every seed of that design point twice (n=4 from two seeds).
        spec = SweepSpec(name="clamped", workloads=("Cholesky",),
                         axes={"capacity": [{"frontend.num_trs": 4},
                                            {"frontend.num_trs": 4},
                                            {"frontend.num_trs": 8}]})
        with pytest.raises(ConfigurationError,
                           match="member 'clamped' repeats the design point "
                                 "'Cholesky frontend.num_trs=4'"):
            Campaign(name="c", members=(spec,), seeds=(0, 1)).validate()

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ConfigurationError, match="baseline"):
            Campaign(name="c", members=(tiny_member(),),
                     baseline="nope").validate()

    def test_member_specs_append_seed_axis_fastest(self):
        campaign = tiny_campaign(seeds=(4, 5))
        derived = campaign.member_specs()[0]
        assert list(derived.axes)[-1] == "seed"
        points = derived.points()
        # seed varies fastest: consecutive points differ only in seed.
        assert [p.as_dict()["seed"] for p in points[:2]] == [4, 5]
        assert (group_id_of(points[0].as_dict())
                == group_id_of(points[1].as_dict()))

    def test_campaign_id_depends_on_content_not_spec_order_noise(self):
        assert (tiny_campaign().campaign_id
                == tiny_campaign().campaign_id)
        assert (tiny_campaign(seeds=(0, 1)).campaign_id
                != tiny_campaign(seeds=(0, 2)).campaign_id)


class TestAggregation:
    def test_ensemble_matches_hand_computed_per_seed_reduction(self, tmp_path):
        """Acceptance: >=3 seeds x >=2 workloads, mean/std/CI per point."""
        campaign = tiny_campaign(seeds=(0, 1, 2))
        report = run_campaign(campaign,
                              SweepRunner(cache=ResultCache(tmp_path)))
        member = report.members[0]
        # 2 workloads x 2 TRS settings = 4 design points, 3 seeds each.
        assert len(member.groups) == 4
        assert all(group.seeds == [0, 1, 2] for group in member.groups)

        # Recompute the reduction by hand from individual per-seed runs.
        spec = campaign.member_specs()[0]
        run = SweepRunner(cache=ResultCache(tmp_path)).run(spec)
        per_group = {}
        for point, result in run:
            gid = group_id_of(point.as_dict())
            per_group.setdefault(gid, []).append(result.speedup)
        for group in member.groups:
            values = per_group[group.group_id]
            n = len(values)
            mean = sum(values) / n
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
            cell = group.metrics["speedup"]
            assert cell.n == 3
            assert cell.mean == pytest.approx(mean)
            assert cell.std == pytest.approx(std)
            assert cell.minimum == pytest.approx(min(values))
            assert cell.maximum == pytest.approx(max(values))
            assert cell.ci95 == pytest.approx(1.96 * std / math.sqrt(n))

    def test_serial_and_parallel_reports_are_bit_identical(self, tmp_path):
        campaign = tiny_campaign(seeds=(0, 1, 2))
        serial = run_campaign(
            campaign, SweepRunner(cache=ResultCache(tmp_path / "s")))
        parallel = run_campaign(
            campaign, SweepRunner(jobs=2, cache=ResultCache(tmp_path / "p")))
        strip = ("computed_points", "cached_points", "trace_generated",
                 "trace_reused", "recomputed_points", "regenerated_traces")

        def canonical(report):
            data = report.to_dict()
            data = {k: v for k, v in data.items() if k not in strip}
            data["members"] = [{k: v for k, v in member.items()
                                if k not in strip}
                               for member in data["members"]]
            return json.dumps(data, sort_keys=True)

        assert canonical(serial) == canonical(parallel)

    def test_second_run_is_fully_cache_served(self, tmp_path):
        """Acceptance: zero recomputed points, zero regenerated traces."""
        campaign = tiny_campaign(seeds=(0, 1, 2))
        trace_cache_clear()
        first = run_campaign(campaign,
                             SweepRunner(cache=ResultCache(tmp_path)))
        assert first.recomputed_points == 12
        assert first.regenerated_traces > 0
        trace_cache_clear()  # the rerun must be served by the *disk* stores
        second = run_campaign(campaign,
                              SweepRunner(cache=ResultCache(tmp_path)))
        assert second.recomputed_points == 0
        assert second.regenerated_traces == 0
        assert [m.cached_points for m in second.members] == [12]

    def test_widened_ensemble_simulates_only_new_seeds(self, tmp_path):
        trace_cache_clear()
        run_campaign(tiny_campaign(seeds=(0, 1)),
                     SweepRunner(cache=ResultCache(tmp_path)))
        widened = run_campaign(tiny_campaign(seeds=(0, 1, 2)),
                               SweepRunner(cache=ResultCache(tmp_path)))
        # 4 design points x 1 new seed; the old 8 points come from the cache.
        assert widened.recomputed_points == 4
        assert widened.members[0].cached_points == 8

    def test_group_progress_streams_each_design_point_once(self, tmp_path):
        campaign = tiny_campaign(seeds=(0, 1))
        events = []
        run_campaign(campaign,
                     SweepRunner(cache=ResultCache(tmp_path)),
                     progress=lambda member, group, done, total:
                         events.append((member, group.group_id, done, total)))
        assert len(events) == 4
        assert [e[2] for e in events] == [1, 2, 3, 4]
        assert all(e[3] == 4 for e in events)
        assert len({e[1] for e in events}) == 4

    def test_each_grid_is_expanded_once_per_pass(self, tmp_path, monkeypatch):
        campaign = Campaign(
            name="two-members", seeds=(0, 1),
            members=(tiny_member("a", workloads=("Cholesky",)),
                     tiny_member("b", workloads=("MatMul",))))
        expanded = []
        points = SweepSpec.points

        def counting_points(spec):
            expanded.append(spec.name)
            return points(spec)

        monkeypatch.setattr(SweepSpec, "points", counting_points)
        report = run_campaign(campaign,
                              SweepRunner(cache=ResultCache(tmp_path)))
        # Validation expands each declared member once (to reject repeated
        # design points), the runner each derived member once; the ids
        # reuse the runner's points.
        assert expanded == ["a", "b", "two-members:a", "two-members:b"]
        monkeypatch.undo()
        assert report.campaign_id == campaign.campaign_id
        assert ([member.spec_id for member in report.members]
                == [spec_id_of(spec.points())
                    for spec in campaign.member_specs()])


class TestAblation:
    def ablation(self) -> Ablation:
        return Ablation(
            name="tiny-ablation",
            workloads=("Cholesky",),
            axes={"num_cores": (8,)},
            base={"scale_factor": 0.2, "max_tasks": 25,
                  "fast_generator": True},
            variants={
                "ort-half": {"frontend.num_ort": 1},
                "trs-double": {"frontend.num_trs": 16},
            })

    def test_deltas_are_baseline_relative(self, tmp_path):
        campaign = self.ablation().campaign(seeds=(0, 1))
        report = run_campaign(campaign,
                              SweepRunner(cache=ResultCache(tmp_path)))
        assert report.baseline == "baseline"
        assert len(report.ablation) == 2  # 2 variants x 1 design point
        baseline = report.member("baseline").groups[0]
        for delta in report.ablation:
            variant_group = report.member(delta.variant).groups[0]
            for name in report.metrics:
                base, var, rel = delta.metrics[name]
                assert base == pytest.approx(baseline.metrics[name].mean)
                assert var == pytest.approx(variant_group.metrics[name].mean)
                if base != 0.0:
                    assert rel == pytest.approx((var - base) / base)
                else:
                    assert rel is None
        # Halving the ORT/OVT lane count must slow decode measurably: the
        # capacity knob shows a positive relative delta in cycles/task.
        ort = [d for d in report.ablation if d.variant == "ort-half"][0]
        assert ort.metrics["decode_rate_cycles"][2] > 0.05

    def test_variant_grids_must_match_baseline(self):
        report = CampaignReport(
            campaign="x", campaign_id="deadbeef", seeds=[0],
            metrics=["speedup"], baseline="baseline", members=[])
        with pytest.raises(KeyError):
            report.member("baseline")
        with pytest.raises(ConfigurationError):
            ablation_deltas(CampaignReport(
                campaign="x", campaign_id="d", seeds=[0],
                metrics=["speedup"], baseline=None, members=[]))

    def test_empty_or_reserved_variants_rejected(self):
        with pytest.raises(ConfigurationError, match="no variants"):
            Ablation(name="a", workloads=("Cholesky",),
                     variants={}).campaign()
        with pytest.raises(ConfigurationError, match="reserved"):
            Ablation(name="a", workloads=("Cholesky",),
                     variants={"baseline": {"num_cores": 1}}).campaign()
        with pytest.raises(ConfigurationError, match="overrides nothing"):
            Ablation(name="a", workloads=("Cholesky",),
                     variants={"v": {}}).campaign()


class TestReportPersistence:
    def test_report_roundtrip_json_and_csv(self, tmp_path):
        campaign = tiny_campaign(seeds=(0, 1))
        cache = ResultCache(tmp_path)
        report = run_campaign(campaign, SweepRunner(cache=cache))
        directory = write_report(report, cache)
        assert directory == campaign_dir(cache, campaign.campaign_id)

        reloaded = load_report(directory)
        assert (json.dumps(reloaded.to_dict(), sort_keys=True)
                == json.dumps(report.to_dict(), sort_keys=True))

        with open(directory / "summary.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        # one row per (member, group, metric)
        assert len(rows) == 1 * 4 * len(report.metrics)
        first = rows[0]
        group = report.members[0].groups[0]
        assert first["member"] == "grid"
        assert first["workload"] == "Cholesky"
        assert float(first["mean"]) == pytest.approx(
            group.metrics[report.metrics[0]].mean)
        assert int(first["n"]) == 2

    def test_ablation_csv_written_when_baseline_declared(self, tmp_path):
        ablation = TestAblation().ablation()
        cache = ResultCache(tmp_path)
        report = run_campaign(ablation.campaign(seeds=(0,)),
                              SweepRunner(cache=cache))
        directory = write_report(report, cache)
        with open(directory / "ablation.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 * len(report.metrics)
        assert {row["variant"] for row in rows} == {"ort-half", "trs-double"}

    def test_format_report_mentions_every_member(self, tmp_path):
        report = run_campaign(tiny_campaign(seeds=(0,)),
                              SweepRunner(cache=ResultCache(tmp_path)))
        text = format_report(report)
        assert "tiny-campaign" in text
        assert "member grid" in text
        assert "speedup" in text

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema": 999}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="schema"):
            load_report(path)


class TestDrivers:
    def test_registered_campaigns_build_and_validate(self):
        from repro.experiments.campaigns import CAMPAIGNS, get_campaign

        for name in CAMPAIGNS:
            for quick in (True, False):
                campaign = get_campaign(name, seeds=range(2), quick=quick)
                campaign.validate()
                assert campaign.describe()
        with pytest.raises(ValueError, match="unknown campaign"):
            get_campaign("nope")

    def test_window_ablation_declares_capacity_variants(self):
        from repro.experiments.campaigns import window_ablation

        ablation = window_ablation(quick=True)
        assert "ort-ovt-half" in ablation.variants
        campaign = ablation.campaign(seeds=(0, 1))
        assert campaign.baseline == "baseline"
        assert len(campaign.members) == 4  # baseline + 3 variants
