"""The ``campaign`` workload: registered campaigns, cold then warm.

The quick ``design-space`` and ``window-ablation`` grids run with a wider
seed ensemble through one cached runner with ``jobs=1`` (the CLI default)
and obs telemetry on.  A *cycle* is a cold pass on an empty artifacts
directory followed by warm passes on the filled one; every pass is
``run_campaign`` plus ``write_report`` for both campaigns, as
``repro campaign run`` does.  A pass that raises fails every point it
holds; the run goes on.
"""

from __future__ import annotations

import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from perfbench import checks, common
from perfbench.tracer import CAMPAIGN_TARGETS, Patches, Tracer

CAMPAIGNS = ("design-space", "window-ablation")

#: Seed ensemble width: 20 design points x 8 seeds = 160 points per pass.
SEEDS = 8

#: Warm passes per cycle (a warm pass is short, so its median needs more).
WARM_PASSES = 12

IMPORTS = ("repro.experiments.campaigns", "repro.sweep.campaign",
           "repro.sweep.runner", "repro.sweep.cache", "repro.obs.report")

#: Report fields that count work done by one pass, not its results.
_ACCOUNTING = ("computed_points", "cached_points", "trace_generated",
               "trace_reused", "recomputed_points", "regenerated_traces")


def report_content(report) -> Dict[str, object]:
    """A report without its per-pass accounting (what must never change)."""
    data = report.to_dict()
    for key in _ACCOUNTING:
        data.pop(key, None)
    for member in data["members"]:
        for key in _ACCOUNTING:
            member.pop(key, None)
    return data


@dataclass
class Pass:
    seconds: float
    points: int
    computed: int
    generated: int
    reused: int
    cached: int
    retried: int
    quarantined: int
    failed: int
    digest: str = ""
    #: Why points of the pass failed their checks; empty when none did.
    problem: str = ""
    layers: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)


class CampaignBench:
    """Set-up, warm-up and measured cycles of the campaign workload."""

    def __init__(self, seed: int, workdir: Path):
        self.seeds = tuple(range(seed, seed + SEEDS))
        self.workdir = Path(workdir)
        self.campaigns: List[object] = []
        self.reference: Optional[List[Dict[str, object]]] = None
        self.digest = ""
        self._dirs = 0

    def setup_seconds(self, probe: common.HostProbe) -> float:
        """Import ``repro`` and build the campaigns (``probe`` as in
        :meth:`perfbench.simbench.SimBench.setup_seconds`)."""
        from repro.experiments.campaigns import get_campaign

        imports = common.import_seconds(IMPORTS, probe)
        samples = []
        for _ in range(common.SETUP_REPEATS + 1):
            probe.sample()
            start = perf_counter()
            campaigns = [get_campaign(name, seeds=self.seeds, quick=True)
                         for name in CAMPAIGNS]
            for campaign in campaigns:
                campaign.validate()
            samples.append(perf_counter() - start)
        self.campaigns = campaigns
        return imports + common.median(samples[1:])

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"artifacts-{self._dirs}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def points(self) -> int:
        return sum(spec.cardinality for campaign in self.campaigns
                   for spec in campaign.member_specs())

    def cached_results(self, artifacts: Path) -> list:
        """``(point_id, result)`` of every point in spec order (result None
        when missing from the cache)."""
        from repro.sweep import ResultCache

        cache = ResultCache(artifacts)
        return [(point.point_id, cache.get(point))
                for campaign in self.campaigns
                for spec in campaign.member_specs() for point in spec.points()]

    def run_pass(self, artifacts: Path, cold: bool,
                 tracer: Optional[Tracer] = None) -> Pass:
        """One timed pass over both campaigns; checks run afterwards."""
        from repro.sweep.runner import configure_observability, \
            trace_cache_clear

        # A fresh CLI process starts with an empty in-process trace memo.
        trace_cache_clear()
        common.settle()
        previous = configure_observability(str(artifacts / "obs"))
        patches = Patches(tracer, CAMPAIGN_TARGETS) if tracer else nullcontext()
        before = tracer.snapshot() if tracer else None
        reports, error = None, ""
        try:
            with patches:
                start = perf_counter()
                try:
                    reports = tracer.call(
                        "sweep.runner", self._campaigns, (artifacts,), {}) \
                        if tracer else self._campaigns(artifacts)
                except Exception as exc:  # a failed pass, counted as such
                    error = f"{type(exc).__name__}: {exc}"
                seconds = perf_counter() - start
        finally:
            configure_observability(previous)
        traced = None
        if tracer:
            after = tracer.snapshot()
            traced = ({k: v - before[0].get(k, 0.0)
                       for k, v in after[0].items()},
                      {k: v - before[1].get(k, 0)
                       for k, v in after[1].items()})
        if reports is None:
            return self._failed(seconds, error, traced)
        return self._check(reports, seconds, cold, artifacts, traced)

    def _campaigns(self, artifacts: Path) -> list:
        """What ``repro campaign run --jobs 1 --obs-dir`` does per campaign."""
        from repro.sweep import ResultCache, default_runner
        from repro.sweep.campaign import run_campaign, write_report

        cache = ResultCache(artifacts)
        runner = default_runner(jobs=1, cache=cache)
        reports = []
        for campaign in self.campaigns:
            report = run_campaign(campaign, runner)
            write_report(report, cache)
            reports.append(report)
        return reports

    def _failed(self, seconds: float, error: str, traced) -> Pass:
        """A pass that raised: every point of it failed."""
        points = self.points()
        done = Pass(seconds=seconds, points=points, computed=0, generated=0,
                    reused=0, cached=0, retried=0, quarantined=0,
                    failed=points, problem=error)
        if traced:
            done.layers, done.calls = traced
        return done

    def _check(self, reports, seconds: float, cold: bool, artifacts: Path,
               traced) -> Pass:
        points = self.points()
        members = [m for report in reports for m in report.members]
        done = Pass(
            seconds=seconds, points=points,
            computed=sum(m.computed_points for m in members),
            cached=sum(m.cached_points for m in members),
            generated=sum(m.trace_generated for m in members),
            reused=sum(m.trace_reused for m in members),
            retried=sum(m.retried_points for m in members),
            quarantined=sum(m.corrupt_artifacts for m in members),
            failed=0)
        content = [report_content(report) for report in reports]
        if self.reference is None:
            self.reference = content
        failed = done.retried + done.quarantined
        if not cold:
            failed += done.computed + done.generated
        if cold:
            done.digest = checks.result_digest(
                result for _, result in self.cached_results(artifacts))
            if not self.digest:
                self.digest = done.digest
        problems = []
        if done.retried or done.quarantined:
            problems.append(f"{done.retried} retried, {done.quarantined} "
                            "quarantined")
        if not cold and (done.computed or done.generated):
            problems.append(f"warm pass computed {done.computed} point(s), "
                            f"generated {done.generated} trace(s)")
        if content != self.reference or (cold and done.digest != self.digest):
            failed = points
            problems.append("report or results differ from the first pass")
        done.failed = min(points, failed)
        done.problem = "; ".join(problems)
        if traced:
            done.layers, done.calls = traced
        return done
