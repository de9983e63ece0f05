"""Scenario campaigns: seed ensembles, design-space grids, ablation reports.

Every figure in the paper is a *family* of sweeps; a :class:`Campaign`
composes named :class:`~repro.sweep.spec.SweepSpec` members with a
seed-ensemble axis and an aggregation layer:

* **Seed ensembles** -- ``Campaign(..., seeds=range(5))`` appends a ``seed``
  axis (varying fastest) to every member spec, so each design point is
  simulated once per seed and the cache keys stay plain sweep points.
* **Aggregation** -- :func:`aggregate_run` groups a member's results by
  their seed-free parameters and reduces every metric to
  mean / std / min / max / 95% CI per point (:class:`MetricSummary`).
  Aggregation is pure arithmetic over bit-identical runner output, so a
  campaign report is itself bit-identical for every runner ``jobs``.
* **Ablations** -- :class:`Ablation` builds a campaign whose members share
  one grid but differ in a declared baseline vs. variant parameter set
  (e.g. ORT/OVT capacity halved); :func:`ablation_deltas` then emits
  baseline-relative deltas per metric per point.
* **Reports** -- :func:`write_report` serialises to JSON and CSV under
  ``<artifacts>/campaigns/<campaign_id>/`` where ``campaign_id`` is a
  content address of the fully expanded member grids.  Because every
  underlying point lives in the content-addressed
  :class:`~repro.sweep.cache.ResultCache` (and every trace in the
  :class:`~repro.trace.store.TraceStore`), re-running a campaign recomputes
  nothing and widening the seed ensemble simulates only the new seeds; the
  report's ``recomputed_points`` / ``regenerated_traces`` totals make that
  observable.

The member specs must not declare their own ``seed`` axis or base override:
the ensemble owns seeding, and a silently shadowed seed is exactly the bug
class ``repro sweep --seed`` vs. a ``seed`` axis exhibits at the CLI.  Nor
may a member list one design point twice (e.g. a linked axis whose values
apply the same overrides): aggregation would count its seeds twice.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.common.errors import ConfigurationError
from repro.common.fileio import (atomic_write_text, read_verified_json,
                                 write_verified_json)
from repro.common.hashing import content_digest
from repro.sweep.cache import ResultCache
from repro.sweep.runner import SweepRun, SweepRunner
from repro.sweep.spec import ParamValue, SweepPoint, SweepSpec, canonical_scalar

#: Bump when the report layout changes; stale reports are rewritten.
#: 2: reports carry per-member resilience counters (``retried_points``,
#: ``corrupt_artifacts``) and a top-level content ``digest`` verified by
#: :func:`load_report`.
REPORT_SCHEMA = 2

#: The ensemble axis appended (varying fastest) to every member spec.
SEED_AXIS = "seed"

#: Result attributes aggregated per design point, in report order.
DEFAULT_METRICS: Tuple[str, ...] = (
    "speedup",
    "makespan_cycles",
    "decode_rate_cycles",
    "window_peak_tasks",
    "window_mean_tasks",
    "core_utilization",
    "ready_queue_peak",
)

#: z-score of the two-sided 95% confidence interval (normal approximation;
#: with the small ensembles used here the CI is indicative, not exact).
_Z95 = 1.96


@dataclass(frozen=True)
class MetricSummary:
    """Ensemble statistics of one metric at one design point."""

    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci95: float  #: half-width of the 95% confidence interval of the mean

    @staticmethod
    def of(values: Sequence[float]) -> "MetricSummary":
        """Reduce per-seed observations (sample std, ddof=1)."""
        if not values:
            raise ValueError("cannot summarise an empty sample")
        n = len(values)
        mean = sum(values) / n
        if n > 1:
            var = sum((v - mean) ** 2 for v in values) / (n - 1)
            std = math.sqrt(var)
        else:
            std = 0.0
        return MetricSummary(n=n, mean=mean, std=std,
                             minimum=min(values), maximum=max(values),
                             ci95=_Z95 * std / math.sqrt(n))

    def to_dict(self) -> Dict[str, float]:
        return {"n": self.n, "mean": self.mean, "std": self.std,
                "min": self.minimum, "max": self.maximum, "ci95": self.ci95}

    @staticmethod
    def from_dict(data: Mapping[str, float]) -> "MetricSummary":
        return MetricSummary(n=int(data["n"]), mean=data["mean"],
                             std=data["std"], minimum=data["min"],
                             maximum=data["max"], ci95=data["ci95"])


def params_label(params: Mapping[str, ParamValue]) -> str:
    """Compact non-default rendering of a parameter dict (point label rules)."""
    return SweepPoint(index=0, params=tuple(sorted(params.items()))).label()


@dataclass
class PointGroup:
    """One design point of a member spec: every seed of one configuration."""

    params: Dict[str, ParamValue]  #: the point's parameters, minus ``seed``
    group_id: str                  #: content address of ``params``
    seeds: List[int]               #: the ensemble seeds, in spec order
    metrics: Dict[str, MetricSummary]

    def label(self) -> str:
        """Compact non-default parameter rendering (same rules as points)."""
        return params_label(self.params)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "params": dict(self.params),
            "group_id": self.group_id,
            "seeds": list(self.seeds),
            "metrics": {name: summary.to_dict()
                        for name, summary in self.metrics.items()},
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "PointGroup":
        return PointGroup(
            params=dict(data["params"]),
            group_id=data["group_id"],
            seeds=list(data["seeds"]),
            metrics={name: MetricSummary.from_dict(summary)
                     for name, summary in data["metrics"].items()})


def group_params(params: Mapping[str, ParamValue]) -> Dict[str, ParamValue]:
    """A point's parameters with the ensemble axis removed."""
    return {name: value for name, value in params.items() if name != SEED_AXIS}


def group_id_of(params: Mapping[str, ParamValue]) -> str:
    """Content address of a design point (the seed-free parameters)."""
    return content_digest(group_params(params))


def aggregate_run(run: SweepRun,
                  metrics: Sequence[str] = DEFAULT_METRICS) -> List[PointGroup]:
    """Group a member run by seed-free parameters and reduce every metric.

    Groups appear in first-seen spec order; within a group the seeds keep
    spec order too, so the reduction is deterministic and identical for
    every runner ``jobs`` (whose results are already bit-identical).
    """
    order: List[str] = []
    by_id: Dict[str, Tuple[Dict[str, ParamValue], List[int], Dict[str, List[float]]]] = {}
    for point, result in run:
        params = point.as_dict()
        gid = group_id_of(params)
        if gid not in by_id:
            order.append(gid)
            by_id[gid] = (group_params(params), [], {name: [] for name in metrics})
        _, seeds, values = by_id[gid]
        seeds.append(int(params.get(SEED_AXIS, 0)))
        for name in metrics:
            values[name].append(float(getattr(result, name)))
    groups: List[PointGroup] = []
    for gid in order:
        params, seeds, values = by_id[gid]
        groups.append(PointGroup(
            params=params, group_id=gid, seeds=seeds,
            metrics={name: MetricSummary.of(series)
                     for name, series in values.items()}))
    return groups


def campaign_id_of(grids: Mapping[str, Sequence[SweepPoint]]) -> str:
    """Content address of expanded member grids, keyed by derived spec name.

    :func:`run_campaign` passes the points its runs already expanded, so the
    id costs no second expansion; :attr:`Campaign.campaign_id` expands them.
    """
    return content_digest({name: [point.as_dict() for point in points]
                           for name, points in grids.items()})


@dataclass
class Campaign:
    """A named family of sweeps sharing one seed ensemble.

    Attributes:
        name: Campaign name (directory-friendly; used in reports and logs).
        members: The member specs, each with a unique ``name``.  Members must
            not declare ``seed`` themselves -- the ensemble owns it -- nor
            expand to one design point twice.
        seeds: The ensemble; every member point is simulated once per seed.
        baseline: Optional member name the others are ablation variants of;
            enables :func:`ablation_deltas` on the report.
        metrics: Result attributes to aggregate.
    """

    name: str
    members: Sequence[SweepSpec]
    seeds: Sequence[int] = (0,)
    baseline: Optional[str] = None
    metrics: Sequence[str] = DEFAULT_METRICS

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on malformed campaigns."""
        if not self.name:
            raise ConfigurationError("campaign name must be non-empty")
        if not self.members:
            raise ConfigurationError("campaign needs at least one member spec")
        names = [spec.name for spec in self.members]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"campaign member names must be unique, got {names}")
        if not self.seeds:
            raise ConfigurationError("campaign needs at least one seed")
        seeds = [canonical_scalar(seed) for seed in self.seeds]
        if any(not isinstance(seed, int) or isinstance(seed, bool)
               for seed in seeds):
            raise ConfigurationError(f"seeds must be integers, got {list(self.seeds)}")
        if len(set(seeds)) != len(seeds):
            raise ConfigurationError(f"duplicate seeds in {list(self.seeds)}")
        if self.baseline is not None and self.baseline not in names:
            raise ConfigurationError(
                f"baseline member {self.baseline!r} is not one of {names}")
        for spec in self.members:
            spec.validate()
            if SEED_AXIS in spec.axis_parameter_names():
                raise ConfigurationError(
                    f"member {spec.name!r} declares its own 'seed' axis; the "
                    "campaign's seed ensemble would silently shadow it -- "
                    "drop the axis or the ensemble")
            if SEED_AXIS in spec.base:
                raise ConfigurationError(
                    f"member {spec.name!r} sets 'seed' in its base parameters; "
                    "the campaign's seed ensemble owns seeding")
            seen = set()
            for point in spec.points():
                if point.params in seen:
                    raise ConfigurationError(
                        f"member {spec.name!r} repeats the design point "
                        f"{point.label()!r}; its ensemble would be counted "
                        "twice -- list each configuration once")
                seen.add(point.params)

    def member_specs(self) -> List[SweepSpec]:
        """The specs actually run: each member plus the ensemble axis.

        The ``seed`` axis is appended last so it varies fastest and every
        design point's seeds are contiguous in point order.
        """
        self.validate()
        derived = []
        for spec in self.members:
            axes = dict(spec.axes)
            axes[SEED_AXIS] = [int(canonical_scalar(seed)) for seed in self.seeds]
            derived.append(SweepSpec(name=f"{self.name}:{spec.name}",
                                     workloads=tuple(spec.workloads),
                                     axes=axes, base=dict(spec.base)))
        return derived

    @property
    def campaign_id(self) -> str:
        """Content address of the fully expanded member grids.

        Depends only on *what* is simulated (member names + their expanded
        point parameters), so the report directory has the same
        resume-safe semantics as the result cache: the same campaign always
        lands in the same place, on any machine.
        """
        return campaign_id_of({spec.name: spec.points()
                               for spec in self.member_specs()})

    def describe(self) -> str:
        """One-line summary for logs and the CLI (expands no grid)."""
        points = (sum(spec.cardinality for spec in self.members)
                  * len(self.seeds))
        return (f"campaign {self.name!r}: {len(self.members)} member(s) x "
                f"{len(self.seeds)} seed(s) = {points} points")


@dataclass
class MemberReport:
    """Aggregated outcome of one campaign member."""

    name: str                 #: the member's declared (not derived) name
    spec_id: str
    workloads: List[str]
    groups: List[PointGroup]
    computed_points: int
    cached_points: int
    trace_generated: int
    trace_reused: int
    #: Points re-dispatched after worker crashes / timeouts during this run.
    retried_points: int = 0
    #: Corrupt artifacts quarantined while serving this member.
    corrupt_artifacts: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "spec_id": self.spec_id,
            "workloads": list(self.workloads),
            "groups": [group.to_dict() for group in self.groups],
            "computed_points": self.computed_points,
            "cached_points": self.cached_points,
            "trace_generated": self.trace_generated,
            "trace_reused": self.trace_reused,
            "retried_points": self.retried_points,
            "corrupt_artifacts": self.corrupt_artifacts,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "MemberReport":
        return MemberReport(
            name=data["name"], spec_id=data["spec_id"],
            workloads=list(data["workloads"]),
            groups=[PointGroup.from_dict(group) for group in data["groups"]],
            computed_points=int(data["computed_points"]),
            cached_points=int(data["cached_points"]),
            trace_generated=int(data["trace_generated"]),
            trace_reused=int(data["trace_reused"]),
            retried_points=int(data.get("retried_points", 0)),
            corrupt_artifacts=int(data.get("corrupt_artifacts", 0)))


@dataclass
class AblationDelta:
    """One variant design point diffed against its baseline twin."""

    variant: str                     #: variant member name
    params: Dict[str, ParamValue]    #: the variant group's parameters
    group_id: str
    baseline_group_id: str
    #: metric -> (baseline mean, variant mean, relative delta).  The relative
    #: delta is ``(variant - baseline) / baseline``, or ``None`` when the
    #: baseline mean is zero.
    metrics: Dict[str, Tuple[float, float, Optional[float]]]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "variant": self.variant,
            "params": dict(self.params),
            "group_id": self.group_id,
            "baseline_group_id": self.baseline_group_id,
            "metrics": {name: {"baseline": base, "variant": var,
                               "rel_delta": delta}
                        for name, (base, var, delta) in self.metrics.items()},
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "AblationDelta":
        return AblationDelta(
            variant=data["variant"], params=dict(data["params"]),
            group_id=data["group_id"],
            baseline_group_id=data["baseline_group_id"],
            metrics={name: (cell["baseline"], cell["variant"],
                            cell["rel_delta"])
                     for name, cell in data["metrics"].items()})


@dataclass
class CampaignReport:
    """Everything a campaign run produced, ready to serialise."""

    campaign: str
    campaign_id: str
    seeds: List[int]
    metrics: List[str]
    members: List[MemberReport]
    baseline: Optional[str] = None
    ablation: List[AblationDelta] = field(default_factory=list)

    @property
    def recomputed_points(self) -> int:
        """Points simulated (not cache-served) by this run, all members."""
        return sum(member.computed_points for member in self.members)

    @property
    def regenerated_traces(self) -> int:
        """Traces generated (not store/memo-served) by this run."""
        return sum(member.trace_generated for member in self.members)

    @property
    def retried_points(self) -> int:
        """Point retries (crash/timeout recoveries) across all members."""
        return sum(member.retried_points for member in self.members)

    @property
    def corrupt_artifacts(self) -> int:
        """Corrupt artifacts quarantined across all members."""
        return sum(member.corrupt_artifacts for member in self.members)

    def member(self, name: str) -> MemberReport:
        """The member report called ``name``."""
        for member in self.members:
            if member.name == name:
                return member
        raise KeyError(f"no campaign member named {name!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "campaign": self.campaign,
            "campaign_id": self.campaign_id,
            "seeds": list(self.seeds),
            "metrics": list(self.metrics),
            "baseline": self.baseline,
            "members": [member.to_dict() for member in self.members],
            "ablation": [delta.to_dict() for delta in self.ablation],
            "recomputed_points": self.recomputed_points,
            "regenerated_traces": self.regenerated_traces,
            "retried_points": self.retried_points,
            "corrupt_artifacts": self.corrupt_artifacts,
        }

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "CampaignReport":
        if data.get("schema") != REPORT_SCHEMA:
            raise ConfigurationError(
                f"unsupported campaign report schema {data.get('schema')!r}")
        return CampaignReport(
            campaign=data["campaign"], campaign_id=data["campaign_id"],
            seeds=list(data["seeds"]), metrics=list(data["metrics"]),
            baseline=data.get("baseline"),
            members=[MemberReport.from_dict(m) for m in data["members"]],
            ablation=[AblationDelta.from_dict(d)
                      for d in data.get("ablation", [])])


# -- Ablation grids ----------------------------------------------------------

@dataclass
class Ablation:
    """A variant grid diffed against a declared baseline configuration.

    All members share ``workloads`` / ``axes`` / ``base``; the baseline
    member applies ``baseline_overrides`` on top, and each variant applies
    its own overrides *on top of the baseline's* (so a variant only names
    the knobs it changes, e.g. ``{"frontend.num_ort": 1}`` for a
    capacity-halving study).  :meth:`campaign` yields a :class:`Campaign`
    whose members all expand to identical grids, which is what lets
    :func:`ablation_deltas` pair variant and baseline points positionally.
    """

    name: str
    workloads: Sequence[str]
    variants: Mapping[str, Mapping[str, ParamValue]]
    baseline_overrides: Mapping[str, ParamValue] = field(default_factory=dict)
    axes: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    base: Mapping[str, ParamValue] = field(default_factory=dict)

    BASELINE_MEMBER = "baseline"

    def campaign(self, seeds: Sequence[int] = (0,),
                 metrics: Sequence[str] = DEFAULT_METRICS) -> Campaign:
        """Compose the baseline + variant members into a campaign."""
        if not self.variants:
            raise ConfigurationError(
                f"ablation {self.name!r} declares no variants")
        if self.BASELINE_MEMBER in self.variants:
            raise ConfigurationError(
                f"variant name {self.BASELINE_MEMBER!r} is reserved for the "
                "baseline member")
        members = [SweepSpec(name=self.BASELINE_MEMBER,
                             workloads=tuple(self.workloads),
                             axes=dict(self.axes),
                             base={**self.base, **self.baseline_overrides})]
        for variant, overrides in self.variants.items():
            if not overrides:
                raise ConfigurationError(
                    f"variant {variant!r} overrides nothing; it would tie "
                    "the baseline exactly")
            members.append(SweepSpec(
                name=variant, workloads=tuple(self.workloads),
                axes=dict(self.axes),
                base={**self.base, **self.baseline_overrides, **overrides}))
        return Campaign(name=self.name, members=members, seeds=seeds,
                        baseline=self.BASELINE_MEMBER, metrics=metrics)


def ablation_deltas(report: CampaignReport) -> List[AblationDelta]:
    """Baseline-relative deltas for every variant design point.

    Pairs groups positionally: ablation members share one grid (same
    workloads, same axes, same expansion order), so the k-th group of a
    variant is the k-th group of the baseline with only the declared
    overrides changed.  The workload pairing is asserted, which catches a
    campaign mislabelled as an ablation.
    """
    if report.baseline is None:
        raise ConfigurationError(
            f"campaign {report.campaign!r} declares no baseline member")
    baseline = report.member(report.baseline)
    deltas: List[AblationDelta] = []
    for member in report.members:
        if member.name == report.baseline:
            continue
        if len(member.groups) != len(baseline.groups):
            raise ConfigurationError(
                f"variant {member.name!r} has {len(member.groups)} design "
                f"points but baseline has {len(baseline.groups)}; ablation "
                "members must share one grid")
        for variant_group, base_group in zip(member.groups, baseline.groups):
            if variant_group.params.get("workload") != base_group.params.get("workload"):
                raise ConfigurationError(
                    f"variant {member.name!r} grid order diverged from the "
                    "baseline (workload mismatch); ablation members must "
                    "share one grid")
            cells: Dict[str, Tuple[float, float, Optional[float]]] = {}
            for name in report.metrics:
                base_mean = base_group.metrics[name].mean
                var_mean = variant_group.metrics[name].mean
                rel = ((var_mean - base_mean) / base_mean
                       if base_mean != 0.0 else None)
                cells[name] = (base_mean, var_mean, rel)
            deltas.append(AblationDelta(
                variant=member.name, params=dict(variant_group.params),
                group_id=variant_group.group_id,
                baseline_group_id=base_group.group_id, metrics=cells))
    return deltas


# -- Execution ---------------------------------------------------------------

#: ``progress(member_name, group, completed_groups, total_groups)`` fired as
#: each design point finishes its whole seed ensemble (per-group streaming).
GroupProgress = Callable[[str, PointGroup, int, int], None]


class _GroupStream:
    """Adapt per-point runner progress into per-group completion events.

    Counts completed seeds per design point as results stream back (in any
    order -- a pool run completes points out of order) and fires
    the campaign callback the moment a group's whole ensemble is in.
    Streaming summaries are recomputed from the member's final aggregation,
    so the callback only reports *which* groups finished early, never a
    partial reduction.
    """

    def __init__(self, member: str, num_seeds: int, total_groups: int,
                 callback: GroupProgress):
        self.member = member
        self.num_seeds = num_seeds
        self.total_groups = total_groups
        self.callback = callback
        self._pending: Dict[str, List[Tuple[SweepPoint, Any]]] = {}
        self._done = 0

    def on_point(self, point: SweepPoint, result: Any, _cached: bool) -> None:
        gid = group_id_of(point.as_dict())
        bucket = self._pending.setdefault(gid, [])
        bucket.append((point, result))
        if len(bucket) == self.num_seeds:
            self._done += 1
            seeds = sorted(int(p.as_dict().get(SEED_AXIS, 0))
                           for p, _ in bucket)
            group = PointGroup(
                params=group_params(bucket[0][0].as_dict()),
                group_id=gid, seeds=seeds,
                metrics={})  # summaries come from the final aggregation
            self.callback(self.member, group, self._done, self.total_groups)


def run_campaign(campaign: Campaign, runner=None,
                 progress: Optional[GroupProgress] = None) -> CampaignReport:
    """Run every member through ``runner`` and aggregate the ensembles.

    ``runner`` defaults to a cache-less in-process :class:`SweepRunner`;
    pass a cached runner for resume and ``jobs > 1`` for fan-out (the
    report is bit-identical either way).  When the campaign declares a
    baseline the report also carries the ablation deltas.
    """
    runner = runner if runner is not None else SweepRunner()
    members: List[MemberReport] = []
    grids: Dict[str, List[SweepPoint]] = {}
    # member_specs() validates the campaign, expanding each member once.
    for declared, spec in zip(campaign.members, campaign.member_specs()):
        point_progress = None
        if progress is not None:
            stream = _GroupStream(
                declared.name, num_seeds=len(campaign.seeds),
                total_groups=spec.cardinality // len(campaign.seeds),
                callback=progress)
            point_progress = stream.on_point
        run = runner.run(spec, progress=point_progress)
        grids[spec.name] = run.points
        members.append(MemberReport(
            name=declared.name, spec_id=run.spec_id,
            workloads=list(spec.workloads),
            groups=aggregate_run(run, metrics=campaign.metrics),
            computed_points=run.computed_count,
            cached_points=run.cached_count,
            trace_generated=run.trace_generated,
            trace_reused=run.trace_reused,
            retried_points=run.retried_points,
            corrupt_artifacts=run.corrupt_artifacts))
    report = CampaignReport(
        campaign=campaign.name, campaign_id=campaign_id_of(grids),
        seeds=[int(canonical_scalar(seed)) for seed in campaign.seeds],
        metrics=list(campaign.metrics), members=members,
        baseline=campaign.baseline)
    if campaign.baseline is not None:
        report.ablation = ablation_deltas(report)
    return report


# -- Persistence -------------------------------------------------------------

def campaign_dir(artifacts: Union[str, Path, ResultCache],
                 campaign_id: str) -> Path:
    """``<artifacts>/campaigns/<campaign_id>`` for a cache root or path."""
    root = artifacts.root if isinstance(artifacts, ResultCache) else Path(artifacts)
    return Path(root) / "campaigns" / campaign_id


def _summary_csv(report: CampaignReport) -> str:
    """Long-format CSV: one row per (member, group, metric)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["member", "group_id", "workload", "point", "metric",
                     "n", "mean", "std", "min", "max", "ci95"])
    for member in report.members:
        for group in member.groups:
            for name in report.metrics:
                cell = group.metrics[name]
                writer.writerow([
                    member.name, group.group_id[:12],
                    group.params.get("workload", ""), group.label(), name,
                    cell.n, repr(cell.mean), repr(cell.std),
                    repr(cell.minimum), repr(cell.maximum), repr(cell.ci95)])
    return out.getvalue()


def _ablation_csv(report: CampaignReport) -> str:
    """Long-format CSV: one row per (variant, group, metric) delta."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["variant", "group_id", "baseline_group_id", "workload",
                     "point", "metric", "baseline_mean", "variant_mean",
                     "rel_delta"])
    for delta in report.ablation:
        label = params_label(delta.params)
        for name in report.metrics:
            base, var, rel = delta.metrics[name]
            writer.writerow([
                delta.variant, delta.group_id[:12],
                delta.baseline_group_id[:12],
                delta.params.get("workload", ""), label, name,
                repr(base), repr(var), "" if rel is None else repr(rel)])
    return out.getvalue()


def write_report(report: CampaignReport,
                 artifacts: Union[str, Path, ResultCache]) -> Path:
    """Serialise a report under ``<artifacts>/campaigns/<campaign_id>/``.

    Writes ``report.json`` plus ``summary.csv`` (and ``ablation.csv`` when
    the campaign declares a baseline), all atomically.  Returns the
    directory.  Reports are cheap to rewrite, so a repeated run simply
    refreshes them -- the expensive state lives in the result cache and
    trace store, which the report's accounting shows were not touched.
    """
    directory = campaign_dir(artifacts, report.campaign_id)
    write_verified_json(directory / "report.json", report.to_dict())
    atomic_write_text(directory / "summary.csv", _summary_csv(report))
    if report.baseline is not None:
        atomic_write_text(directory / "ablation.csv", _ablation_csv(report))
    return directory


def load_report(path: Union[str, Path]) -> CampaignReport:
    """Load a report from its directory or ``report.json`` path.

    The report is a verified-JSON document
    (:func:`repro.common.fileio.read_verified_json`).  Raises
    :class:`~repro.common.errors.ArtifactIntegrityError` when it is damaged
    (undecodable bytes, invalid JSON, a mistyped ``schema``, a missing or
    mismatched content digest) -- a campaign report cannot be transparently
    recomputed here, so the caller must quarantine it and re-run the
    campaign (the ``repro campaign`` CLI does exactly that).  A report
    written by a different schema version raises :class:`ConfigurationError`
    instead: stale, not damaged.
    """
    path = Path(path)
    if path.is_dir():
        path = path / "report.json"
    return CampaignReport.from_dict(read_verified_json(path, REPORT_SCHEMA))


# -- Presentation ------------------------------------------------------------

def format_report(report: CampaignReport,
                  metrics: Optional[Sequence[str]] = None) -> str:
    """Render a campaign report as text tables (one per member)."""
    shown = list(metrics) if metrics is not None else list(report.metrics)[:3]
    lines: List[str] = []
    lines.append(f"campaign {report.campaign} "
                 f"({len(report.seeds)} seeds: {report.seeds})")
    lines.append(f"  id {report.campaign_id[:12]}  "
                 f"recomputed {report.recomputed_points} point(s), "
                 f"regenerated {report.regenerated_traces} trace(s)")
    for member in report.members:
        lines.append("")
        lines.append(f"member {member.name} "
                     f"({member.computed_points} computed, "
                     f"{member.cached_points} cached)")
        header = f"  {'point':44s}"
        for name in shown:
            header += f" {name + ' (mean±std)':>26s}"
        lines.append(header)
        for group in member.groups:
            row = f"  {group.label():44s}"
            for name in shown:
                cell = group.metrics[name]
                row += f" {cell.mean:>16.2f} ±{cell.std:>8.2f}"
            lines.append(row)
    if report.ablation:
        lines.append("")
        lines.append(f"ablation vs {report.baseline} (relative deltas)")
        header = f"  {'variant':16s} {'point':36s}"
        for name in shown:
            header += f" {name:>18s}"
        lines.append(header)
        for delta in report.ablation:
            row = f"  {delta.variant:16s} {params_label(delta.params):36s}"
            for name in shown:
                _, _, rel = delta.metrics[name]
                row += f" {'n/a':>18s}" if rel is None else f" {rel:>+18.1%}"
            lines.append(row)
    return "\n".join(lines)


__all__ = [
    "Ablation",
    "AblationDelta",
    "Campaign",
    "CampaignReport",
    "DEFAULT_METRICS",
    "GroupProgress",
    "MemberReport",
    "MetricSummary",
    "PointGroup",
    "SEED_AXIS",
    "aggregate_run",
    "ablation_deltas",
    "campaign_dir",
    "campaign_id_of",
    "format_report",
    "group_id_of",
    "group_params",
    "load_report",
    "params_label",
    "run_campaign",
    "write_report",
]
