"""Command-line interface for the task-superscalar reproduction.

``python -m repro`` exposes the most common operations without writing any
Python:

* ``python -m repro list`` -- show the benchmark catalogue (Table I).
* ``python -m repro simulate --workload Cholesky --cores 256`` -- run one
  benchmark through the task-superscalar pipeline (add ``--software`` for the
  StarSs software-runtime baseline, ``--compare`` for both).
* ``python -m repro trace --workload MatMul --output matmul.jsonl`` -- write a
  task trace to disk for external tools (``.gz`` output is gzipped).
* ``python -m repro trace bake|ls|gc`` -- manage the packed trace store that
  sweeps use to generate each trace once and share it across the whole
  worker fleet (:mod:`repro.trace.store`).
* ``python -m repro experiment table1|table2|fig1|fig3`` -- regenerate the
  cheap paper artefacts (the expensive Figures 12-16 are ``repro campaign``
  campaigns, all run at once by ``repro.experiments.runner``).
* ``python -m repro sweep --workload Cholesky --axis frontend.num_trs=1,4,16
  --axis num_cores=64,256 --jobs 4`` -- run a declarative parameter sweep
  over a worker pool, caching every simulated point under ``--artifacts`` so
  interrupted sweeps resume without recomputation (see :mod:`repro.sweep`);
  ``topology.*`` axes (e.g. ``--axis topology.num_frontends=1,2,4``) sweep
  multi-frontend machine shapes (:mod:`repro.topology`).
* ``python -m repro synth list`` -- inspect the synthetic task-graph
  families and their knobs (:mod:`repro.workloads.synthetic`).
* ``python -m repro campaign list|run|report`` -- seed-ensemble scenario
  campaigns: the paper's Figures 12-16, the synthetic stress maps,
  cross-workload design-space grids and ablations, with mean/std/95%-CI
  aggregation, each campaign's figure tables, and reports under
  ``<artifacts>/campaigns/<campaign_id>/`` (:mod:`repro.sweep.campaign`,
  :mod:`repro.experiments.campaigns`).
* ``python -m repro bench obs-overhead|trace|profile`` -- the host-side
  checks the repository benchmark (``python3 perfbench/run.py``, which
  measures throughput) does not make: gate the telemetry overhead at 5% of
  the pinned suite, time packed trace-store loads against cold generation,
  or cProfile one pinned scenario (:mod:`repro.sweep.bench`).
* ``python -m repro obs record|report|export|heartbeats|gc`` -- cycle-resolved
  pipeline telemetry: record one observed run, print its stall-attribution
  report, or export it as Chrome/Perfetto trace JSON (:mod:`repro.obs`);
  sweeps and campaigns take ``--obs`` to record per-point summaries.
* ``python -m repro faults list|check`` -- the deterministic fault-injection
  harness behind ``--faults`` on ``sweep``/``campaign run`` (worker crashes,
  stragglers, torn cache writes, trace corruption); sweeps recover via
  bounded retries (``--retries``, ``--point-timeout``), quarantine corrupt
  artifacts and journal every point transition (:mod:`repro.sweep.faults`,
  :mod:`repro.sweep.resilience`).

``--workload`` accepts any registered workload, case-insensitively, including
parameterized synthetic specs such as ``"random_dag:width=16,dep_distance=64"``
(see :mod:`repro.workloads.synthetic`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.backend.system import run_trace
from repro.common.errors import WorkloadError
from repro.software.runtime_sim import run_trace_software
from repro.trace.io import write_trace
from repro.workloads import registry


def _workload_arg(text: str) -> str:
    """Argparse ``type=`` resolver for ``--workload``.

    Accepts any registered workload name case-insensitively (``choices=``
    would reject ``cholesky``), validates parameterized synthetic specs, and
    normalizes to the canonical spelling so downstream lookups and sweep
    cache keys are stable.
    """
    try:
        return registry.canonical_spec(text)
    except WorkloadError as error:
        raise argparse.ArgumentTypeError(str(error))


def _cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'Name':14s} {'Class':20s} {'Description':40s} "
          f"{'Avg data':>9s} {'Avg runtime':>12s}")
    for name in registry.all_workload_names():
        spec = registry.get_spec(name)
        print(f"{spec.name:14s} {spec.domain:20s} {spec.description:40s} "
              f"{spec.avg_data_kb:>7.0f}KB {spec.avg_runtime_us:>10.0f}us")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = registry.generate(args.workload, scale=args.scale, seed=args.seed)
    print(f"{trace.name}: {len(trace)} tasks "
          f"(sequential time {trace.total_runtime_cycles} cycles)")
    run_hardware = not args.software or args.compare
    run_software = args.software or args.compare
    if run_hardware:
        result = run_trace(trace, num_cores=args.cores, validate=args.validate)
        print("task superscalar : " + result.summary())
    if run_software:
        result = run_trace_software(trace, num_cores=args.cores, validate=args.validate)
        print("software runtime : " + result.summary())
    return 0


def _trace_store(args: argparse.Namespace):
    from repro.trace.store import DEFAULT_STORE_ROOT, TraceStore

    return TraceStore(args.store or DEFAULT_STORE_ROOT)


def _cmd_trace(args: argparse.Namespace) -> int:
    action = getattr(args, "trace_action", None)
    if action is None:  # legacy form: repro trace --workload X --output Y
        if not args.workload or not args.output:
            raise SystemExit("repro trace: --workload and --output are required "
                             "(or use a subcommand: bake, ls, gc)")
        trace = registry.generate(args.workload, scale=args.scale, seed=args.seed)
        write_trace(trace, args.output)
        print(f"wrote {len(trace)} tasks to {args.output}")
        return 0

    if action == "bake":
        import time

        from repro.sweep.runner import (generate_trace_for_key,
                                        trace_key_for_params)

        store = _trace_store(args)
        for workload in args.workload:
            key_params, digest = trace_key_for_params({
                "workload": workload, "scale_factor": args.scale_factor,
                "seed": args.seed, "max_tasks": args.max_tasks})
            start = time.perf_counter()
            packed, baked = store.get_or_bake(
                key_params, lambda kp=key_params: generate_trace_for_key(kp))
            elapsed = time.perf_counter() - start
            origin = "baked " if baked else "cached"
            print(f"  [{origin}] {key_params['workload']:24s} "
                  f"{len(packed):7d} tasks  {elapsed:6.2f}s  "
                  f"{digest[:12]}  {store.path_for(digest)}")
        print(f"trace store: {store.root} ({len(store)} baked traces)")
        return 0

    if action == "ls":
        store = _trace_store(args)
        entries = store.entries()
        if not entries:
            print(f"trace store {store.root} is empty")
            return 0
        print(f"{'digest':14s} {'workload':28s} {'tasks':>8s} {'operands':>9s} "
              f"{'bytes':>10s}")
        total = 0
        for entry in entries:
            workload = str(entry.params.get("workload", entry.name))
            total += entry.size_bytes
            print(f"{entry.digest[:12]:14s} {workload:28s} "
                  f"{entry.num_tasks:>8d} {entry.num_operands:>9d} "
                  f"{entry.size_bytes:>10d}")
        print(f"{len(entries)} traces, {total} bytes under {store.root}")
        return 0

    # action == "gc"
    store = _trace_store(args)
    removed = store.gc(drop_all=args.all, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    what = ("all entries" if args.all
            else "stale, corrupt or orphaned-temp files")
    print(f"{verb} {len(removed)} file(s) ({what}) under {store.root}, "
          f"reclaiming {store.last_gc_bytes} bytes; "
          f"{len(store)} entries {'present' if args.dry_run else 'remain'}")
    for path in removed:
        print(f"  {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import figure1, figure3, table1, table2

    if args.name == "table1":
        print(table1.format_table(table1.run()))
    elif args.name == "table2":
        print(table2.format_table(table2.run()))
    elif args.name == "fig1":
        print(figure1.format_report(figure1.run()))
    elif args.name == "fig3":
        print(figure3.format_table(figure3.run()))
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(args.name)
    return 0


def _make_runner(args: argparse.Namespace):
    """Build the (runner, cache) pair shared by the sweep-backed commands."""
    from repro.sweep import ResultCache, default_runner

    cache = None if args.no_cache else ResultCache(args.artifacts)
    trace_store = getattr(args, "trace_store", None)
    if getattr(args, "no_trace_store", False):
        trace_store = False
    retry = None
    retries = getattr(args, "retries", None)
    point_timeout = getattr(args, "point_timeout", None)
    if retries is not None or point_timeout is not None:
        from repro.sweep import RetryPolicy
        retry = RetryPolicy(max_retries=2 if retries is None else retries,
                            point_timeout_seconds=point_timeout)
    return default_runner(jobs=args.jobs, cache=cache,
                          trace_store=trace_store, retry=retry), cache


def _print_artifacts(cache) -> None:
    if cache is not None:
        print(f"artifacts: {cache.root} ({len(cache)} cached points)")


def _configure_obs(args: argparse.Namespace):
    """Install process observability from ``--obs``/``--obs-dir``.

    Returns ``(obs_root, restore)``; both are ``None`` when the flags are
    absent.  ``restore`` puts the previous process-global observability
    settings back (call it in a ``finally``).
    """
    obs_dir = getattr(args, "obs_dir", None)
    if not (getattr(args, "obs", False) or obs_dir):
        return None, None
    from repro.obs.io import DEFAULT_OBS_ROOT
    from repro.sweep.runner import ObsSettings, configure_observability

    root = str(obs_dir or DEFAULT_OBS_ROOT)
    previous = configure_observability(ObsSettings(
        root=root,
        keep_recordings=bool(getattr(args, "obs_recordings", False))))
    return root, lambda: configure_observability(previous)


def _configure_faults(args: argparse.Namespace, cache):
    """Install the ``--faults`` plan process-wide (and for pool workers).

    Claim markers live in a fresh per-invocation directory -- under
    ``<artifacts>/faults/`` when a cache exists (inspectable post-mortem), in
    the system temp dir with ``--no-cache`` -- so a fault spec re-fires on
    every invocation instead of staying spent from the last one.  Returns a
    restore callable, or ``None`` when the flag is absent (the
    ``REPRO_FAULTS`` environment variable still applies in that case).
    """
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    import tempfile
    from pathlib import Path

    from repro.common.errors import ConfigurationError
    from repro.sweep import FaultPlan, configure_faults, parse_faults

    try:
        parse_faults(spec)
    except ConfigurationError as error:
        raise SystemExit(f"--faults: {error}")
    base = None
    if cache is not None:
        base = Path(cache.root) / "faults"
        base.mkdir(parents=True, exist_ok=True)
    state_dir = tempfile.mkdtemp(prefix="state-", dir=base)
    previous = configure_faults(FaultPlan(spec, state_dir=state_dir))
    return lambda: configure_faults(previous)


def _print_resilience(run) -> None:
    """Print a sweep run's resilience line and journal path, when present."""
    line = run.resilience_summary()
    if line is not None:
        print(line)
    if run.journal_path is not None:
        print(f"journal: {run.journal_path}")


def _print_telemetry(root: str, digests=None) -> None:
    """One headline line per point summary under ``root`` (sweep/campaign)."""
    from repro.obs.report import load_point_summaries

    summaries = load_point_summaries(root)
    if digests is not None:
        summaries = {digest: summary for digest, summary in summaries.items()
                     if digest in digests}
    print(f"telemetry: {len(summaries)} point summaries under {root} "
          f"(inspect with: repro obs report --dir {root})")
    for digest, summary in sorted(summaries.items()):
        fractions = (summary.get("stalls") or {}).get("fractions") or {}
        top = max(fractions.items(), key=lambda item: item[1], default=None)
        headline = (f"top stall {top[0]} ({top[1] * 100:.1f}%)"
                    if top and top[1] > 0 else "no stalls attributed")
        print(f"  {digest[:12]}  {summary.get('tasks', 0):>6} tasks "
              f"{summary.get('events', 0):>9} events  {headline}")


def _cmd_synth(_args: argparse.Namespace) -> int:
    from repro.workloads.synthetic import SYNTHETIC_FAMILIES, SyntheticWorkload

    print(f"{'Family':16s} {'Kernel':12s} Description")
    for cls in SYNTHETIC_FAMILIES:
        print(f"{cls.spec.name:16s} {cls.kernel_name:12s} {cls.spec.description}")
    shared = SyntheticWorkload().params()
    print("\nKnobs (workload.<knob> in sweeps, name:knob=value on --workload):")
    for knob, value in shared.items():
        print(f"  {knob} (default {value!r})")
    overrides = []
    unset = object()
    for cls in SYNTHETIC_FAMILIES:
        # Knobs absent from the shared base (e.g. skewed_lanes' ``skew``)
        # are family-specific and always worth listing.
        diffs = {knob: value for knob, value in cls().params().items()
                 if value != shared.get(knob, unset)}
        if diffs:
            rendered = ", ".join(f"{k}={v!r}" for k, v in diffs.items())
            overrides.append(f"  {cls.spec.name}: {rendered}")
    if overrides:
        print("\nPer-family default overrides:")
        print("\n".join(overrides))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.sweep import bench

    if args.action == "obs-overhead":
        runs = []
        for scenario in bench.SUITE:
            run = bench.run_scenario_pair(scenario, quick=args.quick,
                                          repeat=args.repeat)
            runs.append(run)
            flag = ("" if run.metrics_off == run.metrics_on
                    else "  [metrics differ]")
            print(f"  {run.name:18s} off {run.off_seconds:6.2f}s "
                  f"on {run.on_seconds:6.2f}s  off/on {run.speed_ratio:.3f}x"
                  f"{flag}")
        geomean = bench.overhead_geomean(runs)
        floor = 1.0 - bench.OBS_OVERHEAD_BUDGET
        print(f"geomean off/on speed {geomean:.4f}x over {len(runs)} "
              f"scenarios (median of {args.repeat} paired rounds each; "
              f"floor {floor:.2f}x)")
        if geomean < floor:
            print(f"FAIL: telemetry overhead beyond the "
                  f"{bench.OBS_OVERHEAD_BUDGET:.0%} budget")
            return 1
        return 0

    if args.action == "trace":
        entry = bench.run_trace_bench(quick=args.quick, repeat=args.repeat,
                                      store_root=args.store)
        print(bench.format_trace_bench(entry))
        if args.output:
            bench.write_report(entry, args.output)
            print(f"wrote {args.output}")
        if not entry["metrics_match"]:
            print("FAIL: packed load returned a different trace than cold "
                  "generation")
            return 1
        if args.min_speedup and entry["timing"]["speedup"] < args.min_speedup:
            print(f"FAIL: packed load speedup "
                  f"{entry['timing']['speedup']:.1f}x is below the required "
                  f"{args.min_speedup:.1f}x")
            return 1
        return 0

    # action == "profile"
    report = bench.run_profile(scenario_name=args.scenario, quick=args.quick,
                               top=args.top, sort=args.sort)
    print(bench.format_profile(report))
    if args.out:
        bench.write_report(report, args.out)
        print(f"wrote {args.out}")
    return 0


#: ``repro sweep`` flag -> (parameter name, default when the flag is absent).
#: The flags parse with ``default=None`` so an explicitly passed value can be
#: told apart from the default -- a spec axis may legitimately sweep any of
#: these parameters, but silently shadowing an explicit flag (the old
#: last-wins behaviour of ``--seed`` vs. a ``seed`` axis) is an error.
_SWEEP_FLAG_PARAMS = {
    "cores": ("num_cores", 256),
    "scale_factor": ("scale_factor", 1.0),
    "seed": ("seed", 0),
    "system": ("system", "hardware"),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepSpec, parse_axis_value

    axes = {}
    for item in args.axis or []:
        if "=" not in item:
            raise SystemExit(f"--axis expects NAME=V1,V2,..., got {item!r}")
        name, values = item.split("=", 1)
        axes[name.strip()] = [parse_axis_value(value)
                              for value in values.split(",")]

    base = {}
    conflicts = []
    for flag, (param, default) in _SWEEP_FLAG_PARAMS.items():
        value = getattr(args, flag)
        if value is not None and param in axes:
            conflicts.append((flag.replace("_", "-"), param))
        base[param] = default if value is None else value
    if args.fast_generator and "fast_generator" in axes:
        conflicts.append(("fast-generator", "fast_generator"))
    base["fast_generator"] = args.fast_generator
    if args.max_tasks is not None:
        if "max_tasks" in axes:
            conflicts.append(("max-tasks", "max_tasks"))
        base["max_tasks"] = args.max_tasks
    if conflicts:
        rendered = "; ".join(f"--{flag} vs axis {param!r}"
                             for flag, param in conflicts)
        raise SystemExit(
            f"conflicting sweep parameters: {rendered}. The axis would "
            "silently shadow the flag; drop the flag and let the axis sweep "
            "the parameter, or remove the axis.")
    from repro.common.errors import ConfigurationError

    spec = SweepSpec(name=args.name, workloads=args.workload, axes=axes, base=base)
    try:
        spec.validate()
    except ConfigurationError as error:
        raise SystemExit(f"invalid sweep: {error}")
    print(spec.describe())

    runner, cache = _make_runner(args)
    obs_root, obs_restore = _configure_obs(args)
    faults_restore = _configure_faults(args, cache)

    def progress(point, result, was_cached):
        origin = "cache" if was_cached else "run  "
        print(f"  [{origin}] {point.label()} -> {result.summary()}")

    try:
        run = runner.run(spec, progress=progress)
    finally:
        if obs_restore is not None:
            obs_restore()
        if faults_restore is not None:
            faults_restore()
    print(run.summary())
    if runner.trace_store is not None:
        print(f"{run.trace_summary()} (store: {runner.trace_store.root})")
    _print_resilience(run)
    if obs_root is not None:
        _print_telemetry(obs_root,
                         {point.point_id for point in spec.points()})
    _print_artifacts(cache)
    return 0


def _campaign_from_args(args: argparse.Namespace):
    from repro.experiments import campaigns as drivers

    if args.seeds < 0:
        raise SystemExit(f"--seeds must be 0 (the campaign's own ensemble) "
                         f"or positive, got {args.seeds}")
    seeds = range(args.seeds) if args.seeds else None
    try:
        return drivers.get_campaign(args.campaign, seeds=seeds,
                                    quick=args.quick)
    except ValueError as error:
        raise SystemExit(str(error))


def _print_campaign_report(name: str, report) -> None:
    """The generic per-member report, then the campaign's figure tables."""
    from repro.experiments.campaigns import TABLES
    from repro.sweep.campaign import format_report

    print(format_report(report))
    if name in TABLES:
        print()
        print(TABLES[name](report))


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments import campaigns as drivers
    from repro.sweep.campaign import (campaign_dir, load_report, run_campaign,
                                      write_report)

    if args.action == "list":
        print(f"{'Campaign':18s} Description")
        for name in sorted(drivers.CAMPAIGNS):
            print(f"{name:18s} {drivers.DESCRIPTIONS.get(name, '')}")
        print("\nrun one with: repro campaign run --campaign NAME "
              "[--seeds N] [--quick] [--jobs N] [--artifacts DIR]")
        return 0

    campaign = _campaign_from_args(args)

    if args.action == "report":
        from pathlib import Path

        from repro.common.errors import ArtifactIntegrityError
        from repro.common.fileio import quarantine_file

        directory = campaign_dir(args.artifacts, campaign.campaign_id)
        if not (directory / "report.json").exists():
            raise SystemExit(
                f"no report under {directory}; run `repro campaign run "
                f"--campaign {args.campaign}` with the same flags first")
        try:
            report = load_report(directory)
        except ArtifactIntegrityError as error:
            quarantine_file(directory / "report.json",
                            Path(args.artifacts) / "quarantine", str(error),
                            "campaign report")
            raise SystemExit(
                f"{error}\nregenerate it with `repro campaign run --campaign "
                f"{args.campaign}` (cached points make the re-run cheap)")
        _print_campaign_report(args.campaign, report)
        print(f"report: {directory}")
        return 0

    # action == "run"
    print(campaign.describe())
    runner, cache = _make_runner(args)
    obs_root, obs_restore = _configure_obs(args)
    faults_restore = _configure_faults(args, cache)

    def progress(member, group, done, total):
        print(f"  [{member}] {done}/{total} {group.label()}")

    try:
        report = run_campaign(campaign, runner, progress=progress)
    finally:
        if obs_restore is not None:
            obs_restore()
        if faults_restore is not None:
            faults_restore()
    _print_campaign_report(args.campaign, report)
    if obs_root is not None:
        _print_telemetry(obs_root)
    print(f"campaign totals: {report.recomputed_points} points recomputed, "
          f"{report.regenerated_traces} traces regenerated")
    if report.retried_points or report.corrupt_artifacts:
        print(f"resilience: {report.retried_points} point(s) retried, "
              f"{report.corrupt_artifacts} corrupt artifact(s) quarantined")
    if cache is not None:
        directory = write_report(report, cache)
        print(f"report: {directory}")
        _print_artifacts(cache)
    return 0


def _obs_find_summary(root, prefix: Optional[str]):
    """Resolve ``--point PREFIX`` against ``<root>/points`` (digest, summary)."""
    from repro.obs.report import load_point_summaries

    summaries = load_point_summaries(root)
    if not summaries:
        raise SystemExit(f"no point summaries under {root}; record one with "
                         "`repro obs record` or run a sweep with --obs")
    if prefix:
        matches = {digest: summary for digest, summary in summaries.items()
                   if digest.startswith(prefix)}
        if not matches:
            raise SystemExit(f"no point summary matching {prefix!r} under "
                             f"{root}; known: "
                             + ", ".join(d[:12] for d in sorted(summaries)))
        if len(matches) > 1:
            raise SystemExit(f"{prefix!r} is ambiguous: "
                             + ", ".join(d[:12] for d in sorted(matches)))
        return next(iter(matches.items()))
    if len(summaries) == 1:
        return next(iter(summaries.items()))
    listing = "\n".join(f"  {digest[:12]}  {summary.get('tasks', 0)} tasks, "
                        f"{summary.get('events', 0)} events"
                        for digest, summary in sorted(summaries.items()))
    raise SystemExit(f"{len(summaries)} point summaries under {root}; pick "
                     f"one with --point PREFIX:\n{listing}")


def _cmd_obs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.io import gc_obs_dir, load_recording
    from repro.obs.report import format_report, point_summary

    if args.action == "record":
        from repro.common.hashing import content_digest
        from repro.obs import ObsConfig
        from repro.sweep.runner import (ObsSettings, configure_observability,
                                        execute_point)

        params = {"workload": args.workload, "num_cores": args.cores,
                  "scale_factor": args.scale_factor, "seed": args.seed}
        if args.max_tasks is not None:
            params["max_tasks"] = args.max_tasks
        if args.fast_generator:
            params["fast_generator"] = True
        # Interactive recordings are for Perfetto inspection, so turn on the
        # per-packet service spans that sweeps leave off for overhead.
        settings = ObsSettings(
            root=str(args.dir), keep_recordings=True,
            config=ObsConfig(capacity=args.capacity,
                             sample_interval=args.sample_interval,
                             module_spans=True))
        previous = configure_observability(settings)
        try:
            result = execute_point(params)
        finally:
            configure_observability(previous)
        digest = content_digest(params)
        print(f"recorded {params['workload']} "
              f"(makespan {result['makespan_cycles']} cycles) -> "
              f"point {digest[:12]}")
        print(f"  summary  : {args.dir}/points/{digest}.json")
        print(f"  recording: {args.dir}/recordings/{digest}.robs")
        print("inspect with: repro obs report --dir "
              f"{args.dir} --point {digest[:12]}")
        return 0

    if args.action == "report":
        if args.input:
            summary = point_summary(load_recording(args.input))
            print(f"recording: {args.input}")
        else:
            digest, summary = _obs_find_summary(args.dir, args.point)
            print(f"point: {digest}")
        print(format_report(summary))
        return 0

    if args.action == "export":
        from pathlib import Path

        from repro.common.fileio import atomic_write_text
        from repro.obs.export import to_trace_events, validate_trace_events

        if args.input:
            source = Path(args.input)
        else:
            digest, _summary = _obs_find_summary(args.dir, args.point)
            source = Path(args.dir) / "recordings" / f"{digest}.robs"
            if not source.exists():
                raise SystemExit(
                    f"{source} does not exist (the sweep kept only the "
                    "summary); re-record with `repro obs record` or keep "
                    "recordings with --obs-recordings")
        recording = load_recording(source)
        document = to_trace_events(recording)
        count = validate_trace_events(document)
        output = args.output or str(source.with_suffix(".trace.json"))
        atomic_write_text(output, _json.dumps(document))
        print(f"wrote {output} ({count} trace events"
              f"{', validated' if args.validate else ''})")
        print("open it at https://ui.perfetto.dev (or chrome://tracing); "
              "1 viewer us = 1 simulation cycle")
        return 0

    if args.action == "heartbeats":
        from repro.obs.report import read_heartbeats

        records = read_heartbeats(args.dir)
        if not records:
            print(f"no heartbeats under {args.dir}")
            return 0
        for record in records[-args.tail:]:
            extras = {key: value for key, value in sorted(record.items())
                      if key not in ("time", "event", "pid")}
            rendered = " ".join(f"{key}={value}" for key, value in extras.items())
            print(f"  {record.get('time', 0):.3f} pid={record.get('pid')} "
                  f"{record.get('event', '?'):12s} {rendered}")
        print(f"{len(records)} heartbeat records under {args.dir}")
        return 0

    # action == "gc"
    removed, reclaimed = gc_obs_dir(args.dir, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"{verb} {len(removed)} obs artifact(s) under {args.dir}, "
          f"reclaiming {reclaimed} bytes")
    for path in removed:
        print(f"  {path}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigurationError
    from repro.sweep.faults import (FAULTS_DIR_ENV, FAULTS_ENV, FAULT_KINDS,
                                    parse_faults)

    if args.action == "list":
        print(f"{'Kind':14s} Effect")
        for kind, text in sorted(FAULT_KINDS.items()):
            print(f"{kind:14s} {text}")
        print("\nspec grammar: kind[:key=value,...][;kind:...]  "
              "(keys: point, ordinal, times, seconds)")
        print("inject with: repro sweep|campaign run --faults SPEC, or the "
              f"{FAULTS_ENV} (+ {FAULTS_DIR_ENV}) environment variables")
        print("validate a spec with: repro faults check --spec SPEC")
        return 0

    # action == "check"
    try:
        faults = parse_faults(args.spec)
    except ConfigurationError as error:
        print(f"invalid fault spec: {error}")
        return 1
    print(f"{len(faults)} fault(s) parsed:")
    for fault in faults:
        print(f"  {fault.describe()}")
    return 0


def _add_artifacts_flag(parser: argparse.ArgumentParser) -> None:
    """``--artifacts``, shared by `repro sweep` and `repro campaign run|report`."""
    from repro.sweep.cache import DEFAULT_CACHE_ROOT

    parser.add_argument("--artifacts", default=str(DEFAULT_CACHE_ROOT),
                        metavar="DIR",
                        help="result cache, trace store, journals and "
                             "campaign reports (default %(default)s)")


def _add_runner_flags(parser: argparse.ArgumentParser) -> None:
    """The runner flags `repro sweep` and `repro campaign run` share.

    They are read back by :func:`_make_runner`, :func:`_configure_obs` and
    :func:`_configure_faults`.
    """
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (1 = run in this process)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point; write nothing to disk")
    parser.add_argument("--trace-store", default=None,
                        help="packed trace store root (default "
                             "<artifacts>/traces; shared across campaigns)")
    parser.add_argument("--no-trace-store", action="store_true",
                        help="regenerate traces per process instead of "
                             "baking them once")
    parser.add_argument("--obs", action="store_true",
                        help="record cycle-resolved telemetry per simulated "
                             "point (summaries under the obs dir)")
    parser.add_argument("--obs-dir", default=None, metavar="DIR",
                        help="obs artifact directory (implies --obs; default "
                             ".repro-artifacts/obs)")
    parser.add_argument("--obs-recordings", action="store_true",
                        help="also keep full .robs event recordings "
                             "(large; required for `repro obs export`)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="re-dispatch a crashed or timed-out point up to "
                             "N times before failing (default 2; only "
                             "applies with --jobs > 1)")
    parser.add_argument("--point-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and re-dispatch any point still running "
                             "after this many wall-clock seconds (straggler "
                             "recovery; only applies with --jobs > 1)")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject deterministic faults for chaos testing, "
                             "e.g. 'worker_crash:point=0' "
                             "(see `repro faults list`)")


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(prog="repro",
                                     description="Task Superscalar reproduction CLI")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="show the Table I benchmark catalogue")
    list_parser.set_defaults(func=_cmd_list)

    simulate = subparsers.add_parser("simulate", help="simulate one benchmark")
    simulate.add_argument("--workload", required=True, type=_workload_arg,
                          metavar="NAME[:k=v,...]",
                          help="workload name (case-insensitive) or synthetic "
                               f"spec; known: {', '.join(registry.all_workload_names())}")
    simulate.add_argument("--cores", type=int, default=256)
    simulate.add_argument("--scale", type=int, default=None,
                          help="problem size (workload-specific; default built in)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--software", action="store_true",
                          help="simulate the StarSs software runtime instead")
    simulate.add_argument("--compare", action="store_true",
                          help="simulate both systems")
    simulate.add_argument("--validate", action="store_true",
                          help="check the schedule against the gold dependency graph")
    simulate.set_defaults(func=_cmd_simulate)

    trace = subparsers.add_parser(
        "trace", help="export workload traces / manage the packed trace store")
    trace.add_argument("--workload", type=_workload_arg,
                       metavar="NAME[:k=v,...]")
    trace.add_argument("--scale", type=int, default=None)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--output",
                       help="JSON-lines output path (.gz = gzipped)")
    trace.set_defaults(func=_cmd_trace, trace_action=None)
    trace_sub = trace.add_subparsers(dest="trace_action", required=False)
    trace_bake = trace_sub.add_parser(
        "bake", help="generate + pack workload traces into the trace store")
    trace_bake.add_argument("--workload", action="append", required=True,
                            type=_workload_arg, metavar="NAME[:k=v,...]",
                            help="workload to bake (repeatable)")
    trace_bake.add_argument("--scale-factor", type=float, default=1.0)
    trace_bake.add_argument("--seed", type=int, default=0)
    trace_bake.add_argument("--max-tasks", type=int, default=None)
    trace_bake.add_argument("--store", default=None,
                            help="trace store root (default "
                                 ".repro-artifacts/sweeps/traces)")
    trace_bake.set_defaults(func=_cmd_trace)
    trace_ls = trace_sub.add_parser("ls", help="list baked traces")
    trace_ls.add_argument("--store", default=None)
    trace_ls.set_defaults(func=_cmd_trace)
    trace_gc = trace_sub.add_parser(
        "gc", help="drop stale/corrupt (or, with --all, every) baked trace")
    trace_gc.add_argument("--store", default=None)
    trace_gc.add_argument("--all", action="store_true",
                          help="remove every entry, not just unreadable ones")
    trace_gc.add_argument("--dry-run", action="store_true")
    trace_gc.set_defaults(func=_cmd_trace)

    experiment = subparsers.add_parser("experiment",
                                       help="regenerate a (cheap) paper artefact")
    experiment.add_argument("name", choices=("table1", "table2", "fig1", "fig3"))
    experiment.set_defaults(func=_cmd_experiment)

    sweep = subparsers.add_parser(
        "sweep", help="run a cached, parallel parameter sweep")
    sweep.add_argument("--workload", action="append", required=True,
                       type=_workload_arg, metavar="NAME[:k=v,...]",
                       help="workload to sweep (repeatable; case-insensitive; "
                            "synthetic specs accepted)")
    sweep.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                       help="sweep axis, e.g. frontend.num_trs=1,4,16 "
                            "(repeatable; axes form a Cartesian grid)")
    sweep.add_argument("--name", default="cli-sweep", help="sweep name")
    # Defaults are None sentinels so _cmd_sweep can detect an explicit flag
    # that a spec axis would silently shadow (see _SWEEP_FLAG_PARAMS).
    sweep.add_argument("--cores", type=int, default=None,
                       help="backend core count (default 256)")
    sweep.add_argument("--scale-factor", type=float, default=None,
                       help="problem-size multiplier (default 1.0)")
    sweep.add_argument("--seed", type=int, default=None,
                       help="trace-generator seed (default 0)")
    sweep.add_argument("--max-tasks", type=int, default=None)
    sweep.add_argument("--system", choices=("hardware", "software"),
                       default=None)
    sweep.add_argument("--fast-generator", action="store_true",
                       help="use the near-zero-cost task-generating thread")
    _add_artifacts_flag(sweep)
    _add_runner_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    campaign = subparsers.add_parser(
        "campaign", help="seed-ensemble scenario campaigns "
                         "(see repro.sweep.campaign)")
    campaign_sub = campaign.add_subparsers(dest="action", required=True)
    campaign_list = campaign_sub.add_parser(
        "list", help="show the registered campaign drivers")
    campaign_list.set_defaults(func=_cmd_campaign)

    def _campaign_common(sub):
        sub.add_argument("--campaign", required=True, metavar="NAME",
                         help="registered campaign (see `repro campaign list`)")
        sub.add_argument("--seeds", type=int, default=0, metavar="N",
                         help="ensemble size: seeds range(N) "
                              "(default: the driver's ensemble)")
        sub.add_argument("--quick", action="store_true",
                         help="shrunk workloads/axes so the campaign "
                              "finishes in seconds")
        _add_artifacts_flag(sub)

    campaign_run = campaign_sub.add_parser(
        "run", help="run a campaign (cached + resumable) and write its report")
    _campaign_common(campaign_run)
    _add_runner_flags(campaign_run)
    campaign_run.set_defaults(func=_cmd_campaign)
    campaign_report = campaign_sub.add_parser(
        "report", help="print the stored report of an already-run campaign")
    _campaign_common(campaign_report)
    campaign_report.set_defaults(func=_cmd_campaign)

    from repro.sweep.bench import OBS_OVERHEAD_BUDGET, PROFILE_SORTS, SUITE

    bench = subparsers.add_parser(
        "bench", help="telemetry-overhead, trace-load and profiling checks "
                      "(see repro.sweep.bench; throughput is perfbench/run.py)")
    bench_sub = bench.add_subparsers(dest="action", required=True)
    bench_obs = bench_sub.add_parser(
        "obs-overhead",
        help="paired obs-off/obs-on suite timing (interleaved in one "
             "process, so the ratio isolates telemetry overhead from host "
             "drift); exit 1 when telemetry slows the suite geomean by more "
             f"than {OBS_OVERHEAD_BUDGET * 100:.0f}%%")
    bench_obs.add_argument("--quick", action="store_true",
                           help="shrunk traces so the suite finishes in seconds")
    bench_obs.add_argument("--repeat", type=int, default=5,
                           help="paired rounds per scenario; the gate uses "
                                "the median per-round ratio, the printed "
                                "times the fastest run on each side "
                                "(default 5)")
    bench_obs.set_defaults(func=_cmd_bench)
    bench_trace = bench_sub.add_parser(
        "trace", help="time packed trace-store load vs cold generation")
    bench_trace.add_argument("--quick", action="store_true",
                             help="smaller workload so the bench finishes fast")
    bench_trace.add_argument("--repeat", type=int, default=3,
                             help="time the packed load N times, report the "
                                  "fastest")
    bench_trace.add_argument("--store", default=None,
                             help="bake into this store root instead of a "
                                  "temporary directory")
    bench_trace.add_argument("--output", default=None,
                             help="also write the entry as JSON")
    bench_trace.add_argument("--min-speedup", type=float, default=0.0,
                             help="exit 1 unless packed load beats cold "
                                  "generation by this factor")
    bench_trace.set_defaults(func=_cmd_bench)
    bench_profile = bench_sub.add_parser(
        "profile", help="cProfile one pinned scenario and print the hot spots")
    bench_profile.add_argument("--scenario", default="h264",
                               choices=[scenario.name for scenario in SUITE],
                               help="suite scenario to profile (default "
                                    "'h264')")
    bench_profile.add_argument("--quick", action="store_true",
                               help="shrunk trace so the profile finishes "
                                    "in seconds")
    bench_profile.add_argument("--top", type=int, default=25,
                               help="number of hot-spot rows to report "
                                    "(default 25)")
    bench_profile.add_argument("--sort", default="cumulative",
                               choices=PROFILE_SORTS,
                               help="row order: time including callees "
                                    "(cumulative, default) or self time "
                                    "(tottime)")
    bench_profile.add_argument("--out", default=None, metavar="PROF_JSON",
                               help="also write the full profile report "
                                    "as JSON")
    bench_profile.set_defaults(func=_cmd_bench)

    from repro.obs.io import DEFAULT_OBS_ROOT

    obs = subparsers.add_parser(
        "obs", help="cycle-resolved pipeline telemetry "
                    "(record, stall report, Perfetto export)")
    obs_sub = obs.add_subparsers(dest="action", required=True)

    def _obs_dir_arg(sub):
        sub.add_argument("--dir", default=str(DEFAULT_OBS_ROOT), metavar="DIR",
                         help="obs artifact directory "
                              f"(default {DEFAULT_OBS_ROOT})")

    obs_record = obs_sub.add_parser(
        "record", help="simulate one point with telemetry on and keep "
                       "the full recording")
    obs_record.add_argument("--workload", required=True, type=_workload_arg)
    obs_record.add_argument("--cores", type=int, default=256)
    obs_record.add_argument("--scale-factor", type=float, default=1.0)
    obs_record.add_argument("--seed", type=int, default=0)
    obs_record.add_argument("--max-tasks", type=int, default=None)
    obs_record.add_argument("--fast-generator", action="store_true")
    obs_record.add_argument("--capacity", type=int, default=1 << 20,
                            help="event ring capacity (oldest events drop "
                                 "beyond this; default 1Mi events)")
    obs_record.add_argument("--sample-interval", type=int, default=256,
                            help="occupancy sampling period in cycles "
                                 "(0 disables sampling)")
    _obs_dir_arg(obs_record)
    obs_record.set_defaults(func=_cmd_obs)

    obs_report = obs_sub.add_parser(
        "report", help="print a point's stall-attribution report")
    obs_report.add_argument("--point", default=None, metavar="PREFIX",
                            help="digest prefix of the point to report")
    obs_report.add_argument("--input", default=None, metavar="FILE.robs",
                            help="report a raw recording file instead")
    _obs_dir_arg(obs_report)
    obs_report.set_defaults(func=_cmd_obs)

    obs_export = obs_sub.add_parser(
        "export", help="export a recording as Chrome/Perfetto trace JSON")
    obs_export.add_argument("--point", default=None, metavar="PREFIX")
    obs_export.add_argument("--input", default=None, metavar="FILE.robs")
    obs_export.add_argument("--output", default=None, metavar="FILE.json")
    obs_export.add_argument("--validate", action="store_true",
                            help="schema-check the exported document "
                                 "(always performed; flag kept for scripts)")
    _obs_dir_arg(obs_export)
    obs_export.set_defaults(func=_cmd_obs)

    obs_heartbeats = obs_sub.add_parser(
        "heartbeats", help="show worker progress heartbeats")
    obs_heartbeats.add_argument("--tail", type=int, default=20,
                                help="show only the last N records")
    _obs_dir_arg(obs_heartbeats)
    obs_heartbeats.set_defaults(func=_cmd_obs)

    obs_gc = obs_sub.add_parser(
        "gc", help="delete obs artifacts (recordings, summaries, heartbeats)")
    obs_gc.add_argument("--dry-run", action="store_true")
    _obs_dir_arg(obs_gc)
    obs_gc.set_defaults(func=_cmd_obs)

    faults = subparsers.add_parser(
        "faults", help="deterministic fault injection for chaos testing "
                       "(see repro.sweep.faults)")
    faults_sub = faults.add_subparsers(dest="action", required=True)
    faults_list = faults_sub.add_parser(
        "list", help="show the supported fault kinds and the spec grammar")
    faults_list.set_defaults(func=_cmd_faults)
    faults_check = faults_sub.add_parser(
        "check", help="parse a fault spec and echo the resulting plan")
    faults_check.add_argument("--spec", required=True, metavar="SPEC",
                              help="fault spec, e.g. "
                                   "'worker_crash:point=0;slow_point:point=1,"
                                   "seconds=30'")
    faults_check.set_defaults(func=_cmd_faults)

    synth = subparsers.add_parser(
        "synth", help="synthetic task-graph families (the stress maps are "
                      "`repro campaign run --campaign synthetic-stress`)")
    synth.add_argument("action", choices=("list",),
                       help="'list' the families and knobs")
    synth.set_defaults(func=_cmd_synth)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
