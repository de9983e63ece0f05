"""Run one benchmark workload and print its result as the last line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload single_frontend --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, measured by alternating
untraced rounds with rounds whose layer boundaries are timed.  The program
measured is the ``src`` tree next to this directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("single_frontend", "sharded_steal", "campaign")

#: Relative tolerance for "the per-layer self times add up to the span".
ACCOUNTING_TOLERANCE = 0.01

#: Every end-to-end metric, with its unit (``BENCHMARK.json`` lists the same).
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s", "host_tasks_per_s": "tasks/s", "cold_pass_s": "s",
    "warm_pass_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio",
}

#: Every per-layer metric, with its unit (``BENCHMARK.json`` lists the same).
PER_LAYER_UNITS: Dict[str, str] = {
    "sim.events": "count", "sim.ns_per_event": "ns", "sim.loop_self_s": "s",
    **{f"frontend.{m}.self_s": "s"
       for m in ("gateway", "trs", "ort", "ovt", "ready_queue")},
    **{f"frontend.{m}.packets": "count"
       for m in ("gateway", "trs", "ort", "ovt", "ready_queue")},
    "frontend.gateway.alloc_retries": "count",
    "frontend.decode_cycles_per_task": "cycles",
    "frontend.window_peak_tasks": "tasks",
    "frontend.gateway.stalls": "count",
    "frontend.dep_violations": "count",
    "backend.system_build_s": "s", "backend.scheduler.self_s": "s",
    "backend.makespan_cycles": "cycles",
    "cores.worker.self_s": "s", "cores.generator.self_s": "s",
    "cores.utilization": "ratio", "cores.generator_stall_cycles": "cycles",
    "topology.router.self_s": "s", "topology.fabric.self_s": "s",
    "topology.forwards": "count", "topology.tasks_stolen": "count",
    "topology.router.rejected": "count",
    "workloads.generate_s": "s",
    "trace.bake_s": "s", "trace.load_s": "s", "trace.generated": "count",
    "trace.reused": "count",
    "sweep.expand_s": "s", "sweep.cache_get_s": "s", "sweep.cache_gets": "count",
    "sweep.cache_put_s": "s", "sweep.cache_puts": "count",
    "sweep.journal_s": "s", "sweep.journal_events": "count",
    "sweep.aggregate_s": "s", "sweep.simulate_s": "s",
    "sweep.runner_self_s": "s",
    "sweep.points_computed": "count", "sweep.points_cached": "count",
    "sweep.cache_hit_ratio": "ratio", "sweep.retried": "count",
    "sweep.quarantined": "count",
    "obs.telemetry_s": "s", "obs.heartbeat_s": "s", "obs.heartbeats": "count",
    "bench.tracer_cost_s": "s",
    "bench.tracing_overhead": "ratio", "bench.accounting_error": "ratio",
    "bench.error_rate": "ratio", "bench.host_probe_s": "s",
}

#: Span names of the tracer -> per-layer self-time metric.
SPAN_METRICS = {
    "sim.loop": "sim.loop_self_s",
    "frontend.gateway": "frontend.gateway.self_s",
    "frontend.trs": "frontend.trs.self_s",
    "frontend.ort": "frontend.ort.self_s",
    "frontend.ovt": "frontend.ovt.self_s",
    "frontend.ready_queue": "frontend.ready_queue.self_s",
    "backend.system_build": "backend.system_build_s",
    "backend.scheduler": "backend.scheduler.self_s",
    "cores.worker": "cores.worker.self_s",
    "cores.generator": "cores.generator.self_s",
    "topology.router": "topology.router.self_s",
    "topology.fabric": "topology.fabric.self_s",
    "workloads.generate": "workloads.generate_s",
    "trace.bake": "trace.bake_s",
    "trace.load": "trace.load_s",
    "sweep.expand": "sweep.expand_s",
    "sweep.cache_get": "sweep.cache_get_s",
    "sweep.cache_put": "sweep.cache_put_s",
    "sweep.journal": "sweep.journal_s",
    "sweep.aggregate": "sweep.aggregate_s",
    "sweep.simulate": "sweep.simulate_s",
    "sweep.runner": "sweep.runner_self_s",
    "obs.telemetry": "obs.telemetry_s",
    "obs.heartbeat": "obs.heartbeat_s",
    "bench.tracer": "bench.tracer_cost_s",
}


def median_layers(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer self-time metrics: the median of each span over samples."""
    from perfbench.common import median

    names = {name for sample in samples for name in sample}
    return {SPAN_METRICS[name]: median([s.get(name, 0.0) for s in samples])
            for name in names if name in SPAN_METRICS}


def accounting_error(layers: Dict[str, float], span: float) -> float:
    """How far the reported self times miss the independently timed span.

    Only spans that map to a per-layer metric count, so time charged to a
    span the ledger does not report (such as ``sim.other``, a callback of a
    module missing from ``tracer.CALLBACK_LAYERS``) shows as an error.
    """
    reported = sum(value for name, value in layers.items()
                   if name in SPAN_METRICS)
    return abs(reported - span) / span if span > 0 else 1.0


def unreported(samples: List[Dict[str, float]]) -> List[str]:
    """Spans with time that no per-layer metric reports."""
    return sorted({name for sample in samples for name, value in sample.items()
                   if name not in SPAN_METRICS and value})


def print_failures(failures: Dict[str, List[str]]) -> None:
    """Each operation's first problem and how often it failed."""
    for name, problems in failures.items():
        if problems:
            print(f"  {name}: failed {len(problems)}x, e.g. {problems[0]}")


def run_simulator(workload: str, seed: int, seconds: float,
                  trace: bool) -> dict:
    from perfbench import checks, common
    from perfbench.simbench import SimBench, simulated_metrics
    from perfbench.tracer import Tracer

    probe = common.HostProbe()
    bench = SimBench(workload, seed, probe)
    setup_probe = common.HostProbe()
    setup = bench.setup_seconds(setup_probe)
    print(f"{workload} seed {seed}: set-up {setup:.3f} s; warm-up:")
    bench.warm_up()
    digest = bench.digest()
    print(f"simulated-statistics digest {workload} seed {seed}: {digest}")

    tracer = Tracer()
    rounds, traced = [], []
    deadline = perf_counter() + seconds
    while True:
        rounds.append(bench.round())
        if trace:
            traced.append(bench.traced_round(tracer))
        if perf_counter() >= deadline:
            break
    measured = rounds + traced
    attempted = sum(len(r.executions) for r in measured)
    failed = sum(r.failed for r in measured)
    untraced = bench.summary(rounds)
    events = sum(p.events for p in bench.points)
    correct = all(checks.result_digest(r.results) == digest for r in traced)
    print(f"{len(rounds)} untraced and {len(traced)} traced round(s); "
          f"{failed} of {attempted} executions failed their checks")
    print_failures({point.name: [problem for r in measured
                                 for problem in r.executions[i].problems[:1]]
                    for i, point in enumerate(bench.points)})
    if bench.nondeterministic:
        print(f"{bench.nondeterministic} execution(s) differed from the "
              "warm-up result")
    run_s = untraced.run_s or float("inf")
    print(f"unscaled: {events / run_s:.0f} events/s, "
          f"{events} events per pass")

    if not trace:
        return result(correct, attempted, failed, end_to_end(
            probe, setup_probe, setup=setup,
            host_tasks_per_s=bench.tasks / run_s,
            cold_pass_s=untraced.cold_s, warm_pass_s=untraced.warm_s,
            success_rate=1.0 - failed / attempted))

    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(simulated_metrics(p.result for p in bench.points))
    values["sim.events"] = float(events)
    values["sim.ns_per_event"] = untraced.run_s / max(events, 1) * 1e9
    values["frontend.dep_violations"] = float(
        sum(p.violated_edges for p in bench.points))
    layers = [r.layers for r in traced]
    values.update(median_layers(layers))
    outside_run = ("backend.system_build", "workloads.generate")
    errors = [accounting_error({k: v for k, v in r.layers.items()
                                if k not in outside_run}, r.run_s)
              for r in traced]
    values["bench.accounting_error"] = max(errors)
    values["bench.tracing_overhead"] = (
        bench.summary(traced).run_s / run_s - 1.0)
    values["bench.error_rate"] = failed / attempted
    correct = check_accounting(correct, errors, layers)
    print_ledger(values, layers[-1])
    return result(correct, attempted, failed, per_layer(values, probe))


def run_campaign(seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import campaignbench, common
    from perfbench.simbench import simulated_metrics
    from perfbench.tracer import Tracer

    workdir = ROOT / ".perfbench"
    probe = common.HostProbe()
    bench = campaignbench.CampaignBench(seed, workdir)
    setup_probe = common.HostProbe()
    try:
        setup = bench.setup_seconds(setup_probe)
        print(f"campaign seeds {bench.seeds}: {bench.points()} points per "
              f"pass; set-up {setup:.3f} s; warm-up cycle")
        artifacts = bench.fresh_dir()
        bench.run_pass(artifacts, cold=True)
        bench.run_pass(artifacts, cold=False)
        # Distinct points are simulated once per cold pass.
        distinct = {point_id: r for point_id, r
                    in bench.cached_results(artifacts) if r is not None}
        tasks_per_pass = sum(r.tasks_completed for r in distinct.values())
        shutil.rmtree(artifacts)
        print(f"simulated-statistics digest campaign seed {seed}: "
              f"{bench.digest}")

        tracer = Tracer()
        cold, warm, traced = [], [], []
        deadline = perf_counter() + seconds
        while True:
            artifacts = bench.fresh_dir()
            probe.sample()
            cold.append(bench.run_pass(artifacts, cold=True))
            for _ in range(campaignbench.WARM_PASSES):
                probe.sample()
                warm.append(bench.run_pass(artifacts, cold=False))
            shutil.rmtree(artifacts)
            if trace:
                artifacts = bench.fresh_dir()
                traced_cold = bench.run_pass(artifacts, True, tracer)
                traced_warm = bench.run_pass(artifacts, False, tracer)
                traced.append((traced_cold, traced_warm))
                shutil.rmtree(artifacts)
            if perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = cold + warm + [p for pair in traced for p in pair]
    attempted = sum(p.points for p in passes)
    failed = sum(p.failed for p in passes)
    correct = all(c.digest == bench.digest for c, _ in traced)
    print(f"{len(cold)} cycle(s) of 1 cold + {campaignbench.WARM_PASSES} "
          f"warm passes, {len(traced)} traced cycle(s); {failed} of "
          f"{attempted} point-passes failed their checks")
    print_failures({"cold passes": [p.problem for p in cold if p.problem],
                    "warm passes": [p.problem for p in warm if p.problem],
                    "traced passes": [p.problem for pair in traced
                                      for p in pair if p.problem]})

    if not trace:
        cold_s = common.median([p.seconds for p in cold])
        return result(correct, attempted, failed, end_to_end(
            probe, setup_probe, setup=setup,
            host_tasks_per_s=tasks_per_pass / cold_s,
            cold_pass_s=cold_s,
            warm_pass_s=common.median([p.seconds for p in warm]),
            success_rate=1.0 - failed / attempted))

    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update(simulated_metrics(distinct.values()))
    cycle_layers = []
    for c, w in traced:
        layers = dict(c.layers)
        for name, value in w.layers.items():
            layers[name] = layers.get(name, 0.0) + value
        cycle_layers.append(layers)
    values.update(median_layers(cycle_layers))
    c, w = traced[-1]
    calls = {name: c.calls.get(name, 0) + w.calls.get(name, 0)
             for name in set(c.calls) | set(w.calls)}
    values.update({
        "sweep.cache_gets": float(calls.get("sweep.cache_get", 0)),
        "sweep.cache_puts": float(calls.get("sweep.cache_put", 0)),
        "sweep.journal_events": float(calls.get("sweep.journal", 0)),
        "obs.heartbeats": float(calls.get("obs.heartbeat", 0)),
        "trace.generated": float(c.generated + w.generated),
        "trace.reused": float(c.reused + w.reused),
        "sweep.points_computed": float(c.computed + w.computed),
        "sweep.points_cached": float(c.cached + w.cached),
        "sweep.retried": float(c.retried + w.retried),
        "sweep.quarantined": float(c.quarantined + w.quarantined),
    })
    served = values["sweep.points_computed"] + values["sweep.points_cached"]
    values["sweep.cache_hit_ratio"] = (
        values["sweep.points_cached"] / served if served else 0.0)
    errors = [accounting_error(p.layers, p.seconds)
              for pair in traced for p in pair]
    values["bench.accounting_error"] = max(errors)
    untraced = (common.median([p.seconds for p in cold])
                + common.median([p.seconds for p in warm]))
    values["bench.tracing_overhead"] = (
        (common.median([c.seconds for c, _ in traced])
         + common.median([w.seconds for _, w in traced])) / untraced - 1.0)
    values["bench.error_rate"] = failed / attempted
    correct = check_accounting(correct, errors, cycle_layers)
    print_ledger(values, cycle_layers[-1])
    return result(correct, attempted, failed, per_layer(values, probe))


def check_accounting(correct: bool, errors: List[float],
                     layers: List[Dict[str, float]]) -> bool:
    """Whether the ledger accounts for every traced second."""
    missing = unreported(layers)
    if missing:
        print(f"time in spans no per-layer metric reports: {missing}")
    worst = max(errors)
    if worst > ACCOUNTING_TOLERANCE:
        print(f"reported self times miss the traced span by {worst:.2%}")
    return correct and not missing and worst <= ACCOUNTING_TOLERANCE


def print_ledger(values: Dict[str, float], layers: Dict[str, float]) -> None:
    """Human-readable per-layer ledger (the JSON line follows it)."""
    total = sum(layers.values())
    print("self time by span (last traced sample):")
    for name, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        share = 100.0 * value / total if total else 0.0
        print(f"  {name:22s} {value:9.4f} s  {share:5.1f}%")
    for name in sorted(values):
        print(f"  {name:34s} {values[name]:.6g} {PER_LAYER_UNITS[name]}")


def end_to_end(probe, setup_probe, setup: float, host_tasks_per_s: float,
               cold_pass_s: float, warm_pass_s: float,
               success_rate: float) -> Dict[str, dict]:
    """The end-to-end metrics, host times scaled to the reference host.

    Set-up is scaled by the probe samples taken during set-up, everything
    else by those taken during the measured rounds.
    """
    from perfbench.common import peak_rss_mb

    scale = probe.scale
    print(f"host probe {probe.seconds:.4f} s (median of "
          f"{len(probe.samples)}), scale {scale:.4f}; set-up probe "
          f"{setup_probe.seconds:.4f} s, scale {setup_probe.scale:.4f}; "
          f"unscaled: set-up {setup:.4f} s, {host_tasks_per_s:.1f} tasks/s, "
          f"cold pass {cold_pass_s:.4f} s, warm pass {warm_pass_s:.4f} s")
    values = {"setup_s": setup * setup_probe.scale,
              "host_tasks_per_s": host_tasks_per_s / scale,
              "cold_pass_s": cold_pass_s * scale,
              "warm_pass_s": warm_pass_s * scale,
              "peak_rss_mb": peak_rss_mb(), "success_rate": success_rate}
    return {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
            for name in END_TO_END_UNITS}


def per_layer(values: Dict[str, float], probe) -> Dict[str, dict]:
    """The per-layer metrics, host times scaled to the reference host."""
    values = dict(values, **{"bench.host_probe_s": probe.seconds})
    scaled = {name: value * probe.scale
              if PER_LAYER_UNITS[name] in ("s", "ns")
              and name != "bench.host_probe_s" else value
              for name, value in values.items()}
    return {name: {"value": scaled[name], "unit": PER_LAYER_UNITS[name]}
            for name in PER_LAYER_UNITS}


def result(correct: bool, attempted: int, failed: int, metrics) -> dict:
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    if args.workload == "campaign":
        outcome = run_campaign(args.seed, args.seconds, bool(args.trace))
    else:
        outcome = run_simulator(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
