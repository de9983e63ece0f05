"""The benchmark's own checks: digests repeat, tracing changes nothing, the
ledger accounts for every traced second, the gold-graph oracle counts
violated edges, an operation that raises counts as failed, and
BENCHMARK.json names exactly the metrics the harness prints."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import campaignbench, checks, run  # noqa: E402
from perfbench.simbench import SimBench, generate_trace  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def _bench(workload: str = "sharded_steal", seed: int = 0) -> SimBench:
    from repro.sweep.runner import build_point_config

    bench = SimBench(workload, seed)
    for point in bench.points:
        point.trace = generate_trace(point.params)
        point.config = build_point_config(point.params)
    return bench


def test_two_runs_give_the_same_digest():
    first, second = _bench(), _bench()
    first.warm_up()
    second.warm_up()
    assert first.digest() == second.digest()
    assert [p.violated_edges for p in first.points] == \
        [p.violated_edges for p in second.points]


def test_traced_round_matches_untraced_and_adds_up():
    bench = _bench()
    bench.warm_up()
    traced = bench.traced_round(Tracer())
    assert checks.result_digest(traced.results) == bench.digest()
    inside = {name: value for name, value in traced.layers.items()
              if name not in ("backend.system_build", "workloads.generate")}
    assert run.accounting_error(inside, traced.run_s) < \
        run.ACCOUNTING_TOLERANCE
    assert run.unreported([traced.layers]) == []
    # Both sharded points route tasks and cross the fabric.
    assert traced.layers["topology.router"] > 0
    assert traced.layers["topology.fabric"] > 0
    assert traced.layers["bench.tracer"] > 0


def test_unreported_time_fails_the_accounting():
    layers = {"sim.loop": 0.5, "frontend.trs": 0.3, "sim.other": 0.2}
    assert run.accounting_error(layers, 1.0) > run.ACCOUNTING_TOLERANCE
    assert run.unreported([layers]) == ["sim.other"]
    assert not run.check_accounting(True, [0.0], [layers])


def test_a_raising_run_is_a_failed_operation(monkeypatch):
    from repro.backend.system import TaskSuperscalarSystem
    from repro.common.errors import SchedulingError

    bench = _bench()
    bench.warm_up()
    clean = bench.round()
    target = bench.points[-1]  # skewed_lanes: passes every check
    assert not clean.executions[-1].problems
    original = TaskSuperscalarSystem.run

    def deadlocks(self, trace, *args, **kwargs):
        if len(trace) == len(target.trace):
            raise SchedulingError("simulation deadlocked (injected)")
        return original(self, trace, *args, **kwargs)

    monkeypatch.setattr(TaskSuperscalarSystem, "run", deadlocks)
    broken = bench.round()
    assert broken.failed == clean.failed + 1
    assert broken.executions[-1].result is None
    assert broken.executions[-1].problems[0] == \
        "SchedulingError: simulation deadlocked (injected)"


def test_a_raising_campaign_pass_fails_every_point(monkeypatch, tmp_path):
    from repro.experiments.campaigns import get_campaign

    bench = campaignbench.CampaignBench(0, tmp_path)
    bench.campaigns = [get_campaign(name, seeds=bench.seeds, quick=True)
                       for name in campaignbench.CAMPAIGNS]

    def raises(*_args, **_kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr("repro.sweep.campaign.run_campaign", raises)
    for tracer in (None, Tracer()):
        done = bench.run_pass(bench.fresh_dir(), cold=True, tracer=tracer)
        assert done.failed == done.points == bench.points() > 0
        assert done.problem == "RuntimeError: injected"


def test_gold_check_counts_every_violated_edge():
    from repro.backend.system import TaskSuperscalarSystem

    bench = _bench("single_frontend")
    point = bench.points[0]  # Cholesky: a correct schedule at the seed
    gold = checks.GoldGraph(point.trace, point.config.cmp.num_cores)
    system = TaskSuperscalarSystem(point.config)
    result = system.run(point.trace)
    table = system.scheduler.schedule_table()
    assert checks.check_point(gold, result, table).ok
    # Start three consumers before their producers finish.
    broken = dict(table)
    consumers = sorted({consumer for _, consumer in gold.edges})[:3]
    for consumer in consumers:
        broken[consumer] = (-1, broken[consumer][1])
    outcome = checks.check_point(gold, result, broken)
    expected = sum(1 for _, consumer in gold.edges if consumer in consumers)
    assert outcome.violated_edges == expected
    assert not outcome.ok


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS
    assert set(run.SPAN_METRICS.values()) <= set(run.PER_LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
