"""Golden-snapshot tests for published-figure experiment outputs.

The sweep refactor (and any future one) must not silently change the numbers
behind the paper's figures.  These tests run small but fixed configurations
of the Figure 12 decode-rate sweep and the Figure 16 speedup sweep, one
two-frontend work-stealing point and the quick ``repro bench`` suite, and
compare every measured value bit-for-bit against JSON snapshots checked into
``tests/golden/``.  The simulation is pure integer-cycle Python, so the
numbers are machine-independent; any diff is a real behaviour change.

If a change is *intended* (a model fix that legitimately moves the numbers),
regenerate the snapshots and review the diff like any other code change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_snapshots.py
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.backend.system import TaskSuperscalarSystem
from repro.experiments import decode_rate, scaling
from repro.experiments.common import experiment_config, experiment_trace
from repro.sweep import bench
from repro.sweep.runner import (build_point_config, generate_trace_for_key,
                                trace_key_for_params)
from tests.conftest import run_member

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

#: Small, fixed figure configurations (kept cheap so the suite stays fast).
FIG12_KWARGS = dict(trs_counts=(1, 4, 16), ort_counts=(1, 2),
                    scale_factor=0.4, max_tasks=120)
FIG16_KWARGS = dict(processor_counts=(16, 64), scale_factor=0.4)
#: A sharded, stealing machine: pins the multi-frontend merge, the fabric
#: and the stealing scheduler that the one-frontend figures never reach.
TOPOLOGY_N2 = dict(num_frontends=2, shard_policy="hash_by_object",
                   steal_policy="random")


def fig12_snapshot() -> dict:
    spec = decode_rate.decode_rate_spec("fig12", ("Cholesky",), **FIG12_KWARGS)
    metrics = ("decode_rate_cycles", "decode_rate_ns", "tasks_decoded")
    member = run_member(spec, metrics=metrics)
    cycles, ns, decoded = (decode_rate.decode_rate_series(member, metric)["Cholesky"]
                           for metric in metrics)
    points = [{"workload": "Cholesky", "num_trs": trs, "num_ort": ort,
               "decode_rate_cycles": cycles[trs, ort],
               "decode_rate_ns": ns[trs, ort],
               "tasks_decoded": int(decoded[trs, ort])}
              for ort in FIG12_KWARGS["ort_counts"]
              for trs in FIG12_KWARGS["trs_counts"]]
    return {"experiment": "fig12", "workload": "Cholesky",
            "config": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in FIG12_KWARGS.items()},
            "points": points}


def fig16_snapshot() -> dict:
    spec = scaling.scaling_spec(("MatMul",), **FIG16_KWARGS)
    member = run_member(spec, metrics=("speedup", "decode_rate_ns"))
    speedup = scaling.speedup_series(member)["MatMul"]
    decode_ns = scaling.speedup_series(member, "decode_rate_ns")["MatMul"]
    points = [{"workload": "MatMul", "num_cores": cores,
               "hardware_speedup": speedup[cores]["hardware"],
               "software_speedup": speedup[cores]["software"],
               "hardware_decode_ns": decode_ns[cores]["hardware"],
               "software_decode_ns": decode_ns[cores]["software"],
               "dataflow_limit": None}
              for cores in FIG16_KWARGS["processor_counts"]]
    return {"experiment": "fig16", "workload": "MatMul",
            "config": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in FIG16_KWARGS.items()},
            "points": points}


def topology_n2_snapshot() -> dict:
    trace = experiment_trace("Cholesky", scale_factor=0.3, max_tasks=80)
    config = experiment_config(num_cores=16).with_topology(**TOPOLOGY_N2)
    result = TaskSuperscalarSystem(config).run(trace)
    return {"experiment": "topology_n2", "workload": "Cholesky",
            "config": dict(TOPOLOGY_N2, num_cores=16, scale_factor=0.3,
                           max_tasks=80),
            "result": asdict(result)}


def bench_quick_snapshot() -> dict:
    """The simulated work of each quick bench scenario.

    The committed values were measured on the structure-of-arrays frontend
    (commit d9ae1f4) and every bit-identical change since has kept them.
    """
    scenarios = {}
    for scenario in bench.SUITE:
        params = scenario.effective_params(quick=True)
        trace = generate_trace_for_key(trace_key_for_params(params)[0])
        system = TaskSuperscalarSystem(build_point_config(params))
        result = system.run(trace)
        scenarios[scenario.name] = {
            "params": params,
            "metrics": {"num_tasks": result.num_tasks,
                        "tasks_decoded": result.tasks_decoded,
                        "events": system.engine.events_processed,
                        "makespan_cycles": result.makespan_cycles}}
    return {"experiment": "bench_quick", "scenarios": scenarios}


def _check_against_golden(name: str, snapshot: dict) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if REGEN:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=1, sort_keys=True)
            handle.write("\n")
        pytest.skip(f"regenerated {path}")
    if not path.exists():
        pytest.fail(f"golden file {path} missing; run with REPRO_REGEN_GOLDEN=1")
    with open(path, "r", encoding="utf-8") as handle:
        golden = json.load(handle)
    assert snapshot == golden, (
        f"{name} diverged from its golden snapshot; if the change is "
        "intended, regenerate with REPRO_REGEN_GOLDEN=1 and review the diff")


class TestGoldenSnapshots:
    def test_fig12_decode_rate_matches_golden(self):
        _check_against_golden("fig12_cholesky", fig12_snapshot())

    def test_fig16_speedup_matches_golden(self):
        _check_against_golden("fig16_matmul", fig16_snapshot())

    def test_topology_n2_matches_golden(self):
        _check_against_golden("topology_n2", topology_n2_snapshot())

    def test_bench_quick_matches_golden(self):
        _check_against_golden("bench_quick", bench_quick_snapshot())
