"""Tests for the multi-frontend topology subsystem (:mod:`repro.topology`).

The acceptance-critical scenarios:

* the trivial topology (``num_frontends=1``, ``steal_policy="none"``) is
  bit-identical to the pre-topology machine -- same result, same stats
  dict, no router/fabric/steal stat keys,
* multi-frontend runs conserve tasks (every decoded task executes exactly
  once, validated against the gold dependency graph) and account steals
  consistently,
* sharded sweeps are bit-identical between serial and 2-worker parallel
  runners,
* ``topology.*`` parameters are first-class cache axes: different values
  hash to different point ids,
* the router's shard assignment is deterministic and policy-faithful.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.backend.system import TaskSuperscalarSystem
from repro.common.config import TopologyConfig
from repro.common.errors import ConfigurationError
from repro.experiments.common import experiment_config, experiment_trace
from repro.sweep.runner import SweepRunner, execute_point
from repro.sweep.spec import SweepSpec
from repro.workloads import registry


def _config(num_cores=32, **topology):
    config = experiment_config(num_cores=num_cores)
    return config.with_topology(**topology) if topology else config


def _trace(name="Cholesky", **kwargs):
    kwargs.setdefault("scale_factor", 0.3)
    kwargs.setdefault("max_tasks", 80)
    return experiment_trace(name, **kwargs)


class TestTrivialTopologyIdentity:
    def test_explicit_trivial_topology_is_bit_identical(self):
        """Idle topology knobs must not move a single bit of the result."""
        trace = _trace()
        legacy = asdict(TaskSuperscalarSystem(_config()).run(trace))
        explicit = asdict(TaskSuperscalarSystem(_config(
            num_frontends=1, shard_policy="hash_by_object",
            steal_policy="none", forward_latency_cycles=99)).run(trace))
        assert explicit == legacy

    def test_trivial_machine_grows_no_topology_stat_keys(self):
        result = TaskSuperscalarSystem(_config()).run(_trace())
        leaked = [key for key in result.stats
                  if key.startswith(("router.", "fabric.", "fe0.",
                                     "scheduler.steals"))]
        assert leaked == []
        assert result.num_frontends == 1
        assert result.tasks_stolen == 0
        assert result.inter_frontend_forwards == 0
        assert result.per_frontend_tasks_decoded == [result.tasks_decoded]


class TestMultiFrontendConservation:
    @pytest.mark.parametrize("shard_policy",
                             ("round_robin", "hash_by_object",
                              "hash_by_kernel"))
    @pytest.mark.parametrize("steal_policy", ("none", "random", "nearest"))
    def test_tasks_conserved_and_schedule_valid(self, shard_policy,
                                                steal_policy):
        """Every decoded task executes exactly once, wherever it ran."""
        trace = _trace("MatMul", max_tasks=120)
        system = TaskSuperscalarSystem(_config(
            num_cores=16, num_frontends=2, shard_policy=shard_policy,
            steal_policy=steal_policy))
        result = system.run(trace, validate=True)
        assert result.num_frontends == 2
        assert result.tasks_completed == len(trace)
        assert result.tasks_decoded == len(trace)
        assert sum(result.per_frontend_tasks_decoded) == result.tasks_decoded
        assert result.tasks_stolen == sum(result.steals_by_cluster)
        assert result.stats["router.tasks_routed"] == len(trace)
        routed = sum(result.stats[f"router.fe{i}.tasks"] for i in range(2))
        assert routed == len(trace)
        if steal_policy == "none":
            assert result.tasks_stolen == 0
            assert "scheduler.steals" not in result.stats
        else:
            assert result.stats["scheduler.steals"] == result.tasks_stolen

    def test_stealing_rescues_a_degenerate_sharding(self):
        """hash_by_kernel on a one-kernel trace lands every task on one
        shard; stealing must recover the stranded cluster's cores."""
        trace = _trace("MatMul", max_tasks=120)
        affine = TaskSuperscalarSystem(_config(
            num_cores=16, num_frontends=2,
            shard_policy="hash_by_kernel")).run(trace, validate=True)
        stealing = TaskSuperscalarSystem(_config(
            num_cores=16, num_frontends=2, shard_policy="hash_by_kernel",
            steal_policy="nearest")).run(trace, validate=True)
        # One kernel -> one shard: the other pipeline decodes nothing.
        assert 0 in affine.per_frontend_tasks_decoded
        assert stealing.tasks_stolen > 0
        assert stealing.makespan_cycles < affine.makespan_cycles

    def test_multi_frontend_run_is_deterministic(self):
        trace = _trace(max_tasks=60)
        results = [asdict(TaskSuperscalarSystem(_config(
            num_cores=16, num_frontends=2, shard_policy="round_robin",
            steal_policy="random")).run(trace)) for _ in range(2)]
        assert results[0] == results[1]

    def test_skewed_lanes_profit_from_stealing(self):
        """The stealing-friendly synthetic family: heavily skewed lanes
        strand one cluster behind the slow shard unless it can steal."""
        trace = registry.generate("skewed_lanes", seed=0, width=16,
                                  depth=24, skew=6.0)
        kwargs = dict(num_cores=4, num_frontends=2,
                      shard_policy="round_robin")
        affine = TaskSuperscalarSystem(_config(
            steal_policy="none", **kwargs)).run(trace, validate=True)
        stealing = TaskSuperscalarSystem(_config(
            steal_policy="nearest", **kwargs)).run(trace, validate=True)
        assert stealing.tasks_stolen > 0
        assert stealing.makespan_cycles < affine.makespan_cycles


class TestShardDeterminismAcrossRunners:
    def test_parallel_runner_matches_serial_bit_for_bit(self):
        spec = SweepSpec(
            name="topology-determinism",
            workloads=("Cholesky",),
            axes={
                "topology.num_frontends": (1, 2),
                "topology.shard_policy": ("round_robin", "hash_by_object"),
            },
            base={"scale_factor": 0.25, "max_tasks": 50, "num_cores": 16,
                  "fast_generator": True, "topology.steal_policy": "nearest"},
        )
        serial = SweepRunner().run(spec)
        parallel = SweepRunner(jobs=2).run(spec)
        for point, mine, theirs in zip(spec.points(), serial.results,
                                       parallel.results):
            assert asdict(mine) == asdict(theirs), (
                f"parallel result diverged at {point.label()}")


class TestTopologyCacheKeys:
    def test_topology_axes_hash_to_distinct_point_ids(self):
        spec = SweepSpec(
            name="topology-keys",
            workloads=("Cholesky",),
            axes={
                "topology.num_frontends": (1, 2, 4),
                "topology.shard_policy": ("round_robin", "hash_by_object",
                                          "hash_by_kernel"),
                "topology.steal_policy": ("none", "nearest"),
            },
        )
        points = spec.points()
        ids = {point.point_id for point in points}
        assert len(ids) == len(points) == 18

    def test_worker_entry_point_carries_topology_params(self):
        params = {"workload": "Cholesky", "num_cores": 16,
                  "scale_factor": 0.25, "max_tasks": 50,
                  "fast_generator": True, "topology.num_frontends": 2,
                  "topology.shard_policy": "hash_by_object",
                  "topology.steal_policy": "nearest"}
        result = execute_point(params)
        assert result["num_frontends"] == 2
        assert sum(result["per_frontend_tasks_decoded"]) == \
            result["tasks_decoded"]


class TestTopologyConfigValidation:
    def test_rejects_bad_values(self):
        for bad in (dict(num_frontends=0), dict(shard_policy="modulo"),
                    dict(steal_policy="always"),
                    dict(forward_latency_cycles=-1)):
            with pytest.raises(ConfigurationError):
                TopologyConfig(**bad).validate()

    def test_trivial_predicate(self):
        assert TopologyConfig().is_trivial
        assert not TopologyConfig(num_frontends=2).is_trivial
        assert not TopologyConfig(steal_policy="random").is_trivial
