"""The simulator workloads: ``single_frontend`` and ``sharded_steal``.

Closed loop, one client: each point is simulated in-process only after the
previous one completed.  A *round* executes every point once -- generate the
trace, build the system, run it -- with a timestamp after each step, and
every execution is checked against the gold oracles in
:mod:`perfbench.checks` outside the timed region.  An execution that raises
(e.g. the ``SchedulingError`` a deadlocked run ends with) is a failed
operation, not a failed benchmark run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from perfbench import checks, common
from perfbench.tracer import SIMULATOR_TARGETS, Patches, Tracer, \
    timer_cost, traced_engine_class, traced_loop_cost

#: The five N=1 points of the pinned bench suite on the Table II machine
#: (1 frontend, 8 TRS / 2 ORT / 2 OVT).
SINGLE_FRONTEND = [
    ("cholesky", {"workload": "Cholesky", "num_cores": 128,
                  "scale_factor": 1.0, "max_tasks": 2000}),
    ("h264", {"workload": "H264", "num_cores": 128, "scale_factor": 1.0,
              "max_tasks": 1500}),
    ("matmul_fast", {"workload": "MatMul", "num_cores": 256,
                     "scale_factor": 1.0, "fast_generator": True,
                     "max_tasks": 1500}),
    ("operand_pressure", {"workload": "random_dag", "num_cores": 64,
                          "fast_generator": True, "workload.width": 24,
                          "workload.depth": 48, "workload.extra_inputs": 8}),
    ("window_pressure", {"workload": "pipeline_chain", "num_cores": 64,
                         "fast_generator": True, "workload.width": 16,
                         "workload.depth": 64, "workload.dep_distance": 64}),
]

#: Four sharded pipelines with work stealing, as in the topology-scaling
#: campaign: a regular trace hashed by object and an imbalanced one dealt
#: round-robin.
SHARDED_STEAL = [
    ("cholesky_n4", {"workload": "Cholesky", "num_cores": 128,
                     "scale_factor": 1.0, "max_tasks": 2000,
                     "fast_generator": True, "topology.num_frontends": 4,
                     "topology.shard_policy": "hash_by_object",
                     "topology.steal_policy": "random"}),
    ("skewed_lanes_n4", {"workload": "skewed_lanes", "num_cores": 64,
                         "fast_generator": True, "workload.width": 16,
                         "workload.skew": 6, "workload.depth": 64,
                         "topology.num_frontends": 4,
                         "topology.shard_policy": "round_robin",
                         "topology.steal_policy": "nearest"}),
]

WORKLOADS = {"single_frontend": SINGLE_FRONTEND,
             "sharded_steal": SHARDED_STEAL}

IMPORTS = ("repro.backend.system", "repro.experiments.common",
           "repro.runtime.taskgraph", "repro.sweep.runner")


def points_for(workload: str, seed: int) -> List[tuple]:
    """``(name, params)`` of every point, with the workload seed applied."""
    return [(name, dict(params, seed=seed))
            for name, params in WORKLOADS[workload]]


def generate_trace(params: Dict[str, object]):
    from repro.experiments.common import experiment_trace
    from repro.sweep.runner import workload_params

    max_tasks = params.get("max_tasks")
    return experiment_trace(
        str(params["workload"]),
        scale_factor=float(params.get("scale_factor", 1.0)),
        seed=int(params["seed"]),
        max_tasks=None if max_tasks is None else int(max_tasks),
        **workload_params(params))


@dataclass
class Point:
    name: str
    params: Dict[str, object]
    config: object = None
    trace: object = None
    gold: Optional[checks.GoldGraph] = None
    #: Reference outcome, from the warm-up execution.
    digest: str = ""
    violated_edges: int = 0
    result: object = None
    events: int = 0


@dataclass
class Execution:
    """One simulated point: host times and the outcome of its checks."""

    seconds: float  # generate + build + run
    warm_seconds: float  # build + run
    run_seconds: float  # inside TaskSuperscalarSystem.run
    events: int
    result: object  # None when the execution raised
    digest: str
    violated_edges: int
    #: Why the execution failed its checks; empty when it passed.
    problems: List[str]


@dataclass
class Round:
    """One execution of every point, in point order."""

    executions: List[Execution]
    #: Self time per span name (traced rounds only).
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def results(self) -> List[object]:
        return [e.result for e in self.executions]

    @property
    def run_s(self) -> float:
        return sum(e.run_seconds for e in self.executions)

    @property
    def events(self) -> int:
        return sum(e.events for e in self.executions)

    @property
    def failed(self) -> int:
        return sum(bool(e.problems) for e in self.executions)


@dataclass
class Summary:
    """Per-pass host times: the sum over points of each point's median."""

    run_s: float  # inside TaskSuperscalarSystem.run
    cold_s: float  # generate + build + run
    warm_s: float  # build + run


class SimBench:
    """Set-up, warm-up and measured rounds of one simulator workload."""

    def __init__(self, workload: str, seed: int,
                 probe: Optional[common.HostProbe] = None):
        self.workload = workload
        #: Sampled before every measured execution (see HostProbe).
        self.probe = probe if probe is not None else common.HostProbe()
        self.points = [Point(name, params)
                       for name, params in points_for(workload, seed)]
        #: Executions whose result differed from the warm-up's.
        self.nondeterministic = 0

    # -- Set-up ---------------------------------------------------------

    def setup_seconds(self, probe: common.HostProbe) -> float:
        """Import ``repro``, generate every trace and build every system.

        ``probe`` is sampled before every repetition, so that set-up, which
        runs at one time of the run, is scaled by the host speed of then.
        """
        from repro.backend.system import TaskSuperscalarSystem
        from repro.sweep.runner import build_point_config

        imports = common.import_seconds(IMPORTS, probe)
        samples = []
        for _ in range(common.SETUP_REPEATS + 1):
            common.settle()
            probe.sample()
            start = perf_counter()
            for point in self.points:
                point.trace = generate_trace(point.params)
                point.config = build_point_config(point.params)
                TaskSuperscalarSystem(point.config)
            samples.append(perf_counter() - start)
        # The first pass pays one-off lazy imports; it is the warm-up.
        return imports + common.median(samples[1:])

    def warm_up(self) -> None:
        """Run every point once, untimed, and record its reference outcome."""
        for point in self.points:
            point.gold = checks.GoldGraph(point.trace,
                                          point.config.cmp.num_cores)
            first = self._execute(point)
            point.digest = first.digest
            point.violated_edges = first.violated_edges
            point.result = first.result
            point.events = first.events
            status = "ok" if not first.problems else \
                "FAIL: " + "; ".join(first.problems)
            makespan = getattr(first.result, "makespan_cycles", None)
            print(f"  {point.name}: {len(point.trace)} tasks, "
                  f"{point.events} events, makespan {makespan} -> {status}")

    # -- Measured rounds ------------------------------------------------

    def _execute(self, point: Point) -> Execution:
        """Generate, build and run one point; check it outside the timing."""
        from repro.backend.system import TaskSuperscalarSystem
        from repro.sweep.runner import build_point_config

        self.probe.sample()
        system = result = generated = built = None
        problems: List[str] = []
        start = perf_counter()
        try:
            trace = generate_trace(point.params)
            config = build_point_config(point.params)
            generated = perf_counter()
            system = TaskSuperscalarSystem(config)
            built = perf_counter()
            result = system.run(trace)
        except Exception as error:  # a failed operation, counted as such
            problems.append(f"{type(error).__name__}: {error}")
        end = perf_counter()
        generated = end if generated is None else generated
        built = end if built is None else built
        violated = 0
        if result is not None:
            check = checks.check_point(point.gold, result,
                                       system.scheduler.schedule_table())
            violated = check.violated_edges
            problems.extend(check.problems)
        return Execution(
            seconds=end - start, warm_seconds=end - generated,
            run_seconds=end - built,
            events=system.engine.events_processed if system else 0,
            result=result, digest=checks.result_digest([result]),
            violated_edges=violated, problems=problems)

    def round(self) -> Round:
        common.settle()
        executions = []
        for point in self.points:
            execution = self._execute(point)
            if execution.digest != point.digest:
                self.nondeterministic += 1
                execution.problems.append("result differs from the warm-up's")
            executions.append(execution)
        return Round(executions)

    def traced_round(self, tracer: Tracer) -> Round:
        """A round with every layer boundary timed (see ``tracer``).

        The tracer's own cost is measured just before and moved into a
        ``bench.tracer`` span of its own: the clock reads inside every span
        (:func:`timer_cost` per call) and what the traced engine loop adds
        per event over ``Engine.run`` (:func:`traced_loop_cost`), which
        would otherwise sit in the ``sim.loop`` residual.
        """
        common.settle()
        per_event, per_span = traced_loop_cost(), timer_cost()
        with Patches(tracer, SIMULATOR_TARGETS) as patches:
            patches.replace("repro.backend.system", "Engine",
                            traced_engine_class(tracer))
            before, before_calls = tracer.snapshot()
            measured = self.round()
            after, after_calls = tracer.snapshot()
        calls = {name: after_calls[name] - before_calls.get(name, 0)
                 for name in after}
        layers = {name: after[name] - before.get(name, 0.0)
                  - per_span * calls[name] for name in after}
        loop = per_event * measured.events
        layers["sim.loop"] = layers.get("sim.loop", 0.0) - loop
        layers["bench.tracer"] = loop + per_span * sum(calls.values())
        measured.layers = layers
        return measured

    def digest(self) -> str:
        return checks.result_digest(point.result for point in self.points)

    def summary(self, rounds: List[Round]) -> Summary:
        """Robust per-pass times: each point's median over the rounds."""
        def total(value) -> float:
            return sum(common.median([value(r.executions[i]) for r in rounds])
                       for i in range(len(self.points)))

        return Summary(run_s=total(lambda e: e.run_seconds),
                       cold_s=total(lambda e: e.seconds),
                       warm_s=total(lambda e: e.warm_seconds))

    @property
    def tasks(self) -> int:
        """Simulated tasks completed in one pass."""
        return sum(p.result.tasks_completed for p in self.points
                   if p.result is not None)


_PACKETS = re.compile(
    r"^(?:fe\d+\.)?(gateway|trs|ort|ovt|ready_queue)\d*\.packets_processed$")
_GATEWAY = re.compile(r"^(?:fe\d+\.)?gateway\.(stalls|alloc_retries)$")


def simulated_metrics(results) -> Dict[str, float]:
    """Per-layer simulated statistics of one pass over a workload's points.

    These repeat exactly: a change that only speeds the simulator up must
    leave every one of them unchanged.
    """
    values: Dict[str, float] = {
        f"frontend.{kind}.packets": 0.0
        for kind in ("gateway", "trs", "ort", "ovt", "ready_queue")}
    values.update({"frontend.gateway.alloc_retries": 0.0,
                   "frontend.gateway.stalls": 0.0,
                   "topology.router.rejected": 0.0})
    results = [result for result in results if result is not None]
    for result in results:
        for key, value in result.stats.items():
            match = _PACKETS.match(key)
            if match:
                values[f"frontend.{match.group(1)}.packets"] += value
                continue
            match = _GATEWAY.match(key)
            if match:
                values[f"frontend.gateway.{match.group(1)}"] += value
            elif key == "router.submit_rejected":
                values["topology.router.rejected"] += value
    count = max(1, len(results))
    values.update({
        "frontend.decode_cycles_per_task":
            sum(r.decode_rate_cycles for r in results) / count,
        "frontend.window_peak_tasks":
            float(max((r.window_peak_tasks for r in results), default=0)),
        "backend.makespan_cycles":
            float(sum(r.makespan_cycles for r in results)),
        "cores.utilization": sum(r.core_utilization for r in results) / count,
        "cores.generator_stall_cycles":
            float(sum(r.generator_stall_cycles for r in results)),
        "topology.forwards": float(sum(
            getattr(r, "inter_frontend_forwards", 0) for r in results)),
        "topology.tasks_stolen": float(sum(
            getattr(r, "tasks_stolen", 0) for r in results)),
    })
    return values
