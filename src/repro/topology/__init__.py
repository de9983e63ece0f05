"""Topology-parameterized machine assembly.

The paper evaluates one frontend pipeline feeding many cores but explicitly
frames the frontend as a distributed, scalable structure (Section IV).  This
package opens that scenario space: :class:`TopologySpec` (``num_frontends``,
``shard_policy``, ``steal_policy``, ``forward_latency_cycles``) describes a
machine with N independent :class:`~repro.frontend.pipeline
.TaskSuperscalarFrontend` instances, each built from the one frontend
configuration, behind a sharding :class:`TaskRouter`, with cross-pipeline
dependency traffic delivered by an explicit fabric.

The building blocks:

* :class:`TaskRouter` -- sits between the task-generating thread and the
  gateways, assigning every submitted task to a shard deterministically
  (round-robin, hash-by-object or hash-by-kernel).  Pure Python call
  pass-through: the router itself schedules no events.
* :class:`InterFrontendFabric` + :class:`RemoteStub` -- the directories
  (TRS/ORT/OVT) of all pipelines are *globally indexed*, so structural IDs
  (``TaskID(trs, slot)``, ``OperandID``) route unchanged across pipelines.
  Each pipeline is wired with global directory *views* holding its own
  modules at their global positions and :class:`RemoteStub` proxies for
  modules living in other pipelines; a message sent to a stub is delivered to
  the real module after ``forward_latency_cycles``.
* :class:`GatewayGroup` -- broadcast sink for ORT/OVT capacity back-pressure:
  with a globally hashed ORT pool, a full table must stall admission at
  *every* gateway, not just its own pipeline's.
* :func:`build_frontends` -- assembles the N pipelines, their global views
  and the fabric, and returns the pipelines ready for the backend.

The organising invariant: a trivial topology (``num_frontends=1``,
``steal_policy="none"``) constructs zero stubs, zero router state and zero
extra stat keys, and is bit-identical to the pre-topology machine.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.config import (FrontendConfig, SHARD_POLICIES,
                                 STEAL_POLICIES, TopologyConfig)
from repro.common.hashing import bucket_for, fingerprint64
from repro.frontend.pipeline import TaskSuperscalarFrontend
from repro.sim.engine import Engine
from repro.sim.stats import StatsCollector
from repro.trace.records import TaskRecord

#: Public alias: the topology section of :class:`SimulationConfig` *is* the
#: machine's topology specification.
TopologySpec = TopologyConfig

__all__ = [
    "TopologySpec", "TopologyConfig", "SHARD_POLICIES", "STEAL_POLICIES",
    "TaskRouter", "InterFrontendFabric", "RemoteStub", "GatewayGroup",
    "build_frontends",
]


class InterFrontendFabric:
    """Delivers protocol messages across pipelines with an explicit latency.

    One fabric is shared by all of a machine's :class:`RemoteStub` proxies.
    Every crossing is counted (``fabric.forwards`` plus a per-destination
    ``fabric.to_fe<i>`` counter) and the packet itself is delivered to the
    destination module after ``forward_latency_cycles``.  Only constructed
    for multi-frontend topologies, so the trivial machine carries none of
    these stat keys.
    """

    __slots__ = ("engine", "latency", "_stat_forwards", "_stat_by_dst")

    def __init__(self, engine: Engine, topology: TopologyConfig,
                 stats: StatsCollector):
        self.engine = engine
        self.latency = topology.forward_latency_cycles
        self._stat_forwards = stats.counter_handle("fabric.forwards")
        self._stat_by_dst = [
            stats.counter_handle(f"fabric.to_fe{i}")
            for i in range(topology.num_frontends)
        ]

    def forward(self, dst: int, module, packet) -> None:
        """Ship ``packet`` to ``module`` in pipeline ``dst`` after the fabric
        latency."""
        self._stat_forwards.value += 1
        self._stat_by_dst[dst].value += 1
        self.engine.schedule_unref(self.latency, self._deliver, module, packet)

    @staticmethod
    def _deliver(module, packet) -> None:
        # A function of this module rather than ``module.receive`` itself, so
        # that per-layer profiles book the delivery to the fabric.
        module.receive(packet)


class RemoteStub:
    """Stand-in for a directory module living in another pipeline.

    Occupies the remote module's global slot in a pipeline's directory view;
    :meth:`receive` routes through the shared :class:`InterFrontendFabric`.
    Stubs are pure forwarding state -- they never appear in a trivial
    topology.
    """

    __slots__ = ("_fabric", "target", "src", "dst", "name")

    def __init__(self, fabric: InterFrontendFabric, target, src: int,
                 dst: int):
        self._fabric = fabric
        self.target = target
        self.src = src
        self.dst = dst
        self.name = f"stub:{target.name}"

    def receive(self, packet) -> None:
        """Forward ``packet`` to the real module across the fabric."""
        self._fabric.forward(self.dst, self.target, packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteStub fe{self.src}->fe{self.dst} {self.target.name}>"


class GatewayGroup:
    """Broadcasts ORT/OVT capacity back-pressure to every gateway.

    With a globally hashed ORT pool, any gateway may enqueue decode work for
    any ORT, so a pressured table must stall admission machine-wide.  Module
    names (``ort<g>``/``ovt<g>``) are globally unique, so per-source stall
    accounting inside each gateway cannot collide.
    """

    __slots__ = ("gateways",)

    def __init__(self, gateways: List):
        self.gateways = list(gateways)

    def add_stall(self, source: str) -> None:
        for gateway in self.gateways:
            gateway.add_stall(source)

    def remove_stall(self, source: str) -> None:
        for gateway in self.gateways:
            gateway.remove_stall(source)


class TaskRouter:
    """Shards the task stream across frontend pipelines.

    Interposes between the task-generating thread and the gateways, exposing
    the same ``try_submit`` / ``can_accept`` / ``notify_when_space`` surface
    as a single frontend.  Assignment is strict and deterministic:

    * ``round_robin`` -- submission order modulo the frontend count;
    * ``hash_by_object`` -- mixing hash of the first memory operand's base
      address (tasks touching the same object land on the same pipeline);
    * ``hash_by_kernel`` -- hash of the kernel name (static partitioning by
      task type).

    A rejected submission is retried on the *same* assigned shard (the
    assignment is memoised per task until it is accepted), so back-pressure
    on one pipeline never silently re-routes its tasks.  The router is a
    plain Python passthrough: it schedules no engine events and is only
    constructed for multi-frontend machines.
    """

    def __init__(self, frontends: List[TaskSuperscalarFrontend],
                 topology: TopologyConfig,
                 stats: Optional[StatsCollector] = None):
        if len(frontends) != topology.num_frontends:
            raise ValueError(
                f"router built with {len(frontends)} frontends for a "
                f"{topology.num_frontends}-frontend topology")
        self.frontends = frontends
        self.policy = topology.shard_policy
        self._rr_next = 0
        #: Memoised shard assignment for tasks not yet accepted.
        self._assigned: Dict[int, int] = {}
        self._last_rejected: Optional[int] = None
        stats = stats if stats is not None else StatsCollector()
        self._stat_routed = stats.counter_handle("router.tasks_routed")
        self._stat_rejected = stats.counter_handle("router.submit_rejected")
        self._stat_by_shard = [
            stats.counter_handle(f"router.fe{i}.tasks")
            for i in range(len(frontends))
        ]

    # -- Shard assignment ----------------------------------------------------

    def shard_for(self, record: TaskRecord) -> int:
        """The (deterministic, memoised) shard assignment for ``record``."""
        shard = self._assigned.get(record.sequence)
        if shard is not None:
            return shard
        num = len(self.frontends)
        if self.policy == "round_robin":
            shard = self._rr_next
            self._rr_next = (shard + 1) % num
        elif self.policy == "hash_by_object":
            address = None
            for operand in record.operands:
                if not operand.is_scalar:
                    address = operand.address
                    break
            if address is None:
                # All-scalar task: no object to hash; spread by sequence.
                shard = bucket_for(record.sequence, num, salt=3)
            else:
                shard = bucket_for(address, num, salt=1)
        else:  # hash_by_kernel (validated by TopologyConfig)
            shard = bucket_for(fingerprint64(record.kernel), num, salt=2)
        self._assigned[record.sequence] = shard
        return shard

    # -- Task-generating-thread interface ------------------------------------

    def can_accept(self) -> bool:
        """True if any pipeline's gateway buffer has room."""
        return any(frontend.can_accept() for frontend in self.frontends)

    def try_submit(self, record: TaskRecord) -> bool:
        """Route ``record`` to its shard; False when that gateway is full."""
        shard = self.shard_for(record)
        if not self.frontends[shard].try_submit(record):
            self._last_rejected = shard
            self._stat_rejected.value += 1
            return False
        del self._assigned[record.sequence]
        self._stat_routed.value += 1
        self._stat_by_shard[shard].value += 1
        return True

    def notify_when_space(self, callback: Callable[[], None]) -> None:
        """Register a one-shot retry callback with the rejecting shard."""
        shard = self._last_rejected if self._last_rejected is not None else 0
        self.frontends[shard].notify_when_space(callback)


def build_frontends(engine: Engine, frontend_config: FrontendConfig,
                    topology: TopologyConfig, stats: StatsCollector):
    """Assemble ``topology.num_frontends`` pipelines with global directories.

    Returns the frontends; the :class:`InterFrontendFabric` (built only for
    more than one frontend) is reached through their stubs.  Every
    pipeline's TRS/ORT/OVT modules carry globally unique indices (pipeline
    ``f``'s local TRS ``i`` is global ``f * frontend_config.num_trs + i``,
    and likewise for ORTs and OVTs with ``num_ort``), and each
    pipeline is wired with global directory views in which remote modules
    are :class:`RemoteStub` proxies.  Capacity back-pressure
    from any ORT/OVT fans out to every gateway through a
    :class:`GatewayGroup`.

    The single-frontend path constructs exactly the legacy machine: the
    pipeline self-wires with its local module lists, no fabric, no stubs.
    """
    num = topology.num_frontends
    if num == 1:
        return [TaskSuperscalarFrontend(engine, frontend_config, stats)]

    fabric = InterFrontendFabric(engine, topology, stats)
    frontends = [
        TaskSuperscalarFrontend(
            engine, frontend_config, stats, instance=f, num_frontends=num,
            trs_base=f * frontend_config.num_trs,
            ort_base=f * frontend_config.num_ort,
            wire=False)
        for f in range(num)
    ]
    pressure_sink = GatewayGroup([fe.gateway for fe in frontends])

    def global_view(owner: int, lists) -> List:
        view: List = []
        for f, modules in enumerate(lists):
            if f == owner:
                view.extend(modules)
            else:
                view.extend(RemoteStub(fabric, module, owner, f)
                            for module in modules)
        return view

    all_trs = [fe.trs_list for fe in frontends]
    all_ort = [fe.orts for fe in frontends]
    all_ovt = [fe.ovts for fe in frontends]
    for f, frontend in enumerate(frontends):
        frontend.wire(
            trs_view=global_view(f, all_trs),
            ort_view=global_view(f, all_ort),
            ovt_view=global_view(f, all_ovt),
            pressure_sink=pressure_sink,
            local_trs=range(frontend.trs_base,
                            frontend.trs_base + len(frontend.trs_list)),
        )
    return frontends
