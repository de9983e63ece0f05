"""Configuration dataclasses for the simulated system.

The defaults mirror Table II of the paper ("Summary of the simulated system
parameters") and the module-design constants given in Section IV.B:

* 32-256 in-order, dual-issue cores at 3.2 GHz,
* private 64 KB 4-way L1 caches with 3-cycle latency,
* a shared L2 of 32 banks x 4 MB, 8-way, 22-cycle latency,
* 4 memory controllers with 2 DDR3-800 channels each,
* a segmented two-level ring interconnect (16 bytes/cycle, 4 concurrent
  connections per segment),
* a task pipeline whose modules charge 16 cycles of packet processing
  (multiplied by the number of operands involved) on top of 22-cycle eDRAM
  accesses,
* TRS storage organised as 128-byte blocks (main block = task globals + 4
  operands, up to 3 indirect blocks of 5 operands each, 19 operands max),
* a 1 KB gateway buffer holding roughly 20 incoming tasks,
* 16-way associative ORT sets that never evict (the gateway stalls instead).

The cache, memory and interconnect fields only describe the Table II
machine (``repro experiment table2`` prints them): the paper's task runtimes
were measured with L1-resident working sets, so no model charges data
movement on top of them.

Every dataclass has a ``validate`` method that raises
:class:`repro.common.errors.ConfigurationError` on inconsistent settings, and
the experiment drivers always call :func:`SimulationConfig.validate` before
running.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.common.errors import ConfigurationError
from repro.common.units import CLOCK_GHZ, KB, MB


@dataclass
class CMPConfig:
    """Parameters of the chip multiprocessor backend (Table II)."""

    num_cores: int = 256
    clock_ghz: float = CLOCK_GHZ
    issue_width: int = 2

    l1_size_bytes: int = 64 * KB
    l1_assoc: int = 4
    l1_latency_cycles: int = 3
    l1_line_bytes: int = 64

    l2_banks: int = 32
    l2_bank_size_bytes: int = 4 * MB
    l2_assoc: int = 8
    l2_latency_cycles: int = 22
    l2_line_bytes: int = 64

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if the CMP parameters are invalid."""
        if self.num_cores <= 0:
            raise ConfigurationError(f"num_cores must be positive, got {self.num_cores}")
        if self.clock_ghz <= 0:
            raise ConfigurationError(f"clock_ghz must be positive, got {self.clock_ghz}")
        for name in ("l1_size_bytes", "l1_assoc", "l1_latency_cycles", "l1_line_bytes",
                     "l2_banks", "l2_bank_size_bytes", "l2_assoc", "l2_latency_cycles",
                     "l2_line_bytes", "issue_width"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.l1_size_bytes % (self.l1_assoc * self.l1_line_bytes) != 0:
            raise ConfigurationError(
                "L1 size must be a multiple of associativity * line size "
                f"({self.l1_size_bytes} % {self.l1_assoc * self.l1_line_bytes})"
            )
        if self.l2_bank_size_bytes % (self.l2_assoc * self.l2_line_bytes) != 0:
            raise ConfigurationError(
                "L2 bank size must be a multiple of associativity * line size"
            )


@dataclass
class MemoryConfig:
    """Main-memory parameters (Table II: 4 MCs, 2 channels each, DDR3-800)."""

    num_controllers: int = 4
    channels_per_controller: int = 2

    def validate(self) -> None:
        if self.num_controllers <= 0:
            raise ConfigurationError("num_controllers must be positive")
        if self.channels_per_controller <= 0:
            raise ConfigurationError("channels_per_controller must be positive")

    @property
    def num_channels(self) -> int:
        """Total number of DRAM channels."""
        return self.num_controllers * self.channels_per_controller


@dataclass
class InterconnectConfig:
    """Segmented two-level ring interconnect (Table II)."""

    bytes_per_cycle: int = 16
    concurrent_connections_per_segment: int = 4

    def validate(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise ConfigurationError("bytes_per_cycle must be positive")
        if self.concurrent_connections_per_segment <= 0:
            raise ConfigurationError("concurrent_connections_per_segment must be positive")


@dataclass
class FrontendConfig:
    """Parameters of the task-superscalar pipeline frontend.

    The evaluation's chosen operating point (Section VI) is 8 TRSs and
    2 ORTs/OVTs, with 512 KB total ORT capacity, 512 KB total OVT capacity and
    6 MB of total TRS storage (roughly 7 MB of eDRAM overall, supporting a
    window of 12,000-50,000 tasks).  Each OVT is associated with exactly one
    ORT (Section IV), so ``num_ort`` is also the OVT count.
    """

    num_trs: int = 8
    num_ort: int = 2

    #: Aggregate storage capacities across all modules of each type.
    total_trs_capacity_bytes: int = 6 * MB
    total_ort_capacity_bytes: int = 512 * KB
    total_ovt_capacity_bytes: int = 512 * KB

    #: Per-packet module processing time and eDRAM access latency (Section V).
    module_processing_cycles: int = 16
    edram_latency_cycles: int = 22

    #: TRS storage layout (Section IV.B.2).
    trs_block_bytes: int = 128
    operands_in_main_block: int = 4
    operands_per_indirect_block: int = 5
    max_indirect_blocks: int = 3

    #: Gateway incoming-task buffer (Section IV.B.1): 1 KB, ~20 tasks.
    gateway_buffer_tasks: int = 20

    #: ORT organisation (Section IV.B.3): 16-way sets, never evicts.
    ort_assoc: int = 16
    ort_entry_bytes: int = 32

    #: OVT entry size (version record: usage count, next-version and chain
    #: pointers, rename-buffer pointer).
    ovt_entry_bytes: int = 32

    #: Interconnect latency charged on every frontend protocol message.
    message_latency_cycles: int = 5

    def validate(self) -> None:
        for name in ("num_trs", "num_ort", "total_trs_capacity_bytes",
                     "total_ort_capacity_bytes", "total_ovt_capacity_bytes",
                     "module_processing_cycles", "trs_block_bytes",
                     "operands_in_main_block", "operands_per_indirect_block",
                     "gateway_buffer_tasks", "ort_assoc", "ort_entry_bytes",
                     "ovt_entry_bytes"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("edram_latency_cycles", "message_latency_cycles",
                     "max_indirect_blocks"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.trs_capacity_per_module_bytes < self.trs_block_bytes:
            raise ConfigurationError(
                "per-TRS capacity smaller than a single block: "
                f"{self.trs_capacity_per_module_bytes} < {self.trs_block_bytes}"
            )
        if self.ort_entries_per_module < self.ort_assoc:
            raise ConfigurationError(
                "per-ORT capacity smaller than a single set "
                f"({self.ort_entries_per_module} entries < {self.ort_assoc}-way)"
            )

    # -- Derived quantities ------------------------------------------------

    @property
    def max_operands_per_task(self) -> int:
        """Maximum operand count a task may have (19 with the paper's layout)."""
        return (self.operands_in_main_block
                + self.max_indirect_blocks * self.operands_per_indirect_block)

    @property
    def trs_capacity_per_module_bytes(self) -> int:
        """Storage capacity of one TRS."""
        return self.total_trs_capacity_bytes // self.num_trs

    @property
    def trs_blocks_per_module(self) -> int:
        """Number of 128-byte blocks available in one TRS."""
        return self.trs_capacity_per_module_bytes // self.trs_block_bytes

    @property
    def ort_capacity_per_module_bytes(self) -> int:
        """Storage capacity of one ORT."""
        return self.total_ort_capacity_bytes // self.num_ort

    @property
    def ort_entries_per_module(self) -> int:
        """Number of renaming entries one ORT can hold."""
        return self.ort_capacity_per_module_bytes // self.ort_entry_bytes

    @property
    def ort_sets_per_module(self) -> int:
        """Number of associative sets in one ORT."""
        return max(1, self.ort_entries_per_module // self.ort_assoc)

    @property
    def ovt_capacity_per_module_bytes(self) -> int:
        """Storage capacity of one OVT (one OVT per ORT)."""
        return self.total_ovt_capacity_bytes // self.num_ort

    @property
    def ovt_entries_per_module(self) -> int:
        """Number of version entries one OVT can hold."""
        return self.ovt_capacity_per_module_bytes // self.ovt_entry_bytes

    @property
    def total_edram_bytes(self) -> int:
        """Total eDRAM footprint of the frontend (the paper quotes ~7 MB)."""
        return (self.total_trs_capacity_bytes
                + self.total_ort_capacity_bytes
                + self.total_ovt_capacity_bytes)


@dataclass
class BackendConfig:
    """Parameters of the execution backend (scheduler + queuing system)."""

    #: Cycles charged by the scheduler to dispatch one ready task to a core
    #: (Carbon-like hardware queues are fast; tens of cycles).
    dispatch_latency_cycles: int = 16

    #: Cycles to notify the frontend that a task finished.
    completion_latency_cycles: int = 16

    def validate(self) -> None:
        if self.dispatch_latency_cycles < 0:
            raise ConfigurationError("dispatch_latency_cycles must be non-negative")
        if self.completion_latency_cycles < 0:
            raise ConfigurationError("completion_latency_cycles must be non-negative")


@dataclass
class TaskGeneratorConfig:
    """Model of the (sequential) task-generating thread.

    The injected task-creation code packs the kernel pointer and operand
    values into a buffer and writes it to the pipeline; the thread then
    resumes and continues spawning tasks, stalling only when the pipeline
    fills.  ``cycles_per_task`` plus ``cycles_per_operand`` model that packing
    cost; the defaults correspond to roughly 100-200 ns per task, comfortably
    faster than the hardware decode rate so the generator is not normally the
    bottleneck (but becomes one once the window uncovers enough parallelism,
    which is exactly the saturation effect of Figures 14 and 15).
    """

    cycles_per_task: int = 250
    cycles_per_operand: int = 30

    def validate(self) -> None:
        if self.cycles_per_task < 0:
            raise ConfigurationError("cycles_per_task must be non-negative")
        if self.cycles_per_operand < 0:
            raise ConfigurationError("cycles_per_operand must be non-negative")

    def generation_cycles(self, num_operands: int) -> int:
        """Cycles the task-generating thread spends creating one task."""
        return self.cycles_per_task + self.cycles_per_operand * num_operands


@dataclass
class SoftwareRuntimeConfig:
    """Model of the StarSs software runtime used as the Fig. 16 baseline.

    Section II measures the highly tuned StarSs decoder at just over 700 ns
    per task on a 2.66 GHz Core Duo (and cites ~2.5 us for the Cell BE port).
    The software runtime has an effectively infinite task window but decodes
    tasks serially on a single thread.
    """

    decode_ns_per_task: float = 700.0
    #: Additional per-operand decode cost in nanoseconds.
    decode_ns_per_operand: float = 0.0
    #: Scheduling/dispatch cost per task, in nanoseconds.
    dispatch_ns_per_task: float = 100.0
    #: The software runtime's task window; ``None`` models the paper's
    #: "effectively infinite" window.
    window_tasks: int | None = None

    def validate(self) -> None:
        if self.decode_ns_per_task < 0:
            raise ConfigurationError("decode_ns_per_task must be non-negative")
        if self.decode_ns_per_operand < 0:
            raise ConfigurationError("decode_ns_per_operand must be non-negative")
        if self.dispatch_ns_per_task < 0:
            raise ConfigurationError("dispatch_ns_per_task must be non-negative")
        if self.window_tasks is not None and self.window_tasks <= 0:
            raise ConfigurationError("window_tasks must be positive or None")


#: Valid task-stream sharding policies for multi-frontend topologies.
SHARD_POLICIES = ("round_robin", "hash_by_object", "hash_by_kernel")

#: Valid backend work-stealing policies.
STEAL_POLICIES = ("none", "random", "nearest")


@dataclass
class TopologyConfig:
    """Machine topology: how many frontend pipelines, and how work moves.

    The paper evaluates a single frontend pipeline feeding many cores but
    frames the frontend as a distributed, scalable structure (Section IV).
    This section opens that scenario space: ``num_frontends`` independent
    pipelines shard the task stream behind a :class:`repro.topology.TaskRouter`,
    cross-pipeline dependency traffic travels as explicit
    :class:`~repro.frontend.messages.InterFrontendForward` messages charged
    ``forward_latency_cycles`` each, and the backend partitions its cores into
    one cluster per frontend with optional work stealing between cluster
    ready queues.

    The trivial topology (``num_frontends=1``, ``steal_policy="none"``) is
    guaranteed bit-identical to the pre-topology machine: no router events,
    no forward messages, no extra stat keys.
    """

    #: Number of independent frontend pipelines sharding the task stream.
    num_frontends: int = 1

    #: How the router assigns submitted tasks to frontends: ``round_robin``
    #: (submission order), ``hash_by_object`` (first memory operand's
    #: address), or ``hash_by_kernel`` (kernel name).
    shard_policy: str = "round_robin"

    #: How idle backend clusters take work from other clusters' ready queues:
    #: ``none`` (strict affinity, the paper's machine), ``random`` (seeded
    #: uniform victim choice) or ``nearest`` (ring scan from the thief).
    steal_policy: str = "none"

    #: Scales each pipeline's TRS/ORT/OVT module counts, so aggregate
    #: capacity can be held constant while sharding (e.g. ``0.5`` with two
    #: frontends) or grown with the frontend count (the default ``1.0``).
    capacity_scale: float = 1.0

    #: Latency charged on every inter-frontend forward message (cross-shard
    #: operand lookups, dependency forwards, remote completions).
    forward_latency_cycles: int = 8

    def validate(self) -> None:
        if self.num_frontends <= 0:
            raise ConfigurationError(
                f"num_frontends must be positive, got {self.num_frontends}")
        if self.shard_policy not in SHARD_POLICIES:
            raise ConfigurationError(
                f"shard_policy must be one of {SHARD_POLICIES}, "
                f"got {self.shard_policy!r}")
        if self.steal_policy not in STEAL_POLICIES:
            raise ConfigurationError(
                f"steal_policy must be one of {STEAL_POLICIES}, "
                f"got {self.steal_policy!r}")
        if self.capacity_scale <= 0:
            raise ConfigurationError(
                f"capacity_scale must be positive, got {self.capacity_scale}")
        if self.forward_latency_cycles < 0:
            raise ConfigurationError(
                "forward_latency_cycles must be non-negative, "
                f"got {self.forward_latency_cycles}")

    @property
    def is_trivial(self) -> bool:
        """True for the single-pipeline, no-stealing (legacy) machine."""
        return self.num_frontends == 1 and self.steal_policy == "none"

    def scaled_frontend(self, frontend: FrontendConfig) -> FrontendConfig:
        """Per-pipeline :class:`FrontendConfig` after ``capacity_scale``.

        Module counts scale (min 1 of each); per-module capacities are left
        untouched, so total capacity scales with ``num_frontends *
        capacity_scale``.  Identity when ``capacity_scale == 1.0``.
        """
        if self.capacity_scale == 1.0:
            return frontend
        num_trs = max(1, round(frontend.num_trs * self.capacity_scale))
        num_ort = max(1, round(frontend.num_ort * self.capacity_scale))
        return replace(frontend, num_trs=num_trs, num_ort=num_ort)


@dataclass
class SimulationConfig:
    """Top-level configuration bundling all subsystems."""

    cmp: CMPConfig = field(default_factory=CMPConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    interconnect: InterconnectConfig = field(default_factory=InterconnectConfig)
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    generator: TaskGeneratorConfig = field(default_factory=TaskGeneratorConfig)
    software: SoftwareRuntimeConfig = field(default_factory=SoftwareRuntimeConfig)
    topology: TopologyConfig = field(default_factory=TopologyConfig)

    #: Seed for any stochastic elements of workload generation.
    seed: int = 0

    def validate(self) -> None:
        """Validate every sub-configuration."""
        self.cmp.validate()
        self.memory.validate()
        self.interconnect.validate()
        self.frontend.validate()
        self.backend.validate()
        self.generator.validate()
        self.software.validate()
        self.topology.validate()
        if self.topology.num_frontends > self.cmp.num_cores:
            raise ConfigurationError(
                f"num_frontends ({self.topology.num_frontends}) cannot exceed "
                f"num_cores ({self.cmp.num_cores}): every cluster needs at "
                "least one core")

    def with_cores(self, num_cores: int) -> "SimulationConfig":
        """Return a copy of this configuration with a different core count."""
        return replace(self, cmp=replace(self.cmp, num_cores=num_cores))

    def with_frontend(self, **kwargs) -> "SimulationConfig":
        """Return a copy with selected frontend fields overridden."""
        return replace(self, frontend=replace(self.frontend, **kwargs))

    def with_topology(self, **kwargs) -> "SimulationConfig":
        """Return a copy with selected topology fields overridden."""
        return replace(self, topology=replace(self.topology, **kwargs))

    def describe(self) -> Dict[str, str]:
        """Human-readable summary of the key parameters (used by Table II bench)."""
        cmp = self.cmp
        mem = self.memory
        icn = self.interconnect
        fe = self.frontend
        return {
            "Cores": (f"{cmp.num_cores} cores, in-order, "
                      f"{cmp.issue_width}-issue, {cmp.clock_ghz}GHz"),
            "L1": (f"private, {cmp.l1_size_bytes // KB}KB, {cmp.l1_assoc}-way "
                   f"set-associative, {cmp.l1_latency_cycles} cycle latency"),
            "L2": (f"shared, {cmp.l2_banks} banks with {cmp.l2_bank_size_bytes // MB}MB "
                   f"per bank, {cmp.l2_assoc}-way set-associative, "
                   f"{cmp.l2_latency_cycles} cycles latency"),
            "Memory": (f"{mem.num_controllers} memory controllers, "
                       f"{mem.channels_per_controller} channels per MC"),
            "Interconnect": (f"segmented two-level ring, {icn.bytes_per_cycle} bytes/cycle, "
                             f"{icn.concurrent_connections_per_segment} concurrent "
                             "connections per segment"),
            "Task pipeline": (f"{fe.edram_latency_cycles} cycles eDRAM latency, "
                              f"{fe.module_processing_cycles} cycles module processing; "
                              f"{fe.num_trs} TRS / {fe.num_ort} ORT / {fe.num_ort} OVT"),
        }


def default_table2_config(num_cores: int = 256) -> SimulationConfig:
    """Return the paper's default simulated-system configuration (Table II).

    Args:
        num_cores: Number of backend cores (the paper sweeps 32-256).
    """
    config = SimulationConfig()
    config = config.with_cores(num_cores)
    config.validate()
    return config
