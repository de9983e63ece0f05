"""Synthetic task-graph family generators.

The nine Table I benchmarks pin down realistic operating points, but the
pipeline's interesting regimes -- decode-rate saturation, ORT/OVT renaming
pressure, TRS window exhaustion -- are properties of *graph shape*.  This
module provides six parameterized graph families, each a
:class:`~repro.workloads.base.Workload` built on the shared
:class:`~repro.workloads.base.TraceBuilder`, fully deterministic per seed:

========================  ===================================================
``fork_join``             Repeated fork / parallel-workers / tree-join phases.
``layered``               Wavefront: ``depth`` layers of ``width`` tasks, each
                          reading ``fanout`` outputs of the previous layer.
``stencil``               In-place 1-D stencil (INOUT cell + neighbour reads):
                          inherent WAR/WAW renaming pressure.
``reduction_tree``        Rounds of ``width`` leaves reduced by a
                          ``fanout``-ary tree into a serialising accumulator.
``pipeline_chain``        ``width`` independent chains emitted in runs of
                          ``dep_distance`` consecutive steps per chain, so the
                          creation-stream distance between dependent tasks --
                          and hence the task window the pipeline must hold to
                          keep the chains concurrent -- grows with the knob.
``random_dag``            Random DAG: each task reads up to ``fanout`` outputs
                          sampled from the last ``dep_distance`` producers.
========================  ===================================================

Orthogonal knobs shared by every family:

* **structure** -- ``width``, ``depth``, ``fanout``, ``dep_distance``;
* **renaming pressure** -- ``object_reuse`` (probability that a task rewrites
  a previously written object instead of allocating a fresh one, forcing the
  OVT to version: WAW plus WAR against earlier readers);
* **operand count** -- ``extra_inputs`` appends additional INPUT operands
  drawn from recent producer outputs, stressing indirect TRS blocks up to
  the 19-operand layout limit;
* **runtime distribution** -- ``runtime_dist`` in ``constant`` / ``uniform``
  / ``lognormal`` / ``bimodal`` with ``runtime_us`` / ``runtime_spread`` /
  ``bimodal_ratio`` / ``bimodal_fraction``.

All structure and runtimes are drawn from the builder's seeded RNG, so the
same ``(family, knobs, scale, seed)`` always produces a bit-identical trace.
The families register themselves under the ``synthetic`` category, making
them first-class in the CLI, the experiment drivers and sweep grids
(``workload.<knob>`` axes; see :mod:`repro.sweep.spec`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import WorkloadError
from repro.common.units import KB, us_to_cycles
from repro.runtime.memory import MemoryObject
from repro.trace.records import Direction
from repro.workloads.base import KernelProfile, TraceBuilder, Workload, WorkloadSpec
from repro.workloads.registry import CATEGORY_SYNTHETIC, register_workload

#: Hard operand ceiling of the paper's TRS block layout (1 main block with 4
#: operands + 3 indirect blocks of 5; Figure 11).
MAX_TASK_OPERANDS = 19

#: Supported task-runtime distributions.
RUNTIME_DISTRIBUTIONS = ("constant", "uniform", "lognormal", "bimodal")


@dataclass(frozen=True)
class RuntimeModel:
    """Per-task runtime distribution.

    ``runtime_us`` is the nominal task runtime: the constant value, the mean
    of the uniform distribution, the median of the lognormal, or the short
    mode of the bimodal mixture (whose long mode is ``runtime_us *
    bimodal_ratio`` drawn with probability ``bimodal_fraction``).
    ``spread`` is the fractional half-width for ``uniform``/``bimodal`` and
    the log-space sigma for ``lognormal``.
    """

    distribution: str = "uniform"
    runtime_us: float = 5.0
    spread: float = 0.2
    bimodal_ratio: float = 8.0
    bimodal_fraction: float = 0.15

    def validate(self) -> None:
        if self.distribution not in RUNTIME_DISTRIBUTIONS:
            raise WorkloadError(
                f"runtime_dist must be one of {RUNTIME_DISTRIBUTIONS}, "
                f"got {self.distribution!r}")
        if self.runtime_us <= 0:
            raise WorkloadError(f"runtime_us must be positive, got {self.runtime_us}")
        if self.spread < 0:
            raise WorkloadError(f"runtime_spread must be non-negative, got {self.spread}")
        if self.distribution in ("uniform", "bimodal") and self.spread >= 1.0:
            raise WorkloadError(
                f"runtime_spread must be < 1 for {self.distribution!r} "
                f"(it is a fractional half-width), got {self.spread}")
        if self.bimodal_ratio < 1.0:
            raise WorkloadError(f"bimodal_ratio must be >= 1, got {self.bimodal_ratio}")
        if not 0.0 <= self.bimodal_fraction <= 1.0:
            raise WorkloadError(
                f"bimodal_fraction must be in [0, 1], got {self.bimodal_fraction}")

    def sample_cycles(self, rng) -> int:
        """Draw one task runtime in cycles (always at least 1)."""
        runtime = self.runtime_us
        if self.distribution == "uniform" and self.spread > 0:
            runtime *= 1.0 + rng.uniform(-self.spread, self.spread)
        elif self.distribution == "lognormal" and self.spread > 0:
            runtime *= math.exp(rng.gauss(0.0, self.spread))
        elif self.distribution == "bimodal":
            if rng.random() < self.bimodal_fraction:
                runtime *= self.bimodal_ratio
            if self.spread > 0:
                runtime *= 1.0 + rng.uniform(-self.spread, self.spread)
        return max(1, us_to_cycles(runtime))


class SyntheticWorkload(Workload):
    """Base class providing the shared knob set of the synthetic families.

    Subclasses set ``spec``, ``kernel_name``, per-family ``default_*`` class
    attributes, and implement :meth:`build`.  The problem-size argument
    ``scale`` multiplies ``depth`` (the number of phases / layers / steps /
    rounds), so experiment drivers can shrink or grow synthetic traces with
    the same ``scale_factor`` mechanism the benchmarks use.
    """

    kernel_name = "synthetic"

    default_width = 8
    default_depth = 8
    default_fanout = 2
    default_dep_distance = 4
    default_scale = 1

    def __init__(self, width: Optional[int] = None, depth: Optional[int] = None,
                 fanout: Optional[int] = None, dep_distance: Optional[int] = None,
                 object_reuse: float = 0.0, extra_inputs: int = 0,
                 block_kb: float = 4.0, runtime_dist: str = "uniform",
                 runtime_us: float = 5.0, runtime_spread: float = 0.2,
                 bimodal_ratio: float = 8.0, bimodal_fraction: float = 0.15):
        self.width = int(width if width is not None else self.default_width)
        self.depth = int(depth if depth is not None else self.default_depth)
        self.fanout = int(fanout if fanout is not None else self.default_fanout)
        self.dep_distance = int(dep_distance if dep_distance is not None
                                else self.default_dep_distance)
        self.object_reuse = float(object_reuse)
        self.extra_inputs = int(extra_inputs)
        self.block_bytes = max(64, int(float(block_kb) * KB))
        self.runtime = RuntimeModel(distribution=str(runtime_dist),
                                    runtime_us=float(runtime_us),
                                    spread=float(runtime_spread),
                                    bimodal_ratio=float(bimodal_ratio),
                                    bimodal_fraction=float(bimodal_fraction))
        self._validate_params()
        self._profile = KernelProfile(self.kernel_name, runtime_us=self.runtime.runtime_us)

    def _validate_params(self) -> None:
        for name in ("width", "depth", "fanout", "dep_distance"):
            if getattr(self, name) < 1:
                raise WorkloadError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.object_reuse <= 1.0:
            raise WorkloadError(
                f"object_reuse must be in [0, 1], got {self.object_reuse}")
        if not 0 <= self.extra_inputs <= MAX_TASK_OPERANDS - 2:
            raise WorkloadError(
                f"extra_inputs must be in [0, {MAX_TASK_OPERANDS - 2}], "
                f"got {self.extra_inputs}")
        if self.fanout > MAX_TASK_OPERANDS - 2:
            raise WorkloadError(
                f"fanout must be <= {MAX_TASK_OPERANDS - 2} so every task fits "
                f"the {MAX_TASK_OPERANDS}-operand TRS layout, got {self.fanout}")
        self.runtime.validate()

    def params(self) -> Dict[str, object]:
        """The generator knobs as a plain dict (recorded in trace metadata)."""
        return {
            "width": self.width,
            "depth": self.depth,
            "fanout": self.fanout,
            "dep_distance": self.dep_distance,
            "object_reuse": self.object_reuse,
            "extra_inputs": self.extra_inputs,
            "block_kb": self.block_bytes / KB,
            "runtime_dist": self.runtime.distribution,
            "runtime_us": self.runtime.runtime_us,
            "runtime_spread": self.runtime.spread,
            "bimodal_ratio": self.runtime.bimodal_ratio,
            "bimodal_fraction": self.runtime.bimodal_fraction,
        }

    # -- Shared building blocks ---------------------------------------------

    def _emit(self, builder: TraceBuilder,
              operands: Sequence[Tuple[MemoryObject, Direction]],
              recent: Optional[Sequence[MemoryObject]] = None,
              runtime_scale: float = 1.0):
        """Append one task: base operands + sampled extra inputs + runtime.

        ``recent`` is the pool of recently written objects the extra INPUT
        operands are drawn from; duplicates of the base operands are skipped
        and the total operand count never exceeds the TRS layout limit.
        ``runtime_scale`` multiplies the sampled runtime (used by families
        with structurally non-uniform task costs, e.g. ``skewed_lanes``).
        """
        ops = list(operands)
        if self.extra_inputs > 0 and recent:
            used = {obj.address for obj, _ in ops}
            pool = [obj for obj in dict.fromkeys(recent) if obj.address not in used]
            count = min(self.extra_inputs, MAX_TASK_OPERANDS - len(ops), len(pool))
            if count > 0:
                ops.extend((obj, Direction.INPUT)
                           for obj in builder.rng.sample(pool, count))
        if len(ops) > MAX_TASK_OPERANDS:
            raise WorkloadError(
                f"{self.spec.name}: task with {len(ops)} operands exceeds the "
                f"{MAX_TASK_OPERANDS}-operand TRS layout")
        cycles = self.runtime.sample_cycles(builder.rng)
        if runtime_scale != 1.0:
            cycles = max(1, round(cycles * runtime_scale))
        return builder.add_task(self._profile, ops, runtime_cycles=cycles)

    def _output_object(self, builder: TraceBuilder, pool: Deque[MemoryObject],
                       label: str) -> MemoryObject:
        """Allocate a task's output, honouring the ``object_reuse`` knob.

        With probability ``object_reuse`` the output is a previously written
        object from ``pool`` (a WAW that the OVT must version, plus WARs
        against its earlier readers); otherwise a fresh allocation that is
        appended to the pool.  The pool is bounded so reuse targets stay
        reasonably recent.
        """
        if pool and builder.rng.random() < self.object_reuse:
            # ``rng.choice`` draws ``len + getitem``, identical for a deque,
            # so traces are bit-identical to the previous list-backed pool.
            return builder.rng.choice(pool)
        obj = builder.alloc(self.block_bytes, name=label)
        pool.append(obj)
        if len(pool) > 4 * self.width:
            pool.popleft()
        return obj

    def _reduce_tree(self, builder: TraceBuilder, blocks: List[MemoryObject],
                     sink: MemoryObject, recent: List[MemoryObject],
                     label: str) -> None:
        """Reduce ``blocks`` through a ``fanout``-ary tree into ``sink``."""
        arity = max(2, min(self.fanout, MAX_TASK_OPERANDS - 2))
        level = list(blocks)
        stage = 0
        while len(level) > 1:
            merged: List[MemoryObject] = []
            for start in range(0, len(level), arity):
                group = level[start:start + arity]
                if len(group) == 1:
                    merged.append(group[0])
                    continue
                partial = builder.alloc(self.block_bytes,
                                        name=f"{label}.s{stage}.{start // arity}")
                ops = [(obj, Direction.INPUT) for obj in group]
                ops.append((partial, Direction.OUTPUT))
                self._emit(builder, ops, recent)
                merged.append(partial)
            level = merged
            stage += 1
        self._emit(builder, [(level[0], Direction.INPUT), (sink, Direction.INOUT)],
                   recent)

    # -- Workload interface --------------------------------------------------

    def generate(self, scale: Optional[int] = None, seed: int = 0,
                 max_tasks: Optional[int] = None):
        trace = super().generate(scale=scale, seed=seed, max_tasks=max_tasks)
        trace.metadata["synthetic"] = self.params()
        return trace


def _synthetic_spec(name: str, description: str) -> WorkloadSpec:
    """Nominal catalogue row for a synthetic family.

    The published-characteristics columns describe the *default* knob values
    (uniform 5 us +/- 20% runtimes on 4 KB blocks); instances override them
    freely, so these numbers are nominal, not measured.
    """
    return WorkloadSpec(name=name, domain="Synthetic", description=description,
                        avg_data_kb=4.0, min_runtime_us=4.0, med_runtime_us=5.0,
                        avg_runtime_us=5.0, decode_limit_ns=4.0 * 1000.0 / 256)


@register_workload(category=CATEGORY_SYNTHETIC)
class ForkJoinWorkload(SyntheticWorkload):
    """Repeated fork / parallel-workers / tree-join phases.

    Each of the ``depth * scale`` phases forks from a serialising control
    object to ``width`` worker tasks (each also carrying its per-lane INOUT
    block, so lanes chain across phases) and joins the lane blocks back into
    the control object through a ``fanout``-ary reduction tree.
    """

    spec = _synthetic_spec("fork_join", "Fork/join phases with tree joins")
    kernel_name = "fork_join"

    def build(self, builder: TraceBuilder, scale: int) -> None:
        phases = self.depth * scale
        ctrl = builder.alloc(self.block_bytes, name="ctrl")
        lanes = builder.alloc_blocks(self.width, self.block_bytes, name="lane")
        recent: List[MemoryObject] = []
        for phase in range(phases):
            self._emit(builder, [(ctrl, Direction.INOUT)], recent)
            for lane in lanes:
                self._emit(builder, [(ctrl, Direction.INPUT),
                                     (lane, Direction.INOUT)], recent)
                recent.append(lane)
            self._reduce_tree(builder, lanes, ctrl, recent, f"join{phase}")
            del recent[:-4 * self.width]


@register_workload(category=CATEGORY_SYNTHETIC)
class LayeredWorkload(SyntheticWorkload):
    """Wavefront: layers of ``width`` tasks reading the previous layer.

    Task ``(layer, i)`` reads ``fanout`` outputs sampled from the previous
    layer within ``dep_distance`` columns of ``i`` and writes its own output
    (or rewrites an old one, per ``object_reuse``).
    """

    spec = _synthetic_spec("layered", "Layered wavefront graph")
    kernel_name = "layered"

    def build(self, builder: TraceBuilder, scale: int) -> None:
        layers = self.depth * scale
        seed_obj = builder.alloc(self.block_bytes, name="seed")
        previous = [seed_obj] * self.width
        pool: Deque[MemoryObject] = deque()
        recent: List[MemoryObject] = []
        for layer in range(layers):
            current: List[MemoryObject] = []
            for i in range(self.width):
                low = max(0, i - self.dep_distance)
                high = min(self.width, i + self.dep_distance + 1)
                neighbourhood = list(dict.fromkeys(previous[low:high]))
                picks = builder.rng.sample(
                    neighbourhood, min(self.fanout, len(neighbourhood)))
                out = self._output_object(builder, pool, f"L{layer}.{i}")
                ops = [(obj, Direction.INPUT) for obj in picks
                       if obj.address != out.address]
                ops.append((out, Direction.OUTPUT))
                self._emit(builder, ops, recent)
                current.append(out)
                recent.append(out)
            previous = current
            del recent[:-4 * self.width]


@register_workload(category=CATEGORY_SYNTHETIC)
class StencilWorkload(SyntheticWorkload):
    """In-place 1-D stencil over ``width`` cells for ``depth * scale`` steps.

    Every task updates its cell in place (INOUT) while reading ``fanout``
    neighbours per side (so ``fanout`` is the stencil radius, at most
    :data:`_MAX_STENCIL_RADIUS` to fit the operand layout), generating dense
    WAW chains and WAR hazards against neighbour reads -- the renaming-
    pressure family even with ``object_reuse`` at zero.
    """

    spec = _synthetic_spec("stencil", "In-place 1-D stencil sweep")
    kernel_name = "stencil"

    #: 1 INOUT cell + 2 * radius neighbour reads must fit 19 operands.
    _MAX_STENCIL_RADIUS = (MAX_TASK_OPERANDS - 1) // 2

    def _validate_params(self) -> None:
        super()._validate_params()
        if self.fanout > self._MAX_STENCIL_RADIUS:
            raise WorkloadError(
                f"stencil fanout is the per-side radius and must be <= "
                f"{self._MAX_STENCIL_RADIUS}, got {self.fanout}")

    def build(self, builder: TraceBuilder, scale: int) -> None:
        steps = self.depth * scale
        cells = builder.alloc_blocks(self.width, self.block_bytes, name="cell")
        radius = self.fanout
        recent: List[MemoryObject] = []
        for step in range(steps):
            for i in range(self.width):
                ops = [(cells[i], Direction.INOUT)]
                for offset in range(1, radius + 1):
                    if i - offset >= 0:
                        ops.append((cells[i - offset], Direction.INPUT))
                    if i + offset < self.width:
                        ops.append((cells[i + offset], Direction.INPUT))
                self._emit(builder, ops[:MAX_TASK_OPERANDS], recent)
                recent.append(cells[i])
            del recent[:-4 * self.width]


@register_workload(category=CATEGORY_SYNTHETIC)
class ReductionTreeWorkload(SyntheticWorkload):
    """Rounds of ``width`` leaf producers reduced by a ``fanout``-ary tree.

    The tree root accumulates into a global INOUT object, serialising the
    rounds the way iterative reductions (KMeans-style) do.
    """

    spec = _synthetic_spec("reduction_tree", "Tree reductions into an accumulator")
    kernel_name = "reduce"

    def build(self, builder: TraceBuilder, scale: int) -> None:
        rounds = self.depth * scale
        accumulator = builder.alloc(self.block_bytes, name="acc")
        source = builder.alloc(self.block_bytes, name="input")
        recent: List[MemoryObject] = []
        for rnd in range(rounds):
            leaves: List[MemoryObject] = []
            for i in range(self.width):
                leaf = builder.alloc(self.block_bytes, name=f"r{rnd}.leaf{i}")
                self._emit(builder, [(source, Direction.INPUT),
                                     (leaf, Direction.OUTPUT)], recent)
                leaves.append(leaf)
                recent.append(leaf)
            self._reduce_tree(builder, leaves, accumulator, recent, f"r{rnd}")
            del recent[:-4 * self.width]


@register_workload(category=CATEGORY_SYNTHETIC)
class PipelineChainWorkload(SyntheticWorkload):
    """Independent chains emitted in runs of ``dep_distance`` steps per chain.

    ``width`` chains each advance ``depth * scale`` INOUT steps, but the
    creation stream emits ``dep_distance`` consecutive steps of one chain
    before moving to the next.  Dependent tasks therefore sit roughly
    ``dep_distance * width`` apart in the stream, so the task window the
    pipeline must hold to keep every chain in flight grows linearly with the
    knob -- the window-pressure family.  ``fanout`` > 1 additionally couples
    each chain to ``fanout - 1`` lower-numbered neighbours per step.
    """

    spec = _synthetic_spec("pipeline_chain", "Block-interleaved pipeline chains")
    kernel_name = "stage"

    default_fanout = 1

    def build(self, builder: TraceBuilder, scale: int) -> None:
        steps = self.depth * scale
        chains = builder.alloc_blocks(self.width, self.block_bytes, name="chain")
        recent: List[MemoryObject] = []
        for start in range(0, steps, self.dep_distance):
            run = range(start, min(start + self.dep_distance, steps))
            for c in range(self.width):
                for _step in run:
                    ops = [(chains[c], Direction.INOUT)]
                    for k in range(1, min(self.fanout, self.width)):
                        ops.append((chains[(c - k) % self.width], Direction.INPUT))
                    self._emit(builder, ops[:MAX_TASK_OPERANDS], recent)
                    recent.append(chains[c])
            del recent[:-4 * self.width]


@register_workload(category=CATEGORY_SYNTHETIC)
class RandomDagWorkload(SyntheticWorkload):
    """Seeded random DAG with a bounded dependency horizon.

    ``width * depth * scale`` tasks; the first ``width`` are sources, and
    every later task reads 1 to ``fanout`` outputs sampled uniformly from the
    last ``dep_distance`` producers.  Small horizons serialise the graph into
    near-chains; large horizons spread dependencies across many concurrent
    producers, uncovering parallelism (and, with ``object_reuse`` /
    ``extra_inputs``, renaming and operand pressure on old versions).
    """

    spec = _synthetic_spec("random_dag", "Random DAG with bounded dependency horizon")
    kernel_name = "node"

    def build(self, builder: TraceBuilder, scale: int) -> None:
        total = self.width * self.depth * scale
        seed_obj = builder.alloc(self.block_bytes, name="seed")
        outputs: List[MemoryObject] = []
        pool: Deque[MemoryObject] = deque()
        recent: List[MemoryObject] = []
        for i in range(total):
            ops: List[Tuple[MemoryObject, Direction]] = []
            if i < self.width or not outputs:
                ops.append((seed_obj, Direction.INPUT))
            else:
                horizon = outputs[-min(self.dep_distance, len(outputs)):]
                distinct = list(dict.fromkeys(horizon))
                count = min(1 + builder.rng.randrange(self.fanout), len(distinct))
                ops.extend((obj, Direction.INPUT)
                           for obj in builder.rng.sample(distinct, count))
            out = self._output_object(builder, pool, f"n{i}")
            ops = [(obj, direction) for obj, direction in ops
                   if obj.address != out.address]
            ops.append((out, Direction.OUTPUT))
            self._emit(builder, ops, recent)
            outputs.append(out)
            recent.append(out)
            if len(outputs) > max(self.dep_distance, 4 * self.width):
                del outputs[:-max(self.dep_distance, 4 * self.width)]
            del recent[:-4 * self.width]


@register_workload(category=CATEGORY_SYNTHETIC)
class Stencil2DWorkload(SyntheticWorkload):
    """In-place 2-D cross stencil over a ``width x width`` grid.

    Every task updates cell ``(i, j)`` in place (INOUT) while reading the
    ``fanout``-radius cross neighbourhood (up/down/left/right), for ``depth *
    scale`` time steps.  Object sharing between row- and column-neighbours
    makes this the family whose dependency edges most resist clean sharding:
    ``hash_by_object`` keeps each cell's WAW chain on one pipeline but every
    cross neighbourhood straddles shards, driving inter-frontend forwards.
    """

    spec = _synthetic_spec("stencil2d", "In-place 2-D cross-stencil sweep")
    kernel_name = "stencil2d"

    #: 1 INOUT cell + 4 * radius cross reads must fit 19 operands.
    _MAX_STENCIL_RADIUS = (MAX_TASK_OPERANDS - 1) // 4

    def _validate_params(self) -> None:
        super()._validate_params()
        if self.fanout > self._MAX_STENCIL_RADIUS:
            raise WorkloadError(
                f"stencil2d fanout is the cross radius and must be <= "
                f"{self._MAX_STENCIL_RADIUS}, got {self.fanout}")

    def build(self, builder: TraceBuilder, scale: int) -> None:
        steps = self.depth * scale
        side = self.width
        cells = builder.alloc_blocks(side * side, self.block_bytes, name="cell")
        radius = self.fanout
        recent: List[MemoryObject] = []
        for _step in range(steps):
            for i in range(side):
                for j in range(side):
                    ops = [(cells[i * side + j], Direction.INOUT)]
                    for offset in range(1, radius + 1):
                        if i - offset >= 0:
                            ops.append((cells[(i - offset) * side + j],
                                        Direction.INPUT))
                        if i + offset < side:
                            ops.append((cells[(i + offset) * side + j],
                                        Direction.INPUT))
                        if j - offset >= 0:
                            ops.append((cells[i * side + j - offset],
                                        Direction.INPUT))
                        if j + offset < side:
                            ops.append((cells[i * side + j + offset],
                                        Direction.INPUT))
                    self._emit(builder, ops[:MAX_TASK_OPERANDS], recent)
                    recent.append(cells[i * side + j])
            del recent[:-4 * self.width]


@register_workload(category=CATEGORY_SYNTHETIC)
class Stencil3DWorkload(SyntheticWorkload):
    """In-place 3-D cross stencil over a ``width^3`` grid.

    The 3-D analogue of :class:`Stencil2DWorkload`: each task updates one
    voxel (INOUT) and reads the 6-point cross neighbourhood scaled by the
    ``fanout`` radius.  The default side of 4 keeps the per-step task count
    (``width^3``) comparable to the other families.
    """

    spec = _synthetic_spec("stencil3d", "In-place 3-D cross-stencil sweep")
    kernel_name = "stencil3d"

    default_width = 4

    #: 1 INOUT voxel + 6 * radius cross reads must fit 19 operands.
    _MAX_STENCIL_RADIUS = (MAX_TASK_OPERANDS - 1) // 6

    def _validate_params(self) -> None:
        super()._validate_params()
        if self.fanout > self._MAX_STENCIL_RADIUS:
            raise WorkloadError(
                f"stencil3d fanout is the cross radius and must be <= "
                f"{self._MAX_STENCIL_RADIUS}, got {self.fanout}")

    def build(self, builder: TraceBuilder, scale: int) -> None:
        steps = self.depth * scale
        side = self.width
        cells = builder.alloc_blocks(side * side * side, self.block_bytes,
                                     name="voxel")
        radius = self.fanout

        def at(x: int, y: int, z: int) -> MemoryObject:
            return cells[(x * side + y) * side + z]

        recent: List[MemoryObject] = []
        for _step in range(steps):
            for x in range(side):
                for y in range(side):
                    for z in range(side):
                        ops = [(at(x, y, z), Direction.INOUT)]
                        for offset in range(1, radius + 1):
                            for dx, dy, dz in ((-offset, 0, 0), (offset, 0, 0),
                                               (0, -offset, 0), (0, offset, 0),
                                               (0, 0, -offset), (0, 0, offset)):
                                nx, ny, nz = x + dx, y + dy, z + dz
                                if 0 <= nx < side and 0 <= ny < side \
                                        and 0 <= nz < side:
                                    ops.append((at(nx, ny, nz),
                                                Direction.INPUT))
                        self._emit(builder, ops[:MAX_TASK_OPERANDS], recent)
                        recent.append(at(x, y, z))
            del recent[:-4 * self.width]


@register_workload(category=CATEGORY_SYNTHETIC)
class SkewedLanesWorkload(SyntheticWorkload):
    """Independent lanes with linearly skewed per-lane task runtimes.

    ``width`` fully independent INOUT chains advance ``depth * scale`` steps;
    lane ``l``'s tasks run ``1 + skew * l / (width - 1)`` times the sampled
    runtime, so the last lane is ``1 + skew`` times heavier than the first.
    Because each lane is one memory object, ``hash_by_object`` sharding maps
    whole lanes to pipelines -- deliberately unbalancing per-shard load and
    making this the stealing-friendly family: with ``steal_policy="none"``
    the makespan tracks the heaviest shard, while stealing redistributes the
    tail.  ``fanout`` > 1 couples each lane to ``fanout - 1`` lower-numbered
    neighbours per step, letting the imbalance also generate cross-shard
    dependency traffic.
    """

    spec = _synthetic_spec("skewed_lanes", "Runtime-skewed independent lanes")
    kernel_name = "lane"

    default_fanout = 1

    def __init__(self, skew: float = 4.0, **kwargs):
        self.skew = float(skew)
        if self.skew < 0:
            raise WorkloadError(f"skew must be >= 0, got {self.skew}")
        super().__init__(**kwargs)

    def params(self) -> Dict[str, object]:
        params = super().params()
        params["skew"] = self.skew
        return params

    def build(self, builder: TraceBuilder, scale: int) -> None:
        steps = self.depth * scale
        lanes = builder.alloc_blocks(self.width, self.block_bytes, name="lane")
        span = max(1, self.width - 1)
        recent: List[MemoryObject] = []
        for _step in range(steps):
            for c in range(self.width):
                ops = [(lanes[c], Direction.INOUT)]
                for k in range(1, min(self.fanout, self.width)):
                    ops.append((lanes[(c - k) % self.width], Direction.INPUT))
                self._emit(builder, ops[:MAX_TASK_OPERANDS], recent,
                           runtime_scale=1.0 + self.skew * (c / span))
                recent.append(lanes[c])
            del recent[:-4 * self.width]


#: The nine families, in registration order.
SYNTHETIC_FAMILIES = (ForkJoinWorkload, LayeredWorkload, StencilWorkload,
                      ReductionTreeWorkload, PipelineChainWorkload,
                      RandomDagWorkload, Stencil2DWorkload, Stencil3DWorkload,
                      SkewedLanesWorkload)
