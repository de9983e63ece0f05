"""Shared helpers for the experiment drivers.

The paper's traces contain tens of thousands of tasks per application; the
Python reproduction uses smaller (but structurally identical) traces so whole
figure sweeps finish in minutes.  ``EXPERIMENT_SCALES`` records the default
problem size used for each benchmark in the experiments, and ``scale_factor``
lets callers shrink or grow all of them together.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.config import SimulationConfig, TaskGeneratorConfig, default_table2_config
from repro.trace.records import TaskTrace
from repro.workloads import registry

#: Default per-workload problem sizes used by the experiment drivers (the
#: meaning of each value is the workload's ``scale`` parameter).
EXPERIMENT_SCALES: Dict[str, int] = {
    "Cholesky": 36,
    "MatMul": 13,
    "FFT": 24,
    "H264": 6,
    "KMeans": 6,
    "Knn": 96,
    "PBPI": 8,
    "SPECFEM": 8,
    "STAP": 192,
}


def experiment_trace(name: str, scale_factor: float = 1.0, seed: int = 0,
                     max_tasks: Optional[int] = None,
                     **workload_kwargs) -> TaskTrace:
    """Generate the trace used by the experiments for workload ``name``.

    Args:
        name: Workload name (Table I spelling, a synthetic family, or any
            registered generator; parameterized spec strings such as
            ``"random_dag:width=16"`` are accepted).
        scale_factor: Multiplier applied to the default problem size; values
            below 1.0 shrink the traces for quick runs.  Workloads without an
            ``EXPERIMENT_SCALES`` entry scale from their own default.
        seed: Generator seed.
        max_tasks: Optionally generate only the trace's first ``max_tasks``
            tasks (used by the decode-rate experiments, which only need a
            steady-state prefix); the generator stops there.
        **workload_kwargs: Extra generator-constructor arguments (the sweep
            subsystem forwards ``workload.<param>`` axes here).
    """
    workload = registry.get_workload(name, **workload_kwargs)
    base_scale = EXPERIMENT_SCALES.get(workload.spec.name, workload.default_scale)
    scale = max(1, int(round(base_scale * scale_factor)))
    return workload.generate(scale=scale, seed=seed, max_tasks=max_tasks)


def fast_generator_config() -> TaskGeneratorConfig:
    """A task-generating thread fast enough never to be the bottleneck.

    The decode-rate experiments (Figures 12 and 13) measure what the pipeline
    can sustain; the default generator cost (a few hundred cycles per task)
    would mask the fastest configurations, so those experiments use this
    near-zero-cost generator instead.
    """
    return TaskGeneratorConfig(cycles_per_task=8, cycles_per_operand=2)


def experiment_config(num_cores: int = 256,
                      fast_generator: bool = False) -> SimulationConfig:
    """Table II configuration with optional fast task generation."""
    config = default_table2_config(num_cores)
    if fast_generator:
        config.generator = fast_generator_config()
    return config
