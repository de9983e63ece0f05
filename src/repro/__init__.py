"""Task Superscalar: an out-of-order task pipeline -- Python reproduction.

This library reproduces the system described in *"Task Superscalar: An
Out-of-Order Task Pipeline"* (Etsion et al., MICRO-43, 2010): a hardware
frontend that decodes inter-task data dependencies the way an out-of-order
processor decodes inter-instruction dependencies, renames memory objects to
break anti/output dependencies, sustains a task window of tens of thousands
of non-speculative tasks and drives the cores of a manycore CMP as functional
units.

Quick start::

    from repro import registry, run_trace, run_trace_software

    trace = registry.generate("Cholesky", scale=16)
    hw = run_trace(trace, num_cores=256)
    sw = run_trace_software(trace, num_cores=256)
    print(hw.speedup, sw.speedup)

Package map:

* :mod:`repro.frontend` -- the task-superscalar pipeline (gateway, TRS, ORT,
  OVT, ready queue): the paper's core contribution.
* :mod:`repro.backend`, :mod:`repro.cores` -- scheduler, worker cores and the
  task-generating thread.
* :mod:`repro.topology` -- multi-frontend machines: router, fabric, work
  stealing.
* :mod:`repro.sim` -- the discrete-event engine and statistics.
* :mod:`repro.software` -- the StarSs software-runtime baseline.
* :mod:`repro.runtime` -- the StarSs-like programming model (annotations,
  gold dependency graph, functional executors).
* :mod:`repro.trace` -- task and operand records, trace files and the packed
  trace store.
* :mod:`repro.workloads` -- the nine Table I benchmark generators and the
  synthetic task-graph families.
* :mod:`repro.analysis` -- the decode-rate law, speedup and chain metrics.
* :mod:`repro.sweep` -- sweep grids, the result cache, runners and
  seed-ensemble campaigns.
* :mod:`repro.obs` -- opt-in cycle-resolved telemetry: stall attribution,
  critical path, Perfetto export.
* :mod:`repro.experiments` -- drivers reproducing every table and figure.
* :mod:`repro.common` -- Table II configuration, IDs, errors, units and the
  on-disk codecs.
"""

from repro.backend.system import SimulationResult, TaskSuperscalarSystem, run_trace
from repro.common.config import SimulationConfig, default_table2_config
from repro.runtime import AddressSpace, TaskProgram, build_dependency_graph, task
from repro.software.runtime_sim import SoftwareRuntimeSystem, run_trace_software
from repro.trace.records import Direction, OperandRecord, TaskRecord, TaskTrace
from repro.workloads import registry

__version__ = "1.0.0"

__all__ = [
    "SimulationResult",
    "TaskSuperscalarSystem",
    "run_trace",
    "SimulationConfig",
    "default_table2_config",
    "AddressSpace",
    "TaskProgram",
    "build_dependency_graph",
    "task",
    "SoftwareRuntimeSystem",
    "run_trace_software",
    "Direction",
    "OperandRecord",
    "TaskRecord",
    "TaskTrace",
    "registry",
    "__version__",
]
