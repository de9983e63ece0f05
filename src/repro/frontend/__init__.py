"""The task-superscalar pipeline frontend (the paper's core contribution).

The frontend is a tiled collection of hardware modules connected by an
asynchronous point-to-point protocol (Figure 5):

* :class:`repro.frontend.gateway.PipelineGateway` -- admits tasks from the
  task-generating thread, allocates TRS slots, distributes operands to the
  ORTs and applies back-pressure when the pipeline fills.
* :class:`repro.frontend.trs.TaskReservationStation` -- stores in-flight task
  meta-data in 128-byte eDRAM blocks (inode-style layout), tracks operand
  readiness, embeds the dependency graph through consumer chaining, and
  releases tasks to the ready queue.
* :class:`repro.frontend.ort.ObjectRenamingTable` -- maps memory objects to
  their most recent user, detecting object dependencies (the task-level
  analogue of the register renaming table).
* :class:`repro.frontend.ovt.ObjectVersioningTable` -- tracks live operand
  versions, renames output operands to break anti/output dependencies, and
  releases versions (and their ORT entries) when the last user finishes.
* :class:`repro.frontend.ready_queue.ReadyQueue` -- the interface to the
  backend's Carbon-like queuing system.
* :class:`repro.frontend.pipeline.TaskSuperscalarFrontend` -- wires the
  modules together according to a :class:`repro.common.config.FrontendConfig`
  and exposes the task-submission interface used by the system simulator.
"""

from repro.frontend.gateway import PipelineGateway
from repro.frontend.ort import ObjectRenamingTable
from repro.frontend.ovt import ObjectVersioningTable
from repro.frontend.pipeline import TaskSuperscalarFrontend
from repro.frontend.ready_queue import ReadyQueue
from repro.frontend.trs import TaskReservationStation

__all__ = [
    "PipelineGateway",
    "ObjectRenamingTable",
    "ObjectVersioningTable",
    "TaskSuperscalarFrontend",
    "ReadyQueue",
    "TaskReservationStation",
]
