"""Protocol messages exchanged by the frontend modules.

The paper manages the frontend with an asynchronous point-to-point protocol;
Figures 6-9 show the flows for task allocation and for decoding output, input
and inout operands.  Each message below corresponds to one arrow of those
figures (plus the completion-path messages described in Section IV.A).

Messages carry the structural IDs (:class:`repro.common.ids.TaskID`,
:class:`repro.common.ids.OperandID`) so that the destination module can find
the referenced state with a direct lookup -- the paper stresses that only the
ORTs need associative lookups.

Millions of these messages are allocated per simulated run, so every message
dataclass uses ``slots=True``: no per-instance ``__dict__``, smaller objects,
faster field access on the packet hot path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.common.ids import OperandID, TaskID
from repro.trace.records import Direction, TaskRecord


class ReadyKind(enum.Enum):
    """Which half of an operand a data-ready message satisfies.

    * ``INPUT_DATA`` -- the operand's input data has been produced (sent by a
      producer task's TRS when the task finishes, forwarded along consumer
      chains, or sent directly on an ORT miss when the data already lives in
      memory).
    * ``OUTPUT_BUFFER`` -- the operand's output storage is available (sent by
      the OVT after renaming an output operand, or when the previous version
      of an inout operand is released).
    * ``FULL`` -- both halves at once (ORT miss for an inout operand: the data
      is in memory and no previous version is live).
    """

    INPUT_DATA = "input_data"
    OUTPUT_BUFFER = "output_buffer"
    FULL = "full"


# ---------------------------------------------------------------------------
# Gateway <-> TRS (Figure 6)
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class AllocRequest:
    """Gateway -> TRS: allocate storage for a new task.

    ``buffer_slot`` is the address of the task in the gateway's internal
    buffer; it is echoed back in the reply so the gateway can find the pending
    task without an associative lookup (Section IV.B.1).
    """

    num_operands: int
    buffer_slot: int


@dataclass(slots=True)
class AllocReply:
    """TRS -> Gateway: result of an allocation request.

    ``task`` is ``None`` when the TRS is out of storage, in which case the
    gateway removes the TRS from its free queue and retries elsewhere.
    """

    trs_index: int
    buffer_slot: int
    task: Optional[TaskID]


# ---------------------------------------------------------------------------
# Gateway -> ORT and Gateway -> TRS (operand distribution)
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class OperandDecodeRequest:
    """Gateway -> ORT: decode one memory operand of a newly allocated task."""

    operand: OperandID
    direction: Direction
    address: int


@dataclass(slots=True)
class ScalarOperand:
    """Gateway -> TRS: a scalar operand, ready immediately (no dependencies)."""

    operand: OperandID


# ---------------------------------------------------------------------------
# ORT -> TRS (Figures 7-9)
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class OperandInfo:
    """ORT -> TRS: basic operand information after renaming-table lookup.

    ``previous_user`` is the operand ID of the most recent user of the same
    memory object (the data producer, or the previous consumer thanks to
    consumer chaining); it is ``None`` when the lookup missed or when the
    operand is a pure output (whose readiness comes from the OVT rename).
    ``ovt_index`` names the OVT the operand's version lives in, which the
    TRS notifies when the task finishes.
    """

    operand: OperandID
    direction: Direction
    previous_user: Optional[OperandID]
    ovt_index: int


@dataclass(slots=True)
class DataReady:
    """Notification that (part of) an operand's data is available.

    Sent by: the OVT (rename complete / previous version released), a
    producer task's TRS (task finished), a chained consumer's TRS (forwarding)
    or the ORT itself (lookup miss -- data already in memory).  Only the
    arrival matters to timing, so a renamed output's buffer address (Figure
    7's "@7164") is not modelled.
    """

    operand: OperandID
    kind: ReadyKind


@dataclass(slots=True)
class RegisterConsumer:
    """TRS -> TRS: chain ``consumer`` after ``target`` for data forwarding.

    ``target`` is the previous user of the memory object (from the ORT);
    ``consumer`` is the newly decoded operand that must be notified when the
    object's data becomes available (Figure 8's "register consumer" arrow).
    """

    target: OperandID
    consumer: OperandID


# ---------------------------------------------------------------------------
# ORT <-> OVT
# ---------------------------------------------------------------------------

class VersionKind(enum.Enum):
    """Why a new version is being created in the OVT.

    * ``OUTPUT`` -- a pure output operand: the version is renamed and the
      operand becomes ready immediately.  The rename buffer itself is not
      modelled: the OVT's service time does not depend on it.
    * ``INOUT`` -- an inout operand: the version is *not* renamed (it is part
      of a true dependency); the operand additionally waits for the previous
      version's release before its output half is ready.
    * ``READER_MISS`` -- an input operand that missed in the ORT: the data
      already lives in memory, and the version only exists to track the
      object's in-flight readers (the paper creates a version on every miss).
    """

    OUTPUT = "output"
    INOUT = "inout"
    READER_MISS = "reader_miss"


@dataclass(slots=True)
class VersionRequest:
    """ORT -> OVT: create a new version of a memory object.

    The ORT allocates the ``version_id`` (each ORT is paired with exactly one
    OVT, so IDs allocated at the ORT are unique within the pair); the OVT
    creates the record and, depending on ``kind``, replies to the operand's
    TRS with a data-ready message.  ``previous_version`` is the version
    superseded by this one, if any.
    """

    operand: OperandID
    address: int
    kind: VersionKind
    version_id: int
    previous_version: Optional[int]


@dataclass(slots=True)
class VersionUse:
    """ORT -> OVT: a reader operand was mapped onto an existing version."""

    operand: OperandID
    version: int


@dataclass(slots=True)
class VersionRelease:
    """TRS -> OVT: a finished task releases its use of an operand's version."""

    operand: OperandID


# ---------------------------------------------------------------------------
# OVT -> ORT
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class EntryRelease:
    """OVT -> ORT: the newest version of ``address`` died; free the ORT entry.

    The ORT never evicts on its own; entries are reclaimed only through this
    message, which is also what un-stalls a gateway blocked on a full set.
    """

    address: int
    version: int


# ---------------------------------------------------------------------------
# Completion path
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class TaskReady:
    """TRS -> ready queue: all operands of ``task`` are ready for execution."""

    task: TaskID
    record: TaskRecord


@dataclass(slots=True)
class TaskFinished:
    """Backend -> TRS: the task completed execution on a worker core."""

    task: TaskID


@dataclass(slots=True)
class TrsSpaceAvailable:
    """TRS -> Gateway: storage was freed; the TRS can accept allocations again."""

    trs_index: int
