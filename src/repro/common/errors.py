"""Exception hierarchy for the task-superscalar reproduction.

All library-specific exceptions derive from :class:`ReproError`, so callers
can catch one base class when they want to distinguish library failures from
programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration was supplied.

    Raised, for example, when a frontend configuration requests zero TRSs or a
    TRS block size that cannot hold a task's main block.
    """


class CapacityError(ReproError):
    """A hardware structure ran out of capacity in a way the model forbids.

    The real hardware never raises this condition: it back-pressures (stalls
    the gateway or the task-generating thread).  The simulator raises
    :class:`CapacityError` only when a configuration makes forward progress
    impossible -- e.g. a single task with more operands than a TRS can ever
    hold, or an ORT set too small to hold one entry.
    """


class AllocationError(ReproError):
    """An allocator was asked for something it can never satisfy."""


class ProtocolError(ReproError):
    """An internal protocol invariant was violated.

    These indicate a bug in the pipeline model itself (e.g. a data-ready
    message for an operand that was already ready), and are used liberally as
    internal assertions so that tests catch modelling mistakes early.
    """


class WorkloadError(ReproError):
    """A workload generator was given invalid parameters."""


class TraceFormatError(ReproError):
    """A trace file or record is malformed."""


class StaleFormatError(TraceFormatError):
    """A well-formed binary artifact of another format version.

    Stale, not damaged: stores treat it as a plain miss and never
    quarantine it.
    """


class SchedulingError(ReproError):
    """The backend scheduler reached an inconsistent state."""


class SweepExecutionError(ReproError):
    """A sweep runner failed to produce a result for one or more points.

    Raised instead of silently returning a shorter result list than the
    spec's point list, so campaigns never mistake partial output for a
    completed grid.
    """


class ArtifactIntegrityError(ReproError):
    """A stored artifact failed its content-digest or schema verification.

    Raised only where silently recomputing is impossible (e.g. a campaign
    report read back for display); the self-healing stores (result cache,
    trace store) quarantine the corrupt entry and recompute instead.
    """


class ArtifactIntegrityWarning(UserWarning):
    """A corrupt artifact was quarantined and will be transparently recomputed.

    A warning rather than an error: the run still produces correct results,
    but the operator should know the artifact store took damage (disk
    trouble, a torn write from a killed process) and where the evidence
    went.
    """
