"""Telemetry summaries, the stall report renderer and worker heartbeats.

Two kinds of artifact live here:

* **Point summaries** -- :func:`point_summary` condenses a recording into a
  small JSON document (stall attribution, critical path, module activity)
  that sweep workers drop into ``<obs-dir>/points/<digest>.json`` so that
  reports can cite *why* a point performed the way it did without shipping
  the full event stream.  :func:`format_report` renders one as the text the
  ``repro obs report`` CLI prints.

* **Heartbeats** -- :class:`HeartbeatWriter` appends JSONL progress events
  (worker start/progress/done) to ``<obs-dir>/heartbeats/<host>-<pid>.jsonl``
  through the JSONL log codec the run journal uses
  (:func:`repro.common.fileio.append_jsonl_line`, read back with
  :func:`~repro.common.fileio.read_jsonl`).  Records are wall-clock-stamped
  and never touch simulator state, so heartbeat emission cannot perturb
  results.
"""

from __future__ import annotations

import functools
import os
import time as _walltime
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.common.errors import ArtifactIntegrityError
from repro.common.fileio import (append_jsonl_line, read_json, read_jsonl,
                                 write_json)
from repro.obs.observer import Recording
from repro.obs.timeline import (
    STALL_CATEGORIES,
    build_timeline,
    critical_path,
    stall_attribution,
)

PathLike = Union[str, Path]

#: Schema tag of a point summary document.
POINT_SCHEMA = "repro.obs.point/1"

#: Field types a point summary must have to be read back (what
#: :func:`format_report` and the CLI index into).
_SUMMARY_FIELDS = {"schema": str, "tasks": int, "events": int,
                   "stalls": dict, "critical_path": list, "modules": dict}

#: Field types every heartbeat record must have to be read back.
_HEARTBEAT_FIELDS = {"time": (int, float), "event": str, "pid": int}


def point_summary(recording: Recording,
                  params: Optional[Dict[str, object]] = None,
                  metrics: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Condense a recording into the JSON-serialisable telemetry summary."""
    timeline = build_timeline(recording)
    attribution = stall_attribution(timeline)
    path = critical_path(timeline)
    modules = {name: {"services": count, "busy_cycles": busy}
               for name, (count, busy) in sorted(timeline.module_service.items())}
    summary: Dict[str, object] = {
        "schema": POINT_SCHEMA,
        "events": len(recording.events),
        "dropped": recording.dropped,
        "tasks": len(timeline.tasks),
        "end_time": timeline.end_time,
        "stalls": attribution,
        "critical_path": path,
        "critical_path_length": len(path),
        "modules": modules,
    }
    if params is not None:
        summary["params"] = dict(params)
    if metrics is not None:
        summary["metrics"] = dict(metrics)
    if recording.meta:
        summary["meta"] = dict(recording.meta)
    return summary


def format_report(summary: Dict[str, object]) -> str:
    """Render a point summary as the human-readable stall report."""
    lines: List[str] = []
    lines.append(f"tasks: {summary.get('tasks', 0)}   "
                 f"events: {summary.get('events', 0)}   "
                 f"dropped: {summary.get('dropped', 0)}   "
                 f"end cycle: {summary.get('end_time', 0)}")
    stalls = summary.get("stalls") or {}
    totals = stalls.get("totals") or {}
    fractions = stalls.get("fractions") or {}
    lines.append("stall attribution (cycles per category, all tasks):")
    for category in STALL_CATEGORIES:
        cycles = totals.get(category, 0)
        share = fractions.get(category, 0.0)
        lines.append(f"  {category:<16} {cycles:>12}  ({share * 100:5.1f}%)")
    skipped = stalls.get("tasks_skipped", 0)
    if skipped:
        lines.append(f"  ({skipped} tasks skipped: incomplete lifecycle, "
                     f"ring wrapped)")
    path = summary.get("critical_path") or []
    lines.append(f"critical path: {len(path)} tasks"
                 + (f" (seq {path[0]['seq']} -> {path[-1]['seq']})"
                    if path else ""))
    modules = summary.get("modules") or {}
    if modules:
        lines.append("module activity:")
        for name, info in modules.items():
            lines.append(f"  {name:<16} {info['services']:>9} services, "
                         f"{info['busy_cycles']:>12} busy cycles")
    return "\n".join(lines)


def write_point_summary(root: PathLike, digest: str,
                        summary: Dict[str, object]) -> Path:
    """Write ``<root>/points/<digest>.json`` atomically."""
    return write_json(Path(root) / "points" / f"{digest}.json", summary)


def load_point_summaries(root: PathLike) -> Dict[str, Dict[str, object]]:
    """Load every point summary under ``<root>/points`` (digest -> summary).

    Damaged summaries (see :func:`repro.common.fileio.read_json`) and those
    of another schema are skipped.
    """
    summaries: Dict[str, Dict[str, object]] = {}
    for path in sorted((Path(root) / "points").glob("*.json")):
        try:
            document = read_json(path, _SUMMARY_FIELDS)
        except (OSError, ArtifactIntegrityError):
            continue
        if document["schema"] == POINT_SCHEMA:
            summaries[path.stem] = document
    return summaries


@functools.lru_cache(maxsize=None)
def _host_name() -> str:
    """This host's short name, resolved once per process."""
    import socket

    return socket.gethostname().split(".")[0] or "host"


class HeartbeatWriter:
    """Appends worker progress events to a per-process heartbeat JSONL file.

    One writer per worker process; the file name embeds hostname and pid so
    parallel workers never contend.  Each record is one JSON line with at
    least ``time`` (wall clock), ``event`` and ``pid``.
    """

    def __init__(self, root: PathLike):
        self.root = Path(root)
        self.pid = os.getpid()
        self.path = self.root / "heartbeats" / f"{_host_name()}-{self.pid}.jsonl"

    def emit(self, event: str, **fields) -> None:
        """Append one heartbeat record (failures are swallowed: telemetry
        must never take a worker down)."""
        record = {"time": _walltime.time(), "event": event, "pid": self.pid}
        record.update(fields)
        try:
            append_jsonl_line(self.path, record)
        except OSError:
            pass

    def progress_hook(self, digest: str):
        """An ``Observer.heartbeat`` callback reporting simulation progress."""
        def heartbeat(cycle: int, tasks_retired: int) -> None:
            self.emit("progress", point=digest, cycle=cycle,
                      tasks_retired=tasks_retired)
        return heartbeat

    def point_failed(self, digest: Optional[str], error: str,
                     attempt: Optional[int] = None) -> None:
        """Record that a point's execution failed (crash, timeout, error).

        Emitted by the worker when the simulation itself raises, and by the
        parent runner when a worker dies or exhausts its retry budget -- so
        heartbeat consumers watching a fleet see failures, not just silence.
        """
        fields: Dict[str, object] = {"point": digest, "error": error}
        if attempt is not None:
            fields["attempt"] = attempt
        self.emit("point_failed", **fields)

    def point_retried(self, digest: Optional[str], attempt: int,
                      reason: Optional[str] = None) -> None:
        """Record that a point is being re-dispatched (attempt is 1-based)."""
        fields: Dict[str, object] = {"point": digest, "attempt": attempt}
        if reason is not None:
            fields["reason"] = reason
        self.emit("point_retried", **fields)


def read_heartbeats(root: PathLike) -> List[Dict[str, object]]:
    """Read every intact heartbeat record under ``<root>/heartbeats``,
    time-sorted (torn or damaged lines are skipped, as in the run journal)."""
    records = [record
               for path in sorted((Path(root) / "heartbeats").glob("*.jsonl"))
               for record in read_jsonl(path, _HEARTBEAT_FIELDS)]
    records.sort(key=lambda record: record["time"])
    return records
