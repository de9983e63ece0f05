"""Crash-recovery policy and run journaling for sweep execution.

Two small, composable pieces:

* :class:`RetryPolicy` -- how a :class:`~repro.sweep.runner.SweepRunner`
  pool (``jobs > 1``) reacts to a dead worker or a hung point: how many
  re-dispatches each point gets, how long to back off before restarting the
  pool, and the per-point wall-clock timeout that turns a straggler into a
  retry.
* :class:`RunJournal` -- a crash-safe, atomically-appended JSONL record of
  every point's pending -> running -> done/failed transitions.  The journal
  is written *around* the work (one line per transition, each a single
  ``O_APPEND`` write), so however a run dies, the journal tells you exactly
  which points completed, which were in flight, and which retries happened.
  Combined with the content-addressed result cache, that makes interrupted
  runs resumable with zero recomputation of finished points.

Both are plain data + file appends -- no threads, no daemons -- so they are
safe to construct in workers and cheap enough to leave on by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union
import time
import warnings

from repro.common.fileio import append_jsonl_line, read_jsonl

#: Journal schema version (bumped when event vocabulary/fields change shape).
JOURNAL_SCHEMA = 1

#: Field types every journal record must have; records that lack them are
#: damage, skipped by :meth:`RunJournal.read`.
_RECORD_FIELDS = {"event": str, "ts": (int, float),
                  "point_id": (str, type(None))}


@dataclass(frozen=True)
class RetryPolicy:
    """How a pool sweep reacts to crashed workers and hung points.

    Applies only to :class:`~repro.sweep.runner.SweepRunner` pool runs
    (``jobs > 1``); an in-process run has no worker to lose and no way to
    kill a straggler, so it ignores the policy.

    ``max_retries`` bounds *per-point* re-dispatches: a point that has
    crashed the pool (or timed out) ``max_retries + 1`` times fails the
    sweep with full context.  ``max_retries=0`` disables recovery but still
    converts the bare ``BrokenProcessPool`` into a
    :class:`~repro.common.errors.SweepExecutionError` naming the victim
    points.  Backoff between pool restarts is exponential
    (``backoff_seconds * backoff_factor**restart``, capped at
    ``max_backoff_seconds``) so a persistently failing environment does not
    hot-loop.  ``point_timeout_seconds`` is wall-clock per dispatched chunk;
    ``None`` disables straggler detection.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.5
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 10.0
    point_timeout_seconds: Optional[float] = None

    def backoff_delay(self, restart: int) -> float:
        """Seconds to sleep before pool restart number ``restart`` (0-based)."""
        delay = self.backoff_seconds * (self.backoff_factor ** restart)
        return min(delay, self.max_backoff_seconds)


class RunJournal:
    """Append-only JSONL journal of one sweep/campaign run.

    Construct with a path (or :meth:`for_root` to get the conventional
    ``<artifacts>/journals/<run_id>.jsonl`` location), or with ``None`` for
    a disabled journal whose :meth:`emit` is a no-op -- callers never need
    to branch on "journaling on?".

    Journal writes must never take down the run they exist to protect:
    an ``OSError`` on append is swallowed after a single warning and the
    journal goes inert.
    """

    def __init__(self, path: Optional[Union[str, Path]]):
        self.path = None if path is None else Path(path)
        self._dead = False

    @classmethod
    def for_root(cls, root: Optional[Union[str, Path]],
                 run_id: str) -> "RunJournal":
        """The conventional journal location under an artifact root."""
        if root is None:
            return cls(None)
        return cls(Path(root) / "journals" / f"{run_id}.jsonl")

    @property
    def enabled(self) -> bool:
        return self.path is not None and not self._dead

    def emit(self, event: str, **fields: Any) -> None:
        """Append one transition record (single atomic O_APPEND write)."""
        if self.path is None or self._dead:
            return
        record = {"schema": JOURNAL_SCHEMA, "ts": round(time.time(), 3),
                  "event": event}
        record.update(fields)
        try:
            append_jsonl_line(self.path, record)
        except OSError as exc:
            self._dead = True
            warnings.warn(f"run journal {self.path} is unwritable ({exc}); "
                          f"journaling disabled for this run",
                          RuntimeWarning, stacklevel=2)

    def read(self) -> List[Dict[str, Any]]:
        """All intact records, in order (:func:`repro.common.fileio.read_jsonl`).

        A torn final line -- the one write a crash can interrupt -- or a
        damaged one is skipped rather than fatal, because the journal's job
        is precisely to survive crashes.
        """
        if self.path is None:
            return []
        return read_jsonl(self.path, _RECORD_FIELDS)


def replay(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold journal records into a per-point state map plus counters.

    Returns ``{"points": {point_id: last_state}, "retries": n,
    "failures": n, "pool_restarts": n, "completed": bool}`` -- the view a
    resuming run (or an operator post-mortem) wants: what finished, what
    was in flight at the moment of death, what kept being retried.
    """
    points: Dict[str, str] = {}
    retries = failures = pool_restarts = 0
    completed = False
    for record in records:
        event = record.get("event")
        point_id = record.get("point_id")
        if event == "point_running" and point_id:
            points[point_id] = "running"
        elif event == "point_done" and point_id:
            points[point_id] = "done"
        elif event == "point_cached" and point_id:
            points[point_id] = "cached"
        elif event == "point_failed" and point_id:
            points[point_id] = "failed"
            failures += 1
        elif event == "point_retried" and point_id:
            points[point_id] = "retrying"
            retries += 1
        elif event == "pool_restart":
            pool_restarts += 1
        elif event == "sweep_done":
            completed = True
    return {
        "points": points,
        "retries": retries,
        "failures": failures,
        "pool_restarts": pool_restarts,
        "completed": completed,
    }


__all__ = [
    "JOURNAL_SCHEMA",
    "RetryPolicy",
    "RunJournal",
    "replay",
]
