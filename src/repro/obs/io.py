"""Binary persistence of recordings (``.robs``) and obs-directory cleanup.

A recording is the shared columnar container of :mod:`repro.common.fileio`
(:data:`OBS_FORMAT`: magic ``ROBS``): a JSON header (name table, drop count,
meta, column directory) followed by the five raw little-endian int64 event
columns, loaded back with bulk ``array.frombytes``.  Files are written
atomically; any damage, including a header field of the wrong type, raises
``TraceFormatError``.

An *obs directory* (``--obs-dir``, or the root passed to
:func:`repro.sweep.runner.configure_observability`) has three children::

    recordings/<digest>.robs    full event recordings (optional, large)
    points/<digest>.json        per-point telemetry summaries
    heartbeats/<host>-<pid>.jsonl   worker progress events

:func:`gc_obs_dir` removes them (with ``--dry-run`` support), reporting the
bytes reclaimed.
"""

from __future__ import annotations

from array import array
from pathlib import Path
from typing import List, Tuple, Union

from repro.common.errors import TraceFormatError
from repro.common.fileio import ColumnarFormat, atomic_write_bytes
from repro.obs.events import STRIDE
from repro.obs.observer import Recording

PathLike = Union[str, Path]

#: File magic and version of the recording format; bump the version when the
#: column layout or header contract changes.  2: the header carries the
#: shared ``[[name, length], ...]`` column directory instead of a name list
#: plus ``num_events``.
OBS_MAGIC = b"ROBS"
OBS_FORMAT_VERSION = 2

#: The ``.robs`` container: one column per event field, in event order.
OBS_FORMAT = ColumnarFormat(
    what="obs recording", magic=OBS_MAGIC, version=OBS_FORMAT_VERSION,
    columns=("time", "kind", "module", "task", "value"),
    fields={"names": list, "dropped": int, "meta": dict})

#: Obs-directory children, in gc order.
OBS_SUBDIRS = ("recordings", "points", "heartbeats")

#: Default obs directory (relative to the working directory), next to the
#: sweep artifact cache.
DEFAULT_OBS_ROOT = Path(".repro-artifacts") / "obs"


def recording_to_bytes(recording: Recording) -> bytes:
    """Serialise a recording to the versioned binary format."""
    columns = [array("q") for _ in range(STRIDE)]
    for event in recording.events:
        for column, item in zip(columns, event):
            column.append(item)
    header = {"names": recording.names, "dropped": recording.dropped,
              "meta": recording.meta}
    return OBS_FORMAT.encode(header, columns)


def _recording(header: dict, columns: dict) -> Recording:
    if len({len(column) for column in columns.values()}) > 1:
        raise TraceFormatError("obs recording: event columns differ in length")
    return Recording(names=header["names"],
                     events=list(zip(*columns.values())),
                     dropped=header["dropped"], meta=header["meta"])


def recording_from_bytes(raw: bytes) -> Recording:
    """Parse :func:`recording_to_bytes` output (raises ``TraceFormatError``)."""
    return _recording(*OBS_FORMAT.decode(raw))


def save_recording(recording: Recording, path: PathLike) -> Path:
    """Atomically write a ``.robs`` recording file."""
    return atomic_write_bytes(path, recording_to_bytes(recording))


def load_recording(path: PathLike) -> Recording:
    """Load a ``.robs`` file written by :func:`save_recording`."""
    return _recording(*OBS_FORMAT.read(path))


def gc_obs_dir(root: PathLike,
               dry_run: bool = False) -> Tuple[List[Path], int]:
    """Delete an obs directory's artifacts; returns (paths, bytes reclaimed).

    With ``dry_run`` the same lists are computed but nothing is removed.
    Only the known artifact kinds under the three obs subdirectories are
    touched; unknown files are left alone.
    """
    root = Path(root)
    patterns = {"recordings": "*.robs", "points": "*.json",
                "heartbeats": "*.jsonl"}
    removed: List[Path] = []
    reclaimed = 0
    for subdir in OBS_SUBDIRS:
        directory = root / subdir
        if not directory.is_dir():
            continue
        for path in sorted(directory.glob(patterns[subdir])):
            try:
                size = path.stat().st_size
            except OSError:
                continue
            removed.append(path)
            reclaimed += size
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    removed.pop()
                    reclaimed -= size
    return removed, reclaimed
