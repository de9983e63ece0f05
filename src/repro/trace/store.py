"""Content-addressed, cross-process store of packed task traces.

Every figure in the reproduction is a sweep that replays the *same* task
trace under many pipeline configurations.  Generating a trace is pure-Python
object construction, so regenerating it once per worker process (or once per
campaign) is the dominant fixed cost of a sweep fleet.  The trace store
amortises that cost across every process that can see the artifacts
directory:

* the parent sweep runner **bakes** each distinct trace once (generate ->
  pack -> atomic write) before fanning points out,
* every worker (local or, later, on another host sharing the filesystem)
  **loads** the packed file with bulk ``frombytes`` instead of regenerating.

Layout (under the sweep artifacts dir, default
``.repro-artifacts/sweeps/traces``)::

    <root>/<aa>/<digest>.rpt      one packed trace per distinct workload spec

``digest`` is :func:`trace_digest` -- a :func:`repro.common.hashing
.content_digest` of the *canonical* workload spec (registry-normalised
workload string, scale factor, seed, truncation) -- so the key depends only
on what trace is generated, never on which sweep, process or machine asked
for it.  Writes are atomic (temp file + ``os.replace``), the binary format is
versioned (:data:`repro.trace.packed.PACKED_FORMAT_VERSION`), and corrupt or
stale files read as misses, which makes the store safe for concurrent
writers: two processes baking the same trace race benignly to an identical
file.

Integrity: a corrupt entry (bad magic, an undecodable or mistyped header,
truncated columns, trailing bytes) is never a *silent* miss -- it is counted
(``store.corrupt``) and handed to :func:`repro.common.fileio.quarantine_file`,
which moves it to ``<root>/quarantine/`` with a reason sidecar and reports
it via :class:`~repro.common.errors.ArtifactIntegrityWarning`; the caller
re-bakes exactly as for a plain miss.  An entry of another
:data:`PACKED_FORMAT_VERSION` (``StaleFormatError``) is a plain miss (stale,
not damaged) and is left in place for :meth:`TraceStore.gc`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.common.errors import StaleFormatError, TraceFormatError
from repro.common.fileio import quarantine_file
from repro.common.hashing import content_digest
from repro.trace.packed import (PACKED_FORMAT_VERSION, PackedTaskTrace,
                                pack_trace, read_packed, read_packed_header,
                                write_packed)
from repro.trace.records import TaskTrace

#: Bump when the key derivation changes (forces a clean re-bake).
TRACE_KEY_SCHEMA = 1

#: Default store location (relative to the working directory); sweeps derive
#: theirs from the result-cache root instead (``<artifacts>/traces``).
DEFAULT_STORE_ROOT = Path(".repro-artifacts") / "sweeps" / "traces"

#: File extension of store entries ("repro packed trace").
ENTRY_SUFFIX = ".rpt"

#: ``gc`` only removes ``*.tmp`` files older than this (seconds), so a
#: concurrent writer's in-flight temp file is never yanked out from under
#: its ``os.replace``.
TMP_GRACE_SECONDS = 3600.0

ParamScalar = Union[str, int, float, bool, None]


def canonical_trace_params(workload: str, scale_factor: float = 1.0,
                           seed: int = 0, max_tasks: Optional[int] = None,
                           workload_kwargs: Optional[Dict[str, ParamScalar]] = None,
                           ) -> Dict[str, ParamScalar]:
    """The canonical parameter dict naming one generated trace.

    ``workload`` may be any accepted spelling (case-insensitive name or
    parameterized spec string); it is normalised through
    :func:`repro.workloads.registry.canonical_spec` with any separate
    constructor kwargs folded in, so every spelling of the same generation
    request produces the same dict -- and therefore the same
    :func:`trace_digest`.
    """
    from repro.workloads import registry

    base, params = registry.parse_workload_spec(workload)
    merged = dict(params)
    merged.update(workload_kwargs or {})
    spec = registry.format_workload_spec(registry.resolve_name(base), merged)
    return {
        "schema": TRACE_KEY_SCHEMA,
        "workload": spec,
        "scale_factor": float(scale_factor),
        "seed": int(seed),
        "max_tasks": None if max_tasks is None else int(max_tasks),
    }


def trace_digest(workload: str, scale_factor: float = 1.0, seed: int = 0,
                 max_tasks: Optional[int] = None,
                 workload_kwargs: Optional[Dict[str, ParamScalar]] = None) -> str:
    """Content address of one generation request (hex; store file name)."""
    return content_digest(canonical_trace_params(
        workload, scale_factor=scale_factor, seed=seed, max_tasks=max_tasks,
        workload_kwargs=workload_kwargs))


@dataclass(frozen=True)
class StoreEntry:
    """One baked trace, as listed by :meth:`TraceStore.entries`."""

    digest: str
    path: Path
    size_bytes: int
    name: str
    num_tasks: int
    num_operands: int
    params: Dict[str, ParamScalar]


class TraceStore:
    """Content-addressed store mapping workload-spec digests to packed traces."""

    def __init__(self, root: Union[str, Path] = DEFAULT_STORE_ROOT):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.bakes = 0
        #: Corrupt entries found (and quarantined) by this store instance.
        self.corrupt = 0
        #: Where those entries went (parallel list of quarantine paths).
        self.quarantined: List[Path] = []
        #: Bytes freed (or, on a dry run, that would be freed) by the most
        #: recent :meth:`gc` call.
        self.last_gc_bytes = 0

    @classmethod
    def for_cache(cls, cache) -> "TraceStore":
        """The store conventionally paired with a sweep ``ResultCache``."""
        return cls(Path(cache.root) / "traces")

    # -- Paths -------------------------------------------------------------

    def path_for(self, digest: str) -> Path:
        """Entry path for ``digest`` (two-level fan-out like the result cache)."""
        return self.root / digest[:2] / f"{digest}{ENTRY_SUFFIX}"

    def quarantine_dir(self) -> Path:
        """Where this store's corrupt entries are moved for post-mortem."""
        return self.root / "quarantine"

    # -- Entries -----------------------------------------------------------

    def _read_failed(self, path: Path, error: TraceFormatError) -> None:
        """Quarantine a failed read unless the entry is absent or stale."""
        if isinstance(error, StaleFormatError) or not path.exists():
            return
        self.corrupt += 1
        moved = quarantine_file(path, self.quarantine_dir(), str(error),
                                "packed trace", "the trace will be re-baked")
        if moved is not None:
            self.quarantined.append(moved)

    def get(self, digest: str) -> Optional[PackedTaskTrace]:
        """Load the packed trace for ``digest``, or ``None`` on a miss.

        Missing and version-mismatched files are plain misses; corrupt files
        (truncated columns, bad magic, mangled header) are quarantined and
        reported first.  Either way the caller just re-bakes.
        """
        path = self.path_for(digest)
        try:
            packed = read_packed(path)
        except TraceFormatError as exc:
            self._read_failed(path, exc)
            self.misses += 1
            return None
        self.hits += 1
        return packed

    def put(self, digest: str, trace: Union[PackedTaskTrace, TaskTrace],
            params: Optional[Dict[str, ParamScalar]] = None) -> Path:
        """Atomically persist ``trace`` under ``digest``; returns the path."""
        path = write_packed(trace, self.path_for(digest),
                            annotations={"trace_params": params} if params else None)
        from repro.sweep.faults import fire as fire_fault
        fault = fire_fault("trace_corrupt")
        if fault is not None:
            # Injected bit rot: flip bytes in the middle of the entry we just
            # baked (deterministic -- no randomness, just position).
            raw = bytearray(path.read_bytes())
            for offset in range(len(raw) // 2, min(len(raw) // 2 + 8, len(raw))):
                raw[offset] ^= 0xFF
            path.write_bytes(bytes(raw))
        return path

    def contains(self, digest: str) -> bool:
        """True if ``digest`` has a readable, current-version entry.

        Corrupt entries are quarantined here too: ``contains`` gates the
        parent-side pre-bake, so leaving a damaged file in place would let
        the fan-out dispatch workers against a trace none of them can load.
        """
        path = self.path_for(digest)
        try:
            read_packed_header(path)
        except TraceFormatError as exc:
            self._read_failed(path, exc)
            return False
        except OSError:
            return False
        return True

    def get_or_bake(self, params: Dict[str, ParamScalar],
                    generate: Callable[[], TaskTrace],
                    ) -> Tuple[PackedTaskTrace, bool]:
        """Load the trace named by canonical ``params``, baking it on a miss.

        Returns ``(packed_trace, baked)`` where ``baked`` is True when the
        trace had to be generated (and was persisted for every later reader).
        """
        digest = content_digest(params)
        packed = self.get(digest)
        if packed is not None:
            return packed, False
        packed = pack_trace(generate())
        self.put(digest, packed, params=params)
        self.bakes += 1
        return packed, True

    # -- Inspection / maintenance ------------------------------------------

    def __len__(self) -> int:
        """Number of *readable* entries (matches get/contains/entries)."""
        return len(self.entries())

    def entries(self) -> List[StoreEntry]:
        """Readable entries in deterministic (digest) order, for ``ls``."""
        found: List[StoreEntry] = []
        for path in sorted(self.root.glob(f"*/*{ENTRY_SUFFIX}")):
            try:
                header = read_packed_header(path)
            except (TraceFormatError, OSError):
                continue
            annotations = header.get("annotations") or {}
            found.append(StoreEntry(
                digest=path.stem,
                path=path,
                size_bytes=path.stat().st_size,
                name=header["name"],
                num_tasks=header["num_tasks"],
                num_operands=header["num_operands"],
                params=annotations.get("trace_params") or {},
            ))
        return found

    def gc(self, keep: Optional[Union[set, frozenset]] = None,
           drop_all: bool = False, dry_run: bool = False) -> List[Path]:
        """Remove store entries; returns the paths that were (or would be) removed.

        Without arguments only unreadable debris is dropped: corrupt entries,
        traces baked by an older :data:`PACKED_FORMAT_VERSION`, and orphaned
        ``*.tmp`` files left behind by writers killed mid-bake (only once
        they are :data:`TMP_GRACE_SECONDS` old, so a concurrent writer's
        in-flight temp file is left alone).  With ``keep``, any readable
        entry whose digest is not in the set goes too; ``drop_all`` clears
        the store.

        The reclaimed size (summed ``st_size`` of every removed path) is
        left in :attr:`last_gc_bytes` -- on a dry run, the size that a real
        run would reclaim.
        """
        removed: List[Path] = []
        self.last_gc_bytes = 0
        if not self.root.is_dir():
            return removed

        def drop_path(path: Path) -> None:
            try:
                size = path.stat().st_size
            except OSError:
                size = 0
            removed.append(path)
            self.last_gc_bytes += size
            if not dry_run:
                try:
                    os.unlink(path)
                except OSError:
                    self.last_gc_bytes -= size

        tmp_cutoff = time.time() - TMP_GRACE_SECONDS
        for path in sorted(self.root.glob("*/*.tmp")):
            try:
                if path.stat().st_mtime > tmp_cutoff:
                    continue  # possibly a live writer mid-bake
            except OSError:
                continue
            drop_path(path)
        for path in sorted(self.root.glob(f"*/*{ENTRY_SUFFIX}")):
            digest = path.stem
            try:
                read_packed_header(path)
                readable = True
            except (TraceFormatError, OSError):
                readable = False
            drop = (not readable or drop_all
                    or (keep is not None and digest not in keep))
            if not drop:
                continue
            drop_path(path)
        return removed


__all__ = [
    "DEFAULT_STORE_ROOT",
    "ENTRY_SUFFIX",
    "PACKED_FORMAT_VERSION",
    "StoreEntry",
    "TRACE_KEY_SCHEMA",
    "TraceStore",
    "canonical_trace_params",
    "trace_digest",
]
