"""Content-addressed, on-disk cache of sweep results.

Layout (under the cache root, default ``.repro-artifacts/sweeps``)::

    <root>/
        objects/<aa>/<point_id>.json   one file per simulated point
        manifests/<spec_id>.json       one manifest per completed sweep

``point_id`` is :attr:`repro.sweep.spec.SweepPoint.point_id` -- the sha256 of
the point's canonical parameter JSON -- so the cache key depends only on
*what* is simulated, never on which spec, process or machine asked for it.
Interrupted sweeps therefore resume for free: every point that finished
before the interruption is found by its content address and skipped.

Entries are verified-JSON documents (:func:`repro.common.fileio
.write_verified_json`): written atomically (temp file + ``os.replace``) so
concurrent workers, or a sweep killed mid-write, can never leave a truncated
file behind, and carrying a ``digest`` over the whole entry, verified on
read.  Each entry records the full parameter dict alongside the result,
which makes the artifact directory self-describing.  Manifests are plain
JSON, written with :func:`repro.common.fileio.write_json` and read with
:func:`~repro.common.fileio.read_json`.

Integrity: a corrupt entry -- undecodable bytes, invalid or truncated JSON, a
digest mismatch, a field of the wrong type -- is never served *and never
silently dropped*: it is counted (``cache.corrupt``) and handed to
:func:`repro.common.fileio.quarantine_file`, which moves it to
``<root>/quarantine/`` with a reason sidecar and reports it via
:class:`~repro.common.errors.ArtifactIntegrityWarning`; the caller sees a
miss and transparently recomputes.  An entry of another schema version is
the one exception -- an ordinary miss, not damage.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.backend.system import SimulationResult
from repro.common.errors import ArtifactIntegrityError
from repro.common.fileio import (quarantine_file, read_json, read_verified_json,
                                 write_json, write_verified_json)
from repro.sweep.spec import SweepPoint

#: Bump when the entry layout changes; mismatched entries are treated as
#: misses so stale artifacts never poison newer code.  2: results carry
#: ``<hist>.max`` stats keys (histograms gained a ``.max`` summary entry),
#: so schema-1 entries would serve an inconsistent stats contract.
#: 3: histograms additionally report ``.p50``/``.p99`` and samplers report
#: ``.samples_dropped``, so schema-2 entries would lack those keys.
#: 4: entries carry a ``digest`` (sha256 of the canonical result JSON),
#: verified on every read.
#: 5: results carry topology metrics (``num_frontends``, per-frontend decode
#: rates, steal counts, fabric forwards), so schema-4 entries would serve
#: results without the topology contract.
#: 6: entries are the shared verified-JSON document, whose ``digest`` covers
#: the whole entry rather than only the result.
SCHEMA_VERSION = 6

#: Default artifacts directory (relative to the working directory).
DEFAULT_CACHE_ROOT = Path(".repro-artifacts") / "sweeps"


#: The fields :func:`result_to_dict` copies, in declaration order.
_RESULT_FIELDS = tuple(f.name for f in fields(SimulationResult))


def result_to_dict(result: SimulationResult) -> Dict:
    """Serialise a :class:`SimulationResult` to plain JSON data.

    Equal to ``dataclasses.asdict(result)`` and shares no mutable object
    with ``result``.  Every field is a scalar or a flat list or dict of
    scalars (``stats``, the per-frontend lists), so copying each container
    once is already a deep copy -- without ``asdict``'s per-value
    ``deepcopy`` of every stats entry.
    """
    data: Dict = {}
    for name in _RESULT_FIELDS:
        value = getattr(result, name)
        data[name] = value.copy() if isinstance(value, (list, dict)) else value
    return data


def result_from_dict(data: Dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict` data."""
    return SimulationResult(**data)


class ResultCache:
    """Content-addressed store mapping sweep points to simulation results."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_ROOT):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Corrupt entries found (and quarantined) by this cache instance.
        self.corrupt = 0
        #: Where those entries went (parallel list of quarantine paths).
        self.quarantined: List[Path] = []

    # -- Paths -------------------------------------------------------------

    def _object_path(self, point_id: str) -> Path:
        return self.root / "objects" / point_id[:2] / f"{point_id}.json"

    def _manifest_path(self, spec_id: str) -> Path:
        return self.root / "manifests" / f"{spec_id}.json"

    def quarantine_dir(self) -> Path:
        """Where this cache's corrupt entries are moved for post-mortem."""
        return self.root / "quarantine"

    # -- Entries -----------------------------------------------------------

    @staticmethod
    def _load(path: Path) -> Tuple[Optional[SimulationResult], Optional[str]]:
        """Read one entry: ``(result, None)`` on a hit, ``(None, None)`` on a
        plain miss (absent, or another schema version -- old artifacts are
        not damage), ``(None, reason)`` when the entry is corrupt."""
        try:
            entry = read_verified_json(path, SCHEMA_VERSION, {"result": dict})
        except FileNotFoundError:
            return None, None
        except ArtifactIntegrityError as exc:
            return None, str(exc)
        if entry["schema"] != SCHEMA_VERSION:
            return None, None
        try:
            return result_from_dict(entry["result"]), None
        except TypeError as exc:
            return None, ("result payload does not rebuild a SimulationResult "
                          f"({exc})")

    def get(self, point: SweepPoint) -> Optional[SimulationResult]:
        """Return the cached result for ``point``, or ``None`` on a miss.

        Corrupt entries are quarantined and reported, then treated as misses
        so the caller recomputes; see the module docstring.
        """
        path = self._object_path(point.point_id)
        result, damage = self._load(path)
        if damage is not None:
            self.corrupt += 1
            moved = quarantine_file(path, self.quarantine_dir(), damage,
                                    "result-cache entry",
                                    "the point will be recomputed")
            if moved is not None:
                self.quarantined.append(moved)
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, point: SweepPoint, result: SimulationResult) -> Path:
        """Persist ``result`` for ``point`` atomically; returns the path."""
        path = write_verified_json(self._object_path(point.point_id), {
            "schema": SCHEMA_VERSION,
            "point_id": point.point_id,
            "params": point.as_dict(),
            "result": result_to_dict(result),
        })
        from repro.sweep.faults import fire as fire_fault
        if fire_fault("torn_cache", point=point.index) is not None:
            # Injected torn write: keep the first half of the entry, exactly
            # what a kill -9 mid-write on a non-atomic writer would leave.
            payload = path.read_bytes()
            path.write_bytes(payload[:max(8, len(payload) // 2)])
        return path

    def contains(self, point: SweepPoint) -> bool:
        """True if ``point`` has a valid cache entry (does not count stats,
        does not quarantine -- a read-only probe)."""
        return self._load(self._object_path(point.point_id))[0] is not None

    def __len__(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.json"))

    # -- Manifests ---------------------------------------------------------

    def write_manifest(self, spec_id: str, name: str,
                       points: List[SweepPoint]) -> Path:
        """Record which points a completed sweep covered (for provenance)."""
        manifest = {
            "schema": SCHEMA_VERSION,
            "spec_id": spec_id,
            "name": name,
            "num_points": len(points),
            "point_ids": [point.point_id for point in points],
        }
        return write_json(self._manifest_path(spec_id), manifest)

    def read_manifest(self, spec_id: str) -> Optional[Dict]:
        """Load a sweep manifest, or ``None`` if the sweep never completed
        (or its manifest is damaged)."""
        try:
            return read_json(self._manifest_path(spec_id))
        except (FileNotFoundError, ArtifactIntegrityError):
            return None
