"""The on-disk encodings every artifact store shares, one codec each.

Artifacts are written by one process and read by others (pool workers, a
later campaign, another host sharing the directory), so each kind of record
has exactly one encoding, implemented here once:

* **Atomic writes** -- :func:`atomic_write_bytes` writes a ``mkstemp`` temp
  file in the destination directory, then ``os.replace``-s it into place, so
  readers only ever observe absent or complete files.
* **Columnar container** (:class:`ColumnarFormat`; ``.rpt`` packed traces and
  ``.robs`` recordings) -- 4-byte magic, u32 version, u64 header length, a
  compact JSON header whose ``columns`` entry is the directory
  ``[[name, length], ...]``, then the little-endian int64 columns in
  directory order, loaded with bulk ``array.frombytes``.  A file of another
  version raises :class:`~repro.common.errors.StaleFormatError`: stale, not
  damaged.
* **Verified-JSON document** (:func:`write_verified_json` /
  :func:`read_verified_json`; result-cache entries and campaign reports) --
  an object with an integer ``schema`` and a ``digest`` over everything
  except itself, checked only when ``schema`` is current.  Plain JSON
  (:func:`write_json` / :func:`read_json`) serves point summaries and sweep
  manifests.  Every JSON artifact is written in one compact encoding,
  sorted keys and no whitespace.
* **JSONL log** (:func:`append_jsonl_line` / :func:`read_jsonl`; the run
  journal and worker heartbeats) -- one JSON object per line, appended with
  one ``O_APPEND`` write; the reader skips torn or undecodable lines.
* **Quarantine** (:func:`quarantine_file`) -- moves a corrupt artifact aside
  with a reason sidecar and warns, for the self-healing stores and
  ``repro campaign report``.

Every reader maps undecodable bytes, invalid JSON and header fields of the
wrong type (checked against a declared ``fields`` map) to one outcome --
:class:`~repro.common.errors.TraceFormatError` for containers,
:class:`~repro.common.errors.ArtifactIntegrityError` for documents, a
skipped line for logs -- which each store turns into its own corruption
handling.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, List, Mapping, Optional, Sequence, Tuple, Type,
                    Union)

from repro.common.errors import (ArtifactIntegrityError,
                                 ArtifactIntegrityWarning, StaleFormatError,
                                 TraceFormatError)
from repro.common.hashing import canonical_json, content_digest

PathLike = Union[str, Path]

#: Required type of each named field of a header, document or log line: a
#: type or a tuple of types.  A tuple holding ``type(None)`` makes the field
#: optional.
FieldTypes = Mapping[str, Union[Type, Tuple[Type, ...]]]


def _checked(document: object, fields: Optional[FieldTypes],
             error: Type[Exception], context: str) -> Dict:
    """``document`` if it is an object with ``fields``; else raise ``error``."""
    if not isinstance(document, dict):
        raise error(f"{context} is not a JSON object")
    for name, types in (fields or {}).items():
        if not isinstance(document.get(name), types):
            raise error(f"{context}: field {name!r} is missing or has the "
                        f"wrong type ({type(document.get(name)).__name__})")
    return document


def _decode_json(raw: bytes) -> object:
    """Parse UTF-8 JSON bytes (``ValueError`` covers both failure modes)."""
    return json.loads(raw.decode("utf-8"))


# -- Atomic writes -------------------------------------------------------------

def atomic_write_bytes(path: PathLike, payload: bytes) -> Path:
    """Atomically write ``payload`` to ``path`` (temp file + ``os.replace``).

    Parent directories are created as needed; on any failure the temp file
    is removed so no partial artifact is left behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: PathLike, text: str,
                      encoding: str = "utf-8") -> Path:
    """Atomically write ``text`` to ``path`` (see :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode(encoding))


# -- Columnar container ----------------------------------------------------------

#: Bytes of the fixed prefix: magic, u32 version, u64 header length.
_PREFIX = 16

#: Every column holds little-endian int64 values.
_ITEMSIZE = array("q").itemsize


@dataclass(frozen=True)
class ColumnarFormat:
    """One columnar container format: its magic, version and columns.

    ``fields`` names the header fields every file must carry, with their
    types; ``what`` names the artifact in error messages.  Readers raise
    :class:`TraceFormatError` for anything damaged and
    :class:`StaleFormatError` (a subclass) for a file of another version.
    """

    what: str
    magic: bytes
    version: int
    columns: Tuple[str, ...]
    fields: FieldTypes

    def encode(self, header: Dict[str, object],
               columns: Sequence[array]) -> bytes:
        """Encode ``header`` plus ``columns`` (in :attr:`columns` order).

        The header gains the ``columns`` directory; it is written as compact
        sorted-key JSON, so equal inputs always encode to equal bytes.
        """
        header = dict(header, columns=[[name, len(column)] for name, column
                                       in zip(self.columns, columns)])
        header_bytes = json.dumps(header, sort_keys=True,
                                  separators=(",", ":")).encode("utf-8")
        parts = [self.magic, self.version.to_bytes(4, "little"),
                 len(header_bytes).to_bytes(8, "little"), header_bytes]
        for column in columns:
            if sys.byteorder != "little":  # pragma: no cover - big-endian host
                column = array("q", column)
                column.byteswap()
            parts.append(column.tobytes())
        return b"".join(parts)

    def decode(self, raw: bytes) -> Tuple[Dict, Dict[str, array]]:
        """Parse a whole container: ``(header, {column name: array})``."""
        header_len = self._header_length(raw[:_PREFIX])
        body = _PREFIX + header_len
        if body > len(raw):
            raise TraceFormatError(f"{self.what}: truncated header")
        header, lengths = self._parse_header(raw[_PREFIX:body])
        self._check_size(len(raw), body, lengths)
        columns: Dict[str, array] = {}
        offset = body
        for name, length in zip(self.columns, lengths):
            column = array("q")
            column.frombytes(raw[offset:offset + length * _ITEMSIZE])
            if sys.byteorder != "little":  # pragma: no cover - big-endian host
                column.byteswap()
            columns[name] = column
            offset += length * _ITEMSIZE
        return header, columns

    def read(self, path: PathLike) -> Tuple[Dict, Dict[str, array]]:
        """:meth:`decode` the file at ``path``; errors name the path."""
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise TraceFormatError(f"cannot read {self.what} {path}: {exc}") from exc
        try:
            return self.decode(raw)
        except TraceFormatError as exc:
            raise type(exc)(f"{path}: {exc}") from exc

    def read_header(self, path: PathLike) -> Dict:
        """Read only the header of the file at ``path`` (cheap inspection).

        Also checks the file size against the column directory, so a valid
        header stapled to truncated columns is as unreadable here as it is
        to :meth:`read`.  A missing file raises ``OSError``.
        """
        with open(path, "rb") as handle:
            try:
                header_len = self._header_length(handle.read(_PREFIX))
                header_bytes = handle.read(header_len)
                if len(header_bytes) != header_len:
                    raise TraceFormatError(f"{self.what}: truncated header")
                header, lengths = self._parse_header(header_bytes)
                self._check_size(os.fstat(handle.fileno()).st_size,
                                 _PREFIX + header_len, lengths)
            except TraceFormatError as exc:
                raise type(exc)(f"{path}: {exc}") from exc
        return header

    def _header_length(self, prefix: bytes) -> int:
        if len(prefix) < _PREFIX or prefix[:4] != self.magic:
            raise TraceFormatError(f"not a {self.what} (bad magic)")
        version = int.from_bytes(prefix[4:8], "little")
        if version != self.version:
            raise StaleFormatError(
                f"{self.what} format version {version} is not the supported "
                f"version {self.version}")
        return int.from_bytes(prefix[8:16], "little")

    def _parse_header(self, header_bytes: bytes) -> Tuple[Dict, List[int]]:
        try:
            header = _decode_json(header_bytes)
        except ValueError as exc:
            raise TraceFormatError(
                f"{self.what}: header is not UTF-8 JSON ({exc})") from exc
        _checked(header, self.fields, TraceFormatError, f"{self.what} header")
        directory = header.get("columns")
        if not (isinstance(directory, list)
                and len(directory) == len(self.columns)
                and all(isinstance(entry, list) and len(entry) == 2
                        and entry[0] == name and isinstance(entry[1], int)
                        and entry[1] >= 0
                        for entry, name in zip(directory, self.columns))):
            raise TraceFormatError(f"{self.what}: malformed column directory")
        return header, [length for _, length in directory]

    def _check_size(self, actual: int, body: int, lengths: List[int]) -> None:
        expected = body + sum(lengths) * _ITEMSIZE
        if actual != expected:
            raise TraceFormatError(
                f"{self.what}: file is {actual} bytes but the header promises "
                f"{expected} (truncated or corrupt columns)")


# -- Verified-JSON documents -----------------------------------------------------

def read_json(path: PathLike, fields: Optional[FieldTypes] = None) -> Dict:
    """Load the JSON object at ``path``, checking ``fields``.

    Raises ``FileNotFoundError`` when it is absent and
    :class:`ArtifactIntegrityError` when its bytes are not UTF-8 JSON, it is
    not an object, or a named field is missing or of the wrong type.
    """
    return _parsed_json(path, Path(path).read_bytes(), fields)


def _parsed_json(path: PathLike, raw: bytes,
                 fields: Optional[FieldTypes]) -> Dict:
    try:
        document = _decode_json(raw)
    except ValueError as exc:
        raise ArtifactIntegrityError(
            f"{path} is not valid UTF-8 JSON ({exc}); the file is truncated "
            "or corrupt") from exc
    return _checked(document, fields, ArtifactIntegrityError, str(path))


def write_json(path: PathLike, document: Dict) -> Path:
    """Atomically write ``document`` as compact, sorted-key JSON."""
    return atomic_write_text(path, json.dumps(document, sort_keys=True,
                                              separators=(",", ":")))


def write_verified_json(path: PathLike, document: Dict) -> Path:
    """Atomically write ``document`` plus a ``digest`` over all of it.

    ``document`` must carry an integer ``schema``; see
    :func:`read_verified_json`.  It is encoded once, canonically
    (:func:`~repro.common.hashing.canonical_json`): the digest is the sha256
    of those bytes, and the file is the same bytes with ``digest`` appended
    as the last member.
    """
    text = canonical_json(document)
    return atomic_write_text(
        path, f'{text[:-1]},"digest":"{content_digest(text)}"}}')


#: What :func:`write_verified_json` puts between the document's bytes and the
#: 64 hex digits of their digest; ``"}`` closes the file after them.
_DIGEST_KEY = b',"digest":"'
_DIGEST_TAIL = len(_DIGEST_KEY) + 64 + len(b'"}')


def read_verified_json(path: PathLike, schema: int,
                       fields: Optional[FieldTypes] = None) -> Dict:
    """Load a :func:`write_verified_json` document, without its ``digest``.

    A document of the current ``schema`` must match its digest and carry
    ``fields``; one of another integer schema is returned unchecked, so the
    caller can treat it as stale rather than damaged.  Raises like
    :func:`read_json` (a non-integer ``schema`` is damage too).

    The digest is checked on the stored bytes: a file that ends in the
    digest member holds exactly the digested bytes before it.  A document
    in any other layout (an older checkout wrote sorted, indented JSON) is
    re-encoded canonically to check it.
    """
    raw = Path(path).read_bytes()
    document = _parsed_json(path, raw, {"schema": int})
    if document["schema"] != schema:
        return document
    recorded = document.pop("digest", None)
    tail = raw[-_DIGEST_TAIL:]
    if tail.startswith(_DIGEST_KEY) and tail.endswith(b'"}'):
        digest = content_digest(raw[:-_DIGEST_TAIL] + b"}")
    else:
        digest = content_digest(document)
    if recorded != digest:
        raise ArtifactIntegrityError(
            f"{path} does not match its recorded digest (truncated, "
            "bit-flipped or hand-edited)")
    return _checked(document, fields, ArtifactIntegrityError, str(path))


# -- JSONL logs ------------------------------------------------------------------

def append_jsonl_line(path: PathLike, record: dict) -> None:
    """Append ``record`` as one JSON line to ``path``.

    The record is serialized first and written in a single ``write`` call on
    an O_APPEND descriptor, so concurrent appenders (pool workers, a parent
    journaling around them) interleave whole lines, never fragments --
    POSIX guarantees the atomicity for writes this small.  Parent
    directories are created as needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    payload = line.encode("utf-8")
    fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND, 0o644)
    try:
        os.write(fd, payload)
    finally:
        os.close(fd)


def read_jsonl(path: PathLike, fields: Optional[FieldTypes] = None) -> List[Dict]:
    """Every intact record of the JSONL log at ``path``, in order.

    A line that is torn (the one write a crash can interrupt), not UTF-8
    JSON, not an object, or missing a field of ``fields`` is skipped: a log
    exists to survive crashes, so damage loses records, never the reader.
    An absent or unreadable file has no records.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return []
    records: List[Dict] = []
    for line in raw.splitlines():
        try:
            records.append(_checked(_decode_json(line), fields, ValueError,
                                    "record"))
        except ValueError:
            continue
    return records


# -- Quarantine ------------------------------------------------------------------

def quarantine_file(path: PathLike, quarantine_dir: PathLike, reason: str,
                    what: str, then: str = "") -> Optional[Path]:
    """Move a corrupt artifact into ``quarantine_dir`` and warn about it.

    The file keeps its name plus a ``.quarantined`` suffix (so artifact-store
    globs like ``*/*.rpt`` never pick quarantined entries back up), with a
    numeric infix on collision, and a ``<name>.reason.json`` sidecar records
    why and when.  The :class:`ArtifactIntegrityWarning` names ``what`` was
    damaged, where it went and ``then`` what happens.  Returns the new path,
    or ``None`` when another process already moved or removed the file.
    """
    path = Path(path)
    quarantine_dir = Path(quarantine_dir)
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    destination: Optional[Path] = quarantine_dir / (path.name + ".quarantined")
    serial = 0
    while destination.exists():
        serial += 1
        destination = quarantine_dir / f"{path.name}.{serial}.quarantined"
    try:
        os.replace(path, destination)
    except OSError:
        destination = None
    else:
        sidecar = {
            "source": str(path),
            "reason": reason,
            "quarantined_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        try:
            atomic_write_text(
                destination.with_name(destination.name + ".reason.json"),
                json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        except OSError:
            pass
    warnings.warn(
        f"corrupt {what} {path.name} ({reason}); quarantined to "
        f"{destination if destination is not None else '<already gone>'}"
        + (f" and {then}" if then else ""),
        ArtifactIntegrityWarning, stacklevel=3)
    return destination
