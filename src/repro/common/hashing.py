"""Hashing helpers: address mixing and content addressing.

The frontend distributes memory operands across ORTs, and indexes ORT sets,
by hashing the operand's base address.  The paper notes that selecting on raw
address bits creates load imbalance because object sizes (and therefore
allocation alignments) vary; a mixing hash spreads block-aligned addresses
evenly.

:func:`mix64` is a splitmix64-style finaliser: deterministic, cheap and with
good avalanche behaviour even for inputs whose low bits are all zero (the
common case for large aligned blocks).

The sweep subsystem (:mod:`repro.sweep`) additionally needs *content
addresses* for experiment configurations, so the module also provides
:func:`canonical_json` (a stable, whitespace-free encoding of plain data),
:func:`fingerprint64` (a :func:`mix64`-chained 64-bit fingerprint) and
:func:`content_digest` (a hex digest suitable for cache file names).
"""

from __future__ import annotations

import json
from typing import Any

_MASK64 = (1 << 64) - 1


def mix64(value: int) -> int:
    """Return a well-mixed 64-bit hash of ``value`` (deterministic)."""
    x = value & _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    x = x ^ (x >> 31)
    return x


def bucket_for(value: int, num_buckets: int, salt: int = 0) -> int:
    """Map ``value`` onto one of ``num_buckets`` buckets using :func:`mix64`.

    Args:
        value: The value (typically a base address) to hash.
        num_buckets: Number of buckets; must be positive.
        salt: Optional salt so different structures (ORT selection vs. set
            indexing) use decorrelated hash functions.
    """
    if num_buckets <= 0:
        raise ValueError(f"num_buckets must be positive, got {num_buckets}")
    return mix64(value ^ (salt * 0x9E3779B97F4A7C15)) % num_buckets


def canonical_json(obj: Any) -> str:
    """Encode ``obj`` as deterministic JSON (sorted keys, no whitespace).

    Two structurally equal values always produce the same string, regardless
    of dict insertion order, which makes the encoding suitable as a hashing
    preimage.  Only plain data (dict/list/str/int/float/bool/None) is
    accepted; anything else raises ``TypeError`` so non-serialisable state
    cannot silently change a content address.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


def fingerprint64(data: Any) -> int:
    """A deterministic 64-bit fingerprint of ``data`` built on :func:`mix64`.

    ``bytes`` and ``str`` are hashed directly; any other value is first
    encoded with :func:`canonical_json`.  The fingerprint chains
    :func:`mix64` over 8-byte little-endian chunks, folding in the total
    length so prefixes do not collide trivially.
    """
    if isinstance(data, str):
        raw = data.encode("utf-8")
    elif isinstance(data, bytes):
        raw = data
    else:
        raw = canonical_json(data).encode("utf-8")
    state = mix64(len(raw))
    for offset in range(0, len(raw), 8):
        chunk = int.from_bytes(raw[offset:offset + 8], "little")
        state = mix64(state ^ chunk)
    return state


def content_digest(obj: Any) -> str:
    """Hex content address of ``obj`` (sha256 over :func:`canonical_json`).

    Used by the sweep result cache to name artifacts: equal configurations
    map to equal file names, so re-running a sweep finds its earlier results.
    ``hashlib`` (OpenSSL) is imported here, not with the module, because the
    frontend imports this module for :func:`mix64` alone.
    """
    import hashlib

    if isinstance(obj, bytes):
        raw = obj
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
    else:
        raw = canonical_json(obj).encode("utf-8")
    return hashlib.sha256(raw).hexdigest()
