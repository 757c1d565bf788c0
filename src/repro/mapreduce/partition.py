"""Stable key partitioning for the shuffle.

The engine originally used ``hash(key) % num_reducers``.  For strings
(and anything containing them) :func:`hash` is salted per interpreter by
``PYTHONHASHSEED``, so partition assignment -- and therefore output
order and any per-partition accounting -- changed between runs.  This
module replaces it with a content-defined scheme: keys are serialized to
a canonical byte string and hashed with ``zlib.crc32``, which depends
only on the key's value.  The same key lands on the same partition in
every process, on every run, under every hash seed.

The canonical serialization is type-tagged and length-prefixed so
distinct keys cannot collide structurally (``("a", "b")`` vs
``("ab",)``), and sets are serialized in sorted-bytes order so the
iteration-order instability of hashed containers cannot leak in.  Like
built-in ``hash``, it honours Python's equality invariant: keys that
compare equal across types (``1 == 1.0 == True``, ``{1} ==
frozenset({1})``) serialize identically, so they always land on the
same partition and reduce as one group.
"""

from __future__ import annotations

import zlib
from typing import Any

__all__ = ["serialize_key", "stable_hash", "stable_partition"]


def serialize_key(key: Any) -> bytes:
    """Canonical byte serialization of a shuffle key.

    Deterministic across interpreter restarts, hash seeds, and
    processes; structurally unambiguous via type tags and length
    prefixes.
    """
    out = bytearray()
    _serialize(key, out)
    return bytes(out)


def _serialize(value: Any, out: bytearray) -> None:
    if value is None:
        out += b"N;"
    elif isinstance(value, int):  # bool included: True == 1 must co-hash
        out += b"i%d;" % int(value)
    elif isinstance(value, float):
        if value.is_integer():  # 2.0 == 2 must co-hash
            out += b"i%d;" % int(value)
        else:
            out += b"f" + repr(value).encode("ascii") + b";"
    elif isinstance(value, str):
        data = value.encode("utf-8", "surrogatepass")
        out += b"s%d:" % len(data)
        out += data
    elif isinstance(value, (bytes, bytearray)):
        out += b"b%d:" % len(value)
        out += bytes(value)
    elif isinstance(value, tuple):
        out += b"("
        for item in value:
            _serialize(item, out)
        out += b")"
    elif isinstance(value, list):
        out += b"["
        for item in value:
            _serialize(item, out)
        out += b"]"
    elif isinstance(value, (set, frozenset)):
        # Sort by serialized bytes: hashed-container iteration order is
        # exactly the instability this module exists to remove.
        out += b"{"
        for chunk in sorted(serialize_key(item) for item in value):
            out += chunk
        out += b"}"
    else:
        _serialize_opaque(value, out)


def _serialize_opaque(value: Any, out: bytearray) -> None:
    """Fallback for struct-like keys: type name + value bytes/repr."""
    tag = type(value).__name__.encode("utf-8")
    to_bytes = getattr(value, "to_bytes", None)
    if callable(to_bytes):
        try:
            data = to_bytes()
        except TypeError:
            data = None
        if data is not None:
            out += b"o%d:" % len(tag)
            out += tag
            out += b"%d:" % len(data)
            out += data
            return
    data = repr(value).encode("utf-8", "surrogatepass")
    out += b"r%d:" % len(tag)
    out += tag
    out += b"%d:" % len(data)
    out += data


def stable_hash(key: Any) -> int:
    """A 32-bit content hash of a key, stable across processes/runs."""
    return zlib.crc32(serialize_key(key)) & 0xFFFFFFFF


def stable_partition(key: Any, num_partitions: int) -> int:
    """The reduce partition a key belongs to (stable across processes)."""
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    return stable_hash(key) % num_partitions
