"""Column-block encodings built on the compact protocol's primitives.

Each block encodes one column's slice of up to ``block_rows`` values into
a self-contained byte payload:

    varint  n                  -- total values in the block (incl. nulls)
    byte    has_nulls          -- 1 if a presence bitmap follows
    [ceil(n/8) bitmap bytes]   -- bit i set => value i is present
    payload                    -- encoding-specific, present values only

Encodings (all reuse ``write_varint``/``zigzag`` from
``repro.thriftlike.protocol``, the same primitives the compact protocol
serializes structs with):

- ``varint``: zigzag varints -- negative and full 64-bit ints welcome;
- ``delta``:  first value, then zigzag varint deltas (timestamps);
- ``plain``:  length-prefixed UTF-8 strings;
- ``dict``:   distinct strings in first-occurrence order, then varint
  indexes into that dictionary;
- ``bool``:   present values bit-packed 8 per byte.
"""

from __future__ import annotations

import io
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.thriftlike.protocol import (
    ByteCursor,
    unzigzag,
    write_varint,
    zigzag,
)
from repro.thriftlike.types import ProtocolError

__all__ = ["ENCODINGS", "encode_block", "decode_block", "dict_block_values"]


def _pack_bits(flags: Sequence[bool]) -> bytes:
    out = bytearray(-(-len(flags) // 8))
    for i, flag in enumerate(flags):
        if flag:
            out[i // 8] |= 1 << (i % 8)
    return bytes(out)


def _unpack_bits(data: bytes, count: int) -> List[bool]:
    return [bool(data[i // 8] >> (i % 8) & 1) for i in range(count)]


# -- payload codecs over the *present* values ----------------------------

def _encode_varint(buf: io.BytesIO, values: Sequence[int]) -> None:
    for value in values:
        write_varint(buf, zigzag(value))


def _decode_varint(cursor: ByteCursor, count: int) -> List[int]:
    return [unzigzag(cursor.read_varint()) for _ in range(count)]


_I64_MASK = (1 << 64) - 1
_I64_SIGN = 1 << 63


def _wrap_i64(value: int) -> int:
    """Two's-complement wrap into [-2**63, 2**63): keeps deltas between
    extreme i64 values inside zigzag's round-trippable domain."""
    return ((value + _I64_SIGN) & _I64_MASK) - _I64_SIGN


def _encode_delta(buf: io.BytesIO, values: Sequence[int]) -> None:
    previous = 0
    for i, value in enumerate(values):
        step = value if i == 0 else _wrap_i64(value - previous)
        write_varint(buf, zigzag(step))
        previous = value


def _decode_delta(cursor: ByteCursor, count: int) -> List[int]:
    out: List[int] = []
    previous = 0
    for i in range(count):
        step = unzigzag(cursor.read_varint())
        previous = step if i == 0 else _wrap_i64(previous + step)
        out.append(previous)
    return out


def _write_string(buf: io.BytesIO, value: str) -> None:
    raw = value.encode("utf-8")
    write_varint(buf, len(raw))
    buf.write(raw)


def _read_string(cursor: ByteCursor) -> str:
    return cursor.read_exact(cursor.read_varint()).decode("utf-8")


def _encode_plain(buf: io.BytesIO, values: Sequence[str]) -> None:
    for value in values:
        _write_string(buf, value)


def _decode_plain(cursor: ByteCursor, count: int) -> List[str]:
    return [_read_string(cursor) for _ in range(count)]


def _encode_dict(buf: io.BytesIO, values: Sequence[str]) -> None:
    symbols: Dict[str, int] = {}
    for value in values:
        if value not in symbols:
            symbols[value] = len(symbols)
    write_varint(buf, len(symbols))
    for value in symbols:
        _write_string(buf, value)
    for value in values:
        write_varint(buf, symbols[value])


def _decode_dict(cursor: ByteCursor, count: int) -> List[str]:
    table = _decode_plain(cursor, cursor.read_varint())
    return [table[cursor.read_varint()] for _ in range(count)]


def _encode_bool(buf: io.BytesIO, values: Sequence[bool]) -> None:
    buf.write(_pack_bits([bool(v) for v in values]))


def _decode_bool(cursor: ByteCursor, count: int) -> List[bool]:
    return _unpack_bits(cursor.read_exact(-(-count // 8)), count)


_Codec = Tuple[Callable[..., None], Callable[..., list]]

ENCODINGS: Dict[str, _Codec] = {
    "varint": (_encode_varint, _decode_varint),
    "delta": (_encode_delta, _decode_delta),
    "plain": (_encode_plain, _decode_plain),
    "dict": (_encode_dict, _decode_dict),
    "bool": (_encode_bool, _decode_bool),
}


# -- block layer ---------------------------------------------------------

def encode_block(encoding: str, values: Sequence) -> bytes:
    """Encode one column block (``None`` entries become presence-bitmap
    nulls) into a self-contained payload."""
    encode, _ = ENCODINGS[encoding]
    buf = io.BytesIO()
    write_varint(buf, len(values))
    present = [value is not None for value in values]
    if all(present):
        buf.write(b"\x00")
        compact = values
    else:
        buf.write(b"\x01")
        buf.write(_pack_bits(present))
        compact = [value for value in values if value is not None]
    encode(buf, compact)
    return buf.getvalue()


def _block_header(data: bytes) -> Tuple[ByteCursor, int, Optional[bytes]]:
    """``(cursor at the payload, value count, presence bitmap or None)``."""
    cursor = ByteCursor(data)
    count = cursor.read_varint()
    if cursor.read_exact(1) == b"\x00":
        return cursor, count, None
    return cursor, count, cursor.read_exact(-(-count // 8))


def decode_block(encoding: str, data: bytes) -> list:
    """Inverse of :func:`encode_block`; nulls come back as ``None``."""
    _, decode = ENCODINGS[encoding]
    try:
        cursor, count, bitmap = _block_header(data)
        if bitmap is None:
            return decode(cursor, count)
        present = _unpack_bits(bitmap, count)
        compact = iter(decode(cursor, sum(present)))
    except ProtocolError as exc:
        raise ValueError("truncated column block") from exc
    return [next(compact) if flag else None for flag in present]


def dict_block_values(data: bytes) -> Optional[List[str]]:
    """The dictionary of a ``dict``-encoded block, without decoding the
    value indexes -- lets predicate checks peek at block vocabulary."""
    try:
        cursor = _block_header(data)[0]
        return _decode_plain(cursor, cursor.read_varint())
    except ProtocolError as exc:
        raise ValueError("truncated column block") from exc
