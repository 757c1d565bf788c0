"""Wire protocols: binary (fixed-width) and compact (varint/zigzag).

Each protocol is a writer class and a :class:`Wire` of position-passing
read functions. Every value carries a wire type, so a struct serialized
with either can be skipped field-by-field without knowing its schema --
the property that gives Thrift messages forward compatibility.
"""

from __future__ import annotations

import io
import struct as _struct
from typing import Any, Callable, Dict, NamedTuple, Tuple

from repro.thriftlike.types import ProtocolError, TType

# Fixed-width big-endian layouts, shared by both protocols.
_I8 = _struct.Struct(">b")
_I16 = _struct.Struct(">h")
_I32 = _struct.Struct(">i")
_I64 = _struct.Struct(">q")
_DOUBLE = _struct.Struct(">d")
_FIELD = _struct.Struct(">Bh")
_COLLECTION = _struct.Struct(">Bi")
_MAP = _struct.Struct(">BBi")

#: Every one-byte ``bytes``, by value: what a writer emits for a wire
#: type, a short-form field header or a varint below 128.
_BYTE = [bytes((value,)) for value in range(256)]

_TRUNCATED_BYTE = "truncated read: wanted 1, got 0"
_BAD_UTF8 = "invalid utf-8 in string field"


def read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """``(value, position after)`` of the base-128 varint at ``pos``."""
    try:
        byte = data[pos]
        if byte < 0x80:  # one byte: most lengths, sizes and small ints
            return byte, pos + 1
        result, shift = byte & 0x7F, 7
        while True:
            pos += 1
            byte = data[pos]
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                return result, pos + 1
            shift += 7
            if shift > 70:
                raise ProtocolError("varint too long")
    except IndexError:
        raise ProtocolError(_TRUNCATED_BYTE) from None


def _u8(data: bytes, pos: int) -> int:
    try:
        return data[pos]
    except IndexError:
        raise ProtocolError(_TRUNCATED_BYTE) from None


class ByteCursor:
    """A read position over a bytes object (protocol readers, column
    blocks); every read past the end raises :class:`ProtocolError`."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def read_exact(self, n: int) -> bytes:
        """The next ``n`` bytes."""
        chunk, self.pos = read_bytes(self.data, self.pos, n)
        return chunk

    def read_varint(self) -> int:
        """The unsigned base-128 varint at the cursor."""
        value, self.pos = read_varint(self.data, self.pos)
        return value


class ProtocolWriter:
    """Abstract writer. Subclasses encode primitives onto a byte buffer."""

    def __init__(self) -> None:
        self._buf = io.BytesIO()
        self._write = self._buf.write

    def getvalue(self) -> bytes:
        """Return the bytes written so far."""
        return self._buf.getvalue()

    # -- framing -----------------------------------------------------------
    def write_struct_begin(self) -> None:
        """Mark the start of a struct's fields."""
        pass

    def write_struct_end(self) -> None:
        """Mark the end of a struct's fields."""
        pass

    def write_field(self, fid: int, ttype: TType) -> None:
        """Write a field header (id + wire type)."""
        raise NotImplementedError

    def write_field_stop(self) -> None:
        """Write the end-of-struct marker."""
        raise NotImplementedError

    # -- primitives (bool, byte and double are encoded alike by both
    # protocols, so they are written here) ---------------------------------
    def write_bool(self, value: bool) -> None:
        """Write a boolean value."""
        self._write(b"\x01" if value else b"\x00")

    def write_byte(self, value: int) -> None:
        """Write a signed 8-bit integer."""
        self._write(_I8.pack(value))

    def write_i16(self, value: int) -> None:
        """Write a signed 16-bit integer."""
        raise NotImplementedError

    def write_i32(self, value: int) -> None:
        """Write a signed 32-bit integer."""
        raise NotImplementedError

    def write_i64(self, value: int) -> None:
        """Write a signed 64-bit integer."""
        raise NotImplementedError

    def write_double(self, value: float) -> None:
        """Write a 64-bit IEEE-754 float."""
        self._write(_DOUBLE.pack(value))

    def write_string(self, value) -> None:
        """Write a length-prefixed string (or bytes)."""
        raise NotImplementedError

    def write_collection_begin(self, ttype: TType, size: int) -> None:
        """Write a list/set header (element type + size)."""
        raise NotImplementedError

    def write_map_begin(self, ktype: TType, vtype: TType, size: int) -> None:
        """Write a map header (key type, value type, size)."""
        raise NotImplementedError


#: Scalar wire type -> ``write(writer, value)``.
SCALAR_WRITERS = {
    TType.BOOL: lambda writer, value: writer.write_bool(value),
    TType.BYTE: lambda writer, value: writer.write_byte(value),
    TType.I16: lambda writer, value: writer.write_i16(value),
    TType.I32: lambda writer, value: writer.write_i32(value),
    TType.I64: lambda writer, value: writer.write_i64(value),
    TType.DOUBLE: lambda writer, value: writer.write_double(float(value)),
    TType.STRING: lambda writer, value: writer.write_string(value),
}


Read = Callable[[bytes, int], Tuple[Any, int]]


class Wire(NamedTuple):
    """One protocol's stateless reads, composed by struct decoders and
    wrapped by :class:`ProtocolReader`: ``field(data, pos, last fid) ->
    (fid, wire type, pos)``, a ``Read`` (``(data, pos) -> (value, pos)``)
    per scalar type, list/set and map headers, and ``skip``."""

    name: str
    field: Callable[[bytes, int, int], Tuple[int, TType, int]]
    values: Dict[TType, Read]
    binary: Read
    collection: Callable[[bytes, int], Tuple[TType, int, int]]
    map: Callable[[bytes, int], Tuple[TType, TType, int, int]]
    skip: Callable[[bytes, int, TType], int]


def _wire(name, field, values, binary, collection, map_begin) -> Wire:
    def skip(data: bytes, pos: int, ttype: TType) -> int:
        if ttype is TType.STRING:  # any bytes: a skipped string is not decoded
            return binary(data, pos)[1]
        if ttype in values:
            return values[ttype](data, pos)[1]
        if ttype is TType.STRUCT:
            fid = 0
            while True:
                fid, ftype, pos = field(data, pos, fid)
                if ftype is TType.STOP:
                    return pos
                pos = skip(data, pos, ftype)
        if ttype in (TType.LIST, TType.SET):
            etype, size, pos = collection(data, pos)
            for __ in range(size):
                pos = skip(data, pos, etype)
            return pos
        if ttype is TType.MAP:
            ktype, vtype, size, pos = map_begin(data, pos)
            for __ in range(size):
                pos = skip(data, skip(data, pos, ktype), vtype)
            return pos
        raise ProtocolError(f"cannot skip type {ttype}")
    return Wire(name, field, values, binary, collection, map_begin, skip)


_TTYPES = {int(ttype): ttype for ttype in TType}


def _to_ttype(raw: int) -> TType:
    try:
        return _TTYPES[raw]
    except KeyError:
        raise ProtocolError(f"unknown wire type {raw}") from None


def read_bytes(data: bytes, pos: int, n: int) -> Tuple[bytes, int]:
    """``(the n bytes at pos, position after)``."""
    chunk = data[pos:pos + n]
    if len(chunk) != n:
        raise ProtocolError(f"truncated read: wanted {n}, got {len(chunk)}")
    return chunk, pos + n


def _unpack(layout: _struct.Struct, data: bytes, pos: int) -> tuple:
    try:
        return layout.unpack_from(data, pos), pos + layout.size
    except _struct.error:
        raise ProtocolError(f"truncated read: wanted {layout.size}, "
                            f"got {len(data) - pos}") from None


def _fixed(layout: _struct.Struct) -> Read:
    def read(data: bytes, pos: int) -> Tuple[Any, int]:
        (value,), pos = _unpack(layout, data, pos)
        return value, pos
    return read


def _read_bool(data: bytes, pos: int) -> Tuple[bool, int]:
    return _u8(data, pos) != 0, pos + 1


def _value_method(ttype: TType, doc: str) -> Callable[[Any], Any]:
    def read(self: "ProtocolReader") -> Any:
        value, self.pos = self.wire.values[ttype](self.data, self.pos)
        return value
    read.__doc__ = doc
    return read


class ProtocolReader(ByteCursor):
    """A :class:`ByteCursor` whose methods wrap a protocol's :class:`Wire`."""

    wire: Wire

    def __init__(self, data: bytes) -> None:
        super().__init__(data)
        self._last_fid = [0]  # per open struct: compact's field-id base

    def read_struct_begin(self) -> None:
        """Consume the start of a struct."""
        self._last_fid.append(0)

    def read_struct_end(self) -> None:
        """Consume the end of a struct."""
        self._last_fid.pop()

    def read_field(self) -> Tuple[int, TType]:
        """Return ``(fid, ttype)``; ttype == STOP signals end of struct."""
        fid, ttype, self.pos = self.wire.field(
            self.data, self.pos, self._last_fid[-1])
        self._last_fid[-1] = fid
        return fid, ttype

    read_bool = _value_method(TType.BOOL, "Read a boolean value.")
    read_byte = _value_method(TType.BYTE, "Read a signed 8-bit integer.")
    read_i16 = _value_method(TType.I16, "Read a signed 16-bit integer.")
    read_i32 = _value_method(TType.I32, "Read a signed 32-bit integer.")
    read_i64 = _value_method(TType.I64, "Read a signed 64-bit integer.")
    read_double = _value_method(TType.DOUBLE, "Read a 64-bit IEEE-754 float.")
    read_string = _value_method(TType.STRING, "Read a UTF-8 string.")

    def read_binary(self) -> bytes:
        """Read a length-prefixed byte string."""
        value, self.pos = self.wire.binary(self.data, self.pos)
        return value

    def skip(self, ttype: TType) -> None:
        """Consume and discard a value of type ``ttype``."""
        self.pos = self.wire.skip(self.data, self.pos, ttype)


# ---------------------------------------------------------------------------
# Binary protocol: fixed-width big-endian fields, like TBinaryProtocol.
# ---------------------------------------------------------------------------


class BinaryProtocolWriter(ProtocolWriter):
    """Fixed-width big-endian encoding (Thrift's TBinaryProtocol)."""

    def write_field(self, fid: int, ttype: TType) -> None:
        self._write(_FIELD.pack(ttype, fid))

    def write_field_stop(self) -> None:
        self._write(b"\x00")

    def write_i16(self, value: int) -> None:
        self._write(_I16.pack(value))

    def write_i32(self, value: int) -> None:
        self._write(_I32.pack(value))

    def write_i64(self, value: int) -> None:
        self._write(_I64.pack(value))

    def write_string(self, value) -> None:
        data = value.encode("utf-8") if isinstance(value, str) else value
        self._write(_I32.pack(len(data)) + data)

    def write_collection_begin(self, ttype: TType, size: int) -> None:
        self._write(_COLLECTION.pack(ttype, size))

    def write_map_begin(self, ktype: TType, vtype: TType, size: int) -> None:
        self._write(_MAP.pack(ktype, vtype, size))


_binary_i16, _binary_i32 = _fixed(_I16), _fixed(_I32)


def _binary_field(data: bytes, pos: int, last: int) -> tuple:
    ttype = _to_ttype(_u8(data, pos))
    if ttype is TType.STOP:
        return 0, ttype, pos + 1
    fid, pos = _binary_i16(data, pos + 1)
    return fid, ttype, pos


def _binary_binary(data: bytes, pos: int) -> Tuple[bytes, int]:
    n, pos = _binary_i32(data, pos)
    if n < 0:
        raise ProtocolError(f"negative string length {n}")
    return read_bytes(data, pos, n)


def _binary_string(data: bytes, pos: int) -> Tuple[str, int]:
    chunk, pos = _binary_binary(data, pos)
    try:
        return str(chunk, "utf-8"), pos
    except UnicodeDecodeError as exc:
        raise ProtocolError(_BAD_UTF8) from exc


def _binary_header(layout: _struct.Struct, kind: str) -> Callable:
    def read(data: bytes, pos: int) -> tuple:
        (*ttypes, size), pos = _unpack(layout, data, pos)
        if size < 0:
            raise ProtocolError(f"negative {kind} size {size}")
        return (*map(_to_ttype, ttypes), size, pos)
    return read


BINARY = _wire("binary", _binary_field, {
    TType.BOOL: _read_bool, TType.BYTE: _fixed(_I8), TType.I16: _binary_i16,
    TType.I32: _binary_i32, TType.I64: _fixed(_I64),
    TType.DOUBLE: _fixed(_DOUBLE), TType.STRING: _binary_string,
}, _binary_binary, _binary_header(_COLLECTION, "collection"),
    _binary_header(_MAP, "map"))


class BinaryProtocolReader(ProtocolReader):
    """Reader matching :class:`BinaryProtocolWriter`."""

    wire = BINARY


# ---------------------------------------------------------------------------
# Compact protocol: varints, zigzag ints, delta-encoded field ids.
# ---------------------------------------------------------------------------


def write_varint(buf: io.BytesIO, value: int) -> None:
    """Encode an unsigned integer as a base-128 varint, in one write."""
    if 0 <= value < 0x80:
        buf.write(_BYTE[value])
        return
    if value < 0:
        raise ProtocolError("varint value must be non-negative")
    encoded = bytearray()
    while value > 0x7F:
        encoded.append(value & 0x7F | 0x80)
        value >>= 7
    encoded.append(value)
    buf.write(encoded)


def zigzag(value: int) -> int:
    """Map a signed int to unsigned so small magnitudes stay small."""
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    """Inverse of :func:`zigzag`."""
    return (value >> 1) ^ -(value & 1)


class CompactProtocolWriter(ProtocolWriter):
    """Varint/zigzag encoding with delta-compressed field ids.

    Field headers are one byte when the field-id delta from the previous
    field is small, which is the common case for densely-numbered structs
    like :class:`repro.core.event.ClientEvent`.
    """

    def __init__(self) -> None:
        super().__init__()
        self._last_fid = [0]

    def write_struct_begin(self) -> None:
        self._last_fid.append(0)

    def write_struct_end(self) -> None:
        self._last_fid.pop()

    def write_field(self, fid: int, ttype: TType) -> None:
        delta = fid - self._last_fid[-1]
        if 0 < delta <= 15:
            self._write(_BYTE[delta << 4 | ttype])
        else:
            self._write(_BYTE[ttype])
            write_varint(self._buf, zigzag(fid))
        self._last_fid[-1] = fid

    def write_field_stop(self) -> None:
        self._write(b"\x00")

    def write_i64(self, value: int) -> None:
        write_varint(self._buf, zigzag(value))

    write_i16 = write_i32 = write_i64

    def write_string(self, value) -> None:
        # ``write_varint(len)`` then the data, folded into one write for
        # the common one-byte length (the twin of ``read_binary``).
        data = value.encode("utf-8") if isinstance(value, str) else value
        if len(data) < 0x80:
            self._write(_BYTE[len(data)] + data)
        else:
            write_varint(self._buf, len(data))
            self._write(data)

    def write_collection_begin(self, ttype: TType, size: int) -> None:
        self._write(_BYTE[ttype])
        write_varint(self._buf, size)

    def write_map_begin(self, ktype: TType, vtype: TType, size: int) -> None:
        self._write(_BYTE[ktype] + _BYTE[vtype])
        write_varint(self._buf, size)


def _compact_field(data: bytes, pos: int, last: int) -> tuple:
    try:
        header = data[pos]
    except IndexError:
        raise ProtocolError(_TRUNCATED_BYTE) from None
    ttype = _to_ttype(header & 0x0F)
    if ttype is TType.STOP:  # whatever the delta nibble says
        return 0, ttype, pos + 1
    if header >> 4:
        return last + (header >> 4), ttype, pos + 1
    fid, pos = _compact_int(data, pos + 1)  # long form
    return fid, ttype, pos


def _compact_int(data: bytes, pos: int) -> Tuple[int, int]:
    value, pos = read_varint(data, pos)
    return (value >> 1) ^ -(value & 1), pos


def _compact_binary(data: bytes, pos: int) -> Tuple[bytes, int]:
    n, pos = read_varint(data, pos)
    return read_bytes(data, pos, n)


def _compact_string(data: bytes, pos: int) -> Tuple[str, int]:
    # ``_compact_binary`` and its decode in one call: strings dominate.
    try:
        n = data[pos]
    except IndexError:
        raise ProtocolError(_TRUNCATED_BYTE) from None
    if n < 0x80:
        pos += 1
    else:
        n, pos = read_varint(data, pos)
    end = pos + n
    if end > len(data):
        raise ProtocolError(f"truncated read: wanted {n}, "
                            f"got {len(data) - pos}")
    try:
        return str(data[pos:end], "utf-8"), end
    except UnicodeDecodeError as exc:
        raise ProtocolError(_BAD_UTF8) from exc


def _compact_collection(data: bytes, pos: int) -> Tuple[TType, int, int]:
    etype = _to_ttype(_u8(data, pos))
    size, pos = read_varint(data, pos + 1)
    return etype, size, pos


def _compact_map(data: bytes, pos: int) -> Tuple[TType, TType, int, int]:
    ktype, vtype = _u8(data, pos), _u8(data, pos + 1)
    size, pos = read_varint(data, pos + 2)
    return _to_ttype(ktype), _to_ttype(vtype), size, pos


COMPACT = _wire("compact", _compact_field, {
    TType.BOOL: _read_bool, TType.BYTE: _fixed(_I8), TType.I16: _compact_int,
    TType.I32: _compact_int, TType.I64: _compact_int,
    TType.DOUBLE: _fixed(_DOUBLE), TType.STRING: _compact_string,
}, _compact_binary, _compact_collection, _compact_map)


class CompactProtocolReader(ProtocolReader):
    """Reader matching :class:`CompactProtocolWriter`."""

    wire = COMPACT


PROTOCOLS = {
    "binary": (BinaryProtocolWriter, BinaryProtocolReader),
    "compact": (CompactProtocolWriter, CompactProtocolReader),
}


def writer_for(protocol: str) -> ProtocolWriter:
    """Instantiate a writer by protocol name (``binary`` or ``compact``)."""
    try:
        return PROTOCOLS[protocol][0]()
    except KeyError as exc:
        raise ProtocolError(f"unknown protocol {protocol!r}") from exc


def reader_for(protocol: str, data: bytes) -> ProtocolReader:
    """Instantiate a reader by protocol name over ``data``."""
    try:
        return PROTOCOLS[protocol][1](data)
    except KeyError as exc:
        raise ProtocolError(f"unknown protocol {protocol!r}") from exc
