"""Wire protocols: binary (fixed-width) and compact (varint/zigzag).

Both protocols share the same abstract reader/writer interface, so a struct
serialized with either can be skipped field-by-field without knowing its
schema -- the property that gives Thrift messages forward compatibility.
"""

from __future__ import annotations

import io
import struct as _struct
from operator import methodcaller
from typing import Tuple

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


class ByteCursor:
    """A read position over a bytes object.

    The one place in the codebase where bytes are taken off the front of
    a buffer: the protocol readers below are cursors, and record frames,
    column blocks, proto messages and Scribe envelopes are read through
    one. Every read past the end raises :class:`ProtocolError`.
    """

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def read_u8(self) -> int:
        """The unsigned byte at the cursor."""
        pos = self.pos
        try:
            byte = self.data[pos]
        except IndexError:
            raise ProtocolError("truncated read: wanted 1, got 0") from None
        self.pos = pos + 1
        return byte

    def read_exact(self, n: int) -> bytes:
        """The next ``n`` bytes."""
        pos = self.pos
        chunk = self.data[pos:pos + n]
        if len(chunk) != n:
            raise ProtocolError(
                f"truncated read: wanted {n}, got {len(chunk)}")
        self.pos = pos + n
        return chunk

    def read_varint(self) -> int:
        """The unsigned base-128 varint at the cursor."""
        data, pos = self.data, self.pos
        result = shift = 0
        try:
            while True:
                byte = data[pos]
                pos += 1
                result |= (byte & 0x7F) << shift
                if byte < 0x80:
                    self.pos = pos
                    return result
                shift += 7
                if shift > 70:
                    raise ProtocolError("varint too long")
        except IndexError:
            raise ProtocolError("truncated read: wanted 1, got 0") from None

    def unpack(self, layout: _struct.Struct) -> tuple:
        """Unpack one fixed-width ``layout`` at the cursor."""
        pos = self.pos
        try:
            values = layout.unpack_from(self.data, pos)
        except _struct.error:
            raise ProtocolError(
                f"truncated read: wanted {layout.size}, "
                f"got {len(self.data) - pos}") from None
        self.pos = pos + layout.size
        return values


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


#: Scalar wire type -> ``read(reader)``; protocol-agnostic, because each
#: only names the reader method to call.
SCALAR_READERS = {
    ttype: methodcaller(f"read_{ttype.name.lower()}")
    for ttype in (TType.BOOL, TType.BYTE, TType.I16, TType.I32, TType.I64,
                  TType.DOUBLE, TType.STRING)
}


#: Scalar wire type -> ``write(writer, value)``, the write-side twin.
SCALAR_WRITERS = {
    TType.BOOL: lambda writer, value: writer.write_bool(value),
    TType.BYTE: lambda writer, value: writer.write_byte(value),
    TType.I16: lambda writer, value: writer.write_i16(value),
    TType.I32: lambda writer, value: writer.write_i32(value),
    TType.I64: lambda writer, value: writer.write_i64(value),
    TType.DOUBLE: lambda writer, value: writer.write_double(float(value)),
    TType.STRING: lambda writer, value: writer.write_string(value),
}


class ProtocolReader(ByteCursor):
    """Abstract reader: a :class:`ByteCursor` that knows a wire protocol."""

    # -- framing -----------------------------------------------------------
    def read_struct_begin(self) -> None:
        """Consume the start of a struct, if any framing exists."""
        pass

    def read_struct_end(self) -> None:
        """Consume the end of a struct, if any framing exists."""
        pass

    def read_field(self) -> Tuple[int, TType]:
        """Return ``(fid, ttype)``; ttype == STOP signals end of struct."""
        raise NotImplementedError

    # -- primitives (bool, byte and double as the writer wrote them; a
    # string is the protocol's binary, decoded) ----------------------------
    def read_bool(self) -> bool:
        """Read a boolean value."""
        return self.read_u8() != 0

    def read_byte(self) -> int:
        """Read a signed 8-bit integer."""
        return self.unpack(_I8)[0]

    def read_i16(self) -> int:
        """Read a signed 16-bit integer."""
        raise NotImplementedError

    def read_i32(self) -> int:
        """Read a signed 32-bit integer."""
        raise NotImplementedError

    def read_i64(self) -> int:
        """Read a signed 64-bit integer."""
        raise NotImplementedError

    def read_double(self) -> float:
        """Read a 64-bit IEEE-754 float."""
        return self.unpack(_DOUBLE)[0]

    def read_string(self) -> str:
        """Read a length-prefixed UTF-8 string."""
        try:
            return str(self.read_binary(), "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("invalid utf-8 in string field") from exc

    def read_binary(self) -> bytes:
        """Read a length-prefixed byte string."""
        raise NotImplementedError

    def read_collection_begin(self) -> Tuple[TType, int]:
        """Read a list/set header; returns (element type, size)."""
        raise NotImplementedError

    def read_map_begin(self) -> Tuple[TType, TType, int]:
        """Read a map header; returns (key type, value type, size)."""
        raise NotImplementedError

    # -- schema-free skipping ----------------------------------------------
    def skip(self, ttype: TType) -> None:
        """Consume and discard a value of type ``ttype``."""
        if ttype is TType.STRING:
            self.read_binary()  # any bytes: a skipped string is not decoded
        elif ttype in SCALAR_READERS:
            SCALAR_READERS[ttype](self)
        elif ttype is TType.STRUCT:
            self.read_struct_begin()
            while True:
                __, ftype = self.read_field()
                if ftype is TType.STOP:
                    break
                self.skip(ftype)
            self.read_struct_end()
        elif ttype in (TType.LIST, TType.SET):
            etype, size = self.read_collection_begin()
            for __ in range(size):
                self.skip(etype)
        elif ttype is TType.MAP:
            ktype, vtype, size = self.read_map_begin()
            for __ in range(size):
                self.skip(ktype)
                self.skip(vtype)
        else:
            raise ProtocolError(f"cannot skip type {ttype}")


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


class BinaryProtocolReader(ProtocolReader):
    """Reader matching :class:`BinaryProtocolWriter`."""

    def read_field(self) -> Tuple[int, TType]:
        ttype = _to_ttype(self.read_u8())
        if ttype is TType.STOP:
            return 0, ttype
        return self.unpack(_I16)[0], ttype

    def read_i16(self) -> int:
        return self.unpack(_I16)[0]

    def read_i32(self) -> int:
        return self.unpack(_I32)[0]

    def read_i64(self) -> int:
        return self.unpack(_I64)[0]

    def read_binary(self) -> bytes:
        (n,) = self.unpack(_I32)
        if n < 0:
            raise ProtocolError(f"negative string length {n}")
        return self.read_exact(n)

    def read_collection_begin(self) -> Tuple[TType, int]:
        etype, size = self.unpack(_COLLECTION)
        if size < 0:
            raise ProtocolError(f"negative collection size {size}")
        return _to_ttype(etype), size

    def read_map_begin(self) -> Tuple[TType, TType, int]:
        ktype, vtype, size = self.unpack(_MAP)
        if size < 0:
            raise ProtocolError(f"negative map size {size}")
        return _to_ttype(ktype), _to_ttype(vtype), size


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


class CompactProtocolReader(ProtocolReader):
    """Reader matching :class:`CompactProtocolWriter`."""

    def __init__(self, data: bytes) -> None:
        super().__init__(data)
        self._last_fid = [0]

    def read_struct_begin(self) -> None:
        self._last_fid.append(0)

    def read_struct_end(self) -> None:
        self._last_fid.pop()

    def read_field(self) -> Tuple[int, TType]:
        header = self.read_u8()
        if header == 0:
            return 0, TType.STOP
        ttype = _to_ttype(header & 0x0F)
        delta = header >> 4
        if delta:
            fid = self._last_fid[-1] + delta
        else:
            fid = self.read_i64()
        self._last_fid[-1] = fid
        return fid, ttype

    def read_i64(self) -> int:
        return unzigzag(self.read_varint())

    read_i16 = read_i32 = read_i64

    def read_binary(self) -> bytes:
        # ``read_exact(read_varint())`` with both calls folded in for the
        # common one-byte length: strings are most of what a log event is.
        data, pos = self.data, self.pos
        if pos < len(data) and (n := data[pos]) < 0x80:
            pos += 1
        else:
            n, pos = self.read_varint(), self.pos
        chunk = data[pos:pos + n]
        if len(chunk) != n:
            raise ProtocolError(
                f"truncated read: wanted {n}, got {len(chunk)}")
        self.pos = pos + n
        return chunk

    def read_collection_begin(self) -> Tuple[TType, int]:
        ttype = _to_ttype(self.read_u8())
        return ttype, self.read_varint()

    def read_map_begin(self) -> Tuple[TType, TType, int]:
        ktype, vtype = self.read_u8(), self.read_u8()
        size = self.read_varint()
        return _to_ttype(ktype), _to_ttype(vtype), size


_TTYPES = {int(ttype): ttype for ttype in TType}


def _to_ttype(raw: int) -> TType:
    try:
        return _TTYPES[raw]
    except KeyError:
        raise ProtocolError(f"unknown wire type {raw}") from None


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
