"""A Protocol-Buffers-style wire format (§3's other serialization).

"Protocol Buffers and Thrift are two language-neutral data interchange
formats that provide compact encoding of structured data ... Elephant
Bird ... automatically generates Hadoop record readers and writers for
arbitrary Protocol Buffer and Thrift messages."

This module implements the protobuf wire encoding -- tag = (field_number
<< 3 | wire_type), varint / 64-bit / length-delimited wire types, unknown
fields skipped -- with the same declarative-class ergonomics as
:class:`repro.thriftlike.struct.ThriftStruct`. Because messages expose
``to_bytes``/``from_bytes``, the Elephant-Bird record I/O in
:mod:`repro.thriftlike.codegen` works on them unchanged, which is the
point: the record-reader generation is format-agnostic.

Supported field kinds: ``int64``/``uint64``/``sint64`` (varint, with
zigzag for sint), ``bool``, ``double`` (64-bit), ``string``/``bytes``
(length-delimited), ``message`` (nested, length-delimited), and
``repeated`` variants of each (unpacked encoding).
"""

from __future__ import annotations

import io
import struct as _struct
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Type, TypeVar

from repro.thriftlike.protocol import ByteCursor, unzigzag, write_varint, zigzag
from repro.thriftlike.types import ProtocolError, ValidationError

# protobuf wire types
_WT_VARINT = 0
_WT_64BIT = 1
_WT_LENGTH = 2
_WT_32BIT = 5

_DOUBLE = _struct.Struct("<d")

_KIND_WIRETYPE = {
    "int64": _WT_VARINT,
    "uint64": _WT_VARINT,
    "sint64": _WT_VARINT,
    "bool": _WT_VARINT,
    "double": _WT_64BIT,
    "string": _WT_LENGTH,
    "bytes": _WT_LENGTH,
    "message": _WT_LENGTH,
}

M = TypeVar("M", bound="ProtoMessage")


@dataclass(frozen=True)
class ProtoField:
    """One declared field of a message."""

    number: int
    name: str
    kind: str
    repeated: bool = False
    message_cls: Any = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_WIRETYPE:
            raise ValidationError(f"unknown field kind {self.kind!r}")
        if not 1 <= self.number <= 536_870_911:
            raise ValidationError(
                f"field number out of range: {self.number}")
        if 19_000 <= self.number <= 19_999:
            raise ValidationError(
                f"field number {self.number} is reserved")
        if self.kind == "message" and self.message_cls is None:
            raise ValidationError(
                f"message field {self.name!r} needs message_cls")

    @property
    def wire_type(self) -> int:
        """The protobuf wire type for this field's kind."""
        return _KIND_WIRETYPE[self.kind]


class ProtoMessage:
    """Base class for declarative protobuf-style messages.

    Subclasses set ``FIELDS: Tuple[ProtoField, ...]``. All fields are
    optional (proto3 semantics): scalars default to a zero value, which
    is -- like proto3 -- not emitted on the wire; repeated fields default
    to an empty list.
    """

    FIELDS: Tuple[ProtoField, ...] = ()

    _DEFAULTS = {
        "int64": 0, "uint64": 0, "sint64": 0, "bool": False,
        "double": 0.0, "string": "", "bytes": b"", "message": None,
    }

    def __init__(self, **kwargs: Any) -> None:
        specs = self.field_map()
        unknown = set(kwargs) - set(specs)
        if unknown:
            raise ValidationError(
                f"{type(self).__name__}: unknown fields {sorted(unknown)}")
        for name, spec in specs.items():
            if name in kwargs:
                setattr(self, name, kwargs[name])
            elif spec.repeated:
                setattr(self, name, [])
            else:
                setattr(self, name, self._DEFAULTS[spec.kind])

    @classmethod
    def field_map(cls) -> Dict[str, ProtoField]:
        """name -> :class:`ProtoField` for this message class."""
        cached = cls.__dict__.get("_field_map")
        if cached is None:
            cached = {spec.name: spec for spec in cls.FIELDS}
            numbers = {spec.number for spec in cls.FIELDS}
            if len(numbers) != len(cls.FIELDS):
                raise ValidationError(
                    f"{cls.__name__}: duplicate field numbers")
            cls._field_map = cached
        return cached

    # -- encoding ----------------------------------------------------------
    def to_bytes(self, protocol: Optional[str] = None) -> bytes:
        """Serialize. ``protocol`` is accepted (and ignored) so the
        Elephant-Bird record writers can treat Thrift structs and proto
        messages uniformly."""
        buf = io.BytesIO()
        for spec in self.FIELDS:
            value = getattr(self, spec.name)
            if spec.repeated:
                for item in value:
                    _write_field(buf, spec, item)
            else:
                if value == self._DEFAULTS[spec.kind] or value is None:
                    continue  # proto3: defaults are absent on the wire
                _write_field(buf, spec, value)
        return buf.getvalue()

    @classmethod
    def from_bytes(cls: Type[M], data: bytes,
                   protocol: Optional[str] = None) -> M:
        """Decode a message, skipping unknown fields."""
        message = cls()
        cursor = ByteCursor(data)
        by_number = {spec.number: spec for spec in cls.FIELDS}
        while cursor.pos < len(data):
            tag = cursor.read_varint()
            number, wire_type = tag >> 3, tag & 0x7
            spec = by_number.get(number)
            if spec is None or spec.wire_type != wire_type:
                _skip(cursor, wire_type)
                continue
            value = _read_field(cursor, spec)
            if spec.repeated:
                getattr(message, spec.name).append(value)
            else:
                setattr(message, spec.name, value)
        return message

    # -- conveniences ------------------------------------------------------
    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, s.name) == getattr(other, s.name)
                   for s in self.FIELDS)

    def __hash__(self) -> int:  # pragma: no cover - rarely hashed
        return hash(self.to_bytes())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{s.name}={getattr(self, s.name)!r}" for s in self.FIELDS
            if getattr(self, s.name) not in (self._DEFAULTS[s.kind], []))
        return f"{type(self).__name__}({parts})"


def _write_field(buf: io.BytesIO, spec: ProtoField, value: Any) -> None:
    write_varint(buf, (spec.number << 3) | spec.wire_type)
    kind = spec.kind
    if kind in ("int64", "uint64"):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{spec.name}: expected int")
        if kind == "uint64" and value < 0:
            raise ValidationError(f"{spec.name}: uint64 must be >= 0")
        write_varint(buf, value & 0xFFFFFFFFFFFFFFFF)
    elif kind == "sint64":
        write_varint(buf, zigzag(value))
    elif kind == "bool":
        write_varint(buf, 1 if value else 0)
    elif kind == "double":
        buf.write(_DOUBLE.pack(value))
    elif kind == "string":
        data = value.encode("utf-8")
        write_varint(buf, len(data))
        buf.write(data)
    elif kind == "bytes":
        write_varint(buf, len(value))
        buf.write(value)
    elif kind == "message":
        payload = value.to_bytes()
        write_varint(buf, len(payload))
        buf.write(payload)


def _read_field(cursor: ByteCursor, spec: ProtoField) -> Any:
    kind = spec.kind
    if kind in ("int64", "uint64"):
        raw = cursor.read_varint()
        if kind == "int64" and raw >= 1 << 63:
            raw -= 1 << 64
        return raw
    if kind == "sint64":
        return unzigzag(cursor.read_varint())
    if kind == "bool":
        return cursor.read_varint() != 0
    if kind == "double":
        return cursor.unpack(_DOUBLE)[0]
    payload = cursor.read_exact(cursor.read_varint())
    if kind == "string":
        try:
            return payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError("invalid utf-8 in string field") from exc
    if kind == "bytes":
        return payload
    if kind == "message":
        return spec.message_cls.from_bytes(payload)
    raise ProtocolError(f"unreadable kind {kind}")  # pragma: no cover


def _skip(cursor: ByteCursor, wire_type: int) -> None:
    if wire_type == _WT_VARINT:
        cursor.read_varint()
    elif wire_type == _WT_64BIT:
        cursor.read_exact(8)
    elif wire_type == _WT_LENGTH:
        cursor.read_exact(cursor.read_varint())
    elif wire_type == _WT_32BIT:
        cursor.read_exact(4)
    else:
        raise ProtocolError(f"unknown wire type {wire_type}")
