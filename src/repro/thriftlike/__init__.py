"""Thrift-like serialization: types, wire protocols, structs, record I/O."""

from repro.thriftlike.types import (
    FieldSpec,
    ProtocolError,
    ThriftError,
    TType,
    ValidationError,
    elem,
)
from repro.thriftlike.protocol import (
    BinaryProtocolReader,
    BinaryProtocolWriter,
    CompactProtocolReader,
    CompactProtocolWriter,
    reader_for,
    writer_for,
)
from repro.thriftlike.struct import ThriftStruct
from repro.thriftlike.codegen import (
    ThriftFileFormat,
    frame,
    iter_frames,
    record_reader,
    record_writer,
)

__all__ = [
    "FieldSpec",
    "ProtocolError",
    "ThriftError",
    "TType",
    "ValidationError",
    "elem",
    "BinaryProtocolReader",
    "BinaryProtocolWriter",
    "CompactProtocolReader",
    "CompactProtocolWriter",
    "reader_for",
    "writer_for",
    "ThriftStruct",
    "ThriftFileFormat",
    "frame",
    "iter_frames",
    "record_reader",
    "record_writer",
]
