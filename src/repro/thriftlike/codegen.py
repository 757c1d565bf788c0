"""Elephant-Bird-style record I/O derived from struct definitions.

The paper's Elephant Bird "automatically generates Hadoop record readers
and writers for arbitrary Protocol Buffer and Thrift messages". Here the
same role is played by :func:`record_writer` / :func:`record_reader`, which
derive framed readers/writers from any :class:`ThriftStruct` subclass, and
by :class:`ThriftFileFormat`, which the MapReduce input formats use.

Frames are length-prefixed (varint) so a reader can step through a byte
stream record-by-record without consulting the schema.
"""

from __future__ import annotations

import io
from typing import Callable, Iterable, Iterator, List, Type, TypeVar

from repro.thriftlike.protocol import read_bytes, read_varint, write_varint
from repro.thriftlike.struct import ThriftStruct

T = TypeVar("T", bound=ThriftStruct)


def frame(payload: bytes) -> bytes:
    """Length-prefix a record payload."""
    buf = io.BytesIO()
    write_varint(buf, len(payload))
    buf.write(payload)
    return buf.getvalue()


def iter_frames(data: bytes) -> Iterator[bytes]:
    """Yield record payloads from a concatenation of frames."""
    pos = 0
    while pos < len(data):
        n, pos = read_varint(data, pos)
        payload, pos = read_bytes(data, pos, n)
        yield payload


def record_writer(struct_cls: Type[T],
                  protocol: str = "compact") -> Callable[[Iterable[T]], bytes]:
    """Return a function serializing an iterable of structs to framed bytes."""

    def write(records: Iterable[T]) -> bytes:
        buf = io.BytesIO()
        for record in records:
            if not isinstance(record, struct_cls):
                raise TypeError(
                    f"expected {struct_cls.__name__}, got {type(record).__name__}"
                )
            buf.write(frame(record.to_bytes(protocol)))
        return buf.getvalue()

    return write


def record_reader(struct_cls: Type[T],
                  protocol: str = "compact") -> Callable[[bytes], Iterator[T]]:
    """Return a function deserializing framed bytes to structs."""

    def read(data: bytes) -> Iterator[T]:
        for payload in iter_frames(data):
            yield struct_cls.from_bytes(payload, protocol)

    return read


class ThriftFileFormat:
    """A file format bundling the derived reader/writer for one struct type.

    This is the unit the simulated Hadoop stack consumes: input formats call
    :meth:`decode` on a block's bytes, output channels call :meth:`encode`.
    """

    def __init__(self, struct_cls: Type[T], protocol: str = "compact") -> None:
        self.struct_cls = struct_cls
        self.protocol = protocol
        self._write = record_writer(struct_cls, protocol)
        self._read = record_reader(struct_cls, protocol)

    def encode(self, records: Iterable[T]) -> bytes:
        """Serialize records to framed bytes."""
        return self._write(records)

    def decode(self, data: bytes) -> List[T]:
        """Deserialize framed bytes to a record list."""
        return list(self._read(data))

    def iter_decode(self, data: bytes) -> Iterator[T]:
        """Lazily deserialize framed bytes to records."""
        return self._read(data)

    def __repr__(self) -> str:
        return (f"ThriftFileFormat({self.struct_cls.__name__}, "
                f"protocol={self.protocol!r})")
