"""Declarative Thrift-like structs with schema evolution.

A struct class declares a ``FIELDS`` tuple of :class:`FieldSpec`. Instances
carry only the declared attributes. Serialization writes set fields tagged
by field id; deserialization skips unknown field ids, so old readers accept
messages from newer writers (forward compatibility) and new readers fill
missing fields with defaults (backward compatibility) -- the property the
paper relies on for letting log messages "gradually evolve over time".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Tuple, Type, TypeVar

from repro.thriftlike.protocol import (
    SCALAR_WRITERS,
    ProtocolReader,
    ProtocolWriter,
    Read,
    Wire,
    reader_for,
    writer_for,
)
from repro.thriftlike.types import (
    INT_TYPES,
    FieldSpec,
    ProtocolError,
    TType,
    ValidationError,
    compile_checker,
)

T = TypeVar("T", bound="ThriftStruct")

ValueWriter = Callable[[ProtocolWriter, Any], None]


class _Plan(NamedTuple):
    """A class's checks and writes in declaration order, and decoders."""

    checks: Tuple[Tuple[int, str, bool, Callable[[Any], None]], ...]
    writes: Tuple[Tuple[str, int, TType, ValueWriter], ...]
    decoders: Dict[str, Read]


class ThriftStruct:
    """Base class for declarative structs.

    Subclasses set ``FIELDS: Tuple[FieldSpec, ...]``. Construction accepts
    keyword arguments by field name; missing optional fields take their
    declared default, missing required fields raise at validation time.
    """

    FIELDS: Tuple[FieldSpec, ...] = ()

    def __init__(self, **kwargs: Any) -> None:
        specs = self.field_map()
        unknown = set(kwargs) - set(specs)
        if unknown:
            raise ValidationError(
                f"{type(self).__name__}: unknown fields {sorted(unknown)}"
            )
        for name, spec in specs.items():
            if name in kwargs:
                setattr(self, name, kwargs[name])
            else:
                default = spec.default
                if callable(default):
                    default = default()
                setattr(self, name, default)

    # -- introspection -------------------------------------------------
    @classmethod
    def field_map(cls) -> Dict[str, FieldSpec]:
        """name -> :class:`FieldSpec` for this struct class."""
        cached = cls.__dict__.get("_field_map")
        if cached is None:
            cached = {spec.name: spec for spec in cls.FIELDS}
            if len(cached) != len(cls.FIELDS):
                raise ValidationError(f"{cls.__name__}: duplicate field names")
            fids = {spec.fid for spec in cls.FIELDS}
            if len(fids) != len(cls.FIELDS):
                raise ValidationError(f"{cls.__name__}: duplicate field ids")
            cls._field_map = cached
        return cached

    @classmethod
    def _plan(cls) -> _Plan:
        """This class's compiled plan, built on first use and kept in the
        class ``__dict__`` (so a subclass compiles its own)."""
        plan = cls.__dict__.get("_compiled_plan")
        if plan is None:
            specs = cls.field_map().values()
            plan = cls._compiled_plan = _Plan(
                checks=tuple((slot, spec.name, spec.required,
                              compile_checker(spec))
                             for slot, spec in enumerate(specs)),
                writes=tuple((spec.name, spec.fid, spec.ttype,
                              _compile_writer(spec)) for spec in specs),
                decoders={})
        return plan

    @classmethod
    def _decoder(cls, protocol: str) -> Read:
        """This class's compiled decoder for the named protocol."""
        decoders = cls._plan().decoders
        if protocol not in decoders:
            wire = reader_for(protocol, b"").wire  # unknown: ProtocolError
            decoders[protocol] = _compile_decoder(cls, wire)
        return decoders[protocol]

    def validate(self) -> None:
        """Check required fields are set and values match declared types."""
        _check(type(self), [getattr(self, spec.name) for spec in self.FIELDS],
               self._plan().checks)

    # -- serialization ---------------------------------------------------
    def write(self, writer: ProtocolWriter) -> None:
        """Validate and write the struct's set fields to a protocol writer."""
        self.validate()
        writer.write_struct_begin()
        write_field = writer.write_field
        for name, fid, ttype, write_value in self._plan().writes:
            value = getattr(self, name)
            if value is not None:
                write_field(fid, ttype)
                write_value(writer, value)
        writer.write_field_stop()
        writer.write_struct_end()

    def to_bytes(self, protocol: str = "compact") -> bytes:
        """Serialize with the named protocol (default compact)."""
        writer = writer_for(protocol)
        self.write(writer)
        return writer.getvalue()

    @classmethod
    def read(cls: Type[T], reader: ProtocolReader) -> T:
        """Read a struct at the reader's position, skipping unknown fields."""
        obj, reader.pos = cls._decoder(reader.wire.name)(reader.data,
                                                         reader.pos)
        return obj

    @classmethod
    def from_bytes(cls: Type[T], data: bytes, protocol: str = "compact") -> T:
        """Deserialize with the named protocol (default compact).

        ``data`` is exactly one struct: bytes left after its STOP mean
        the payload is corrupt, not that the struct ended early.
        """
        obj, end = cls._decoder(protocol)(data, 0)
        if end != len(data):
            raise ProtocolError(
                f"{len(data) - end} byte(s) left after the end of "
                f"{cls.__name__}")
        return obj

    # -- conveniences ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict view (recursing into nested structs and containers)."""
        out: Dict[str, Any] = {}
        for spec in self.FIELDS:
            out[spec.name] = _to_plain(getattr(self, spec.name))
        return out

    def replace(self: T, **kwargs: Any) -> T:
        """Return a copy with the given fields replaced."""
        merged = {spec.name: getattr(self, spec.name) for spec in self.FIELDS}
        merged.update(kwargs)
        return type(self)(**merged)

    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, spec.name) == getattr(other, spec.name)
            for spec in self.FIELDS
        )

    def __hash__(self) -> int:
        return hash(
            (type(self),)
            + tuple(_hashable(getattr(self, spec.name)) for spec in self.FIELDS)
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{spec.name}={getattr(self, spec.name)!r}"
            for spec in self.FIELDS
            if getattr(self, spec.name) is not None
        )
        return f"{type(self).__name__}({parts})"


def _hashable(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _hashable(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_hashable(v) for v in value)
    return value


def _to_plain(value: Any) -> Any:
    if isinstance(value, ThriftStruct):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_to_plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return {_to_plain(v) for v in value}
    if isinstance(value, dict):
        return {k: _to_plain(v) for k, v in value.items()}
    return value


def _compile_decoder(cls: Type[T], wire: Wire) -> Read:
    """Compose ``decode(data, pos) -> (instance, pos)`` for one class and
    protocol. It checks only what decoding cannot guarantee, required
    fields and integer ranges; the rest of ``validate`` holds by design."""
    specs = cls.FIELDS
    read_field, skip, stop = wire.field, wire.skip, TType.STOP
    fields = {(spec.fid, spec.ttype): (slot, _compile_read(spec, wire))
              for slot, spec in enumerate(specs)}
    names = tuple(spec.name for spec in specs)
    # Values start as the defaults; a factory default is called per
    # instance, when its field is absent (a decoded value is never None).
    initial = [None if callable(spec.default) else spec.default
               for spec in specs]
    factories = tuple((slot, spec.default) for slot, spec in enumerate(specs)
                      if callable(spec.default))
    checks = tuple((slot, spec.name, spec.required,
                    compile_checker(spec) if _holds_int(spec) else None)
                   for slot, spec in enumerate(specs)
                   if spec.required or _holds_int(spec))

    def decode(data: bytes, pos: int) -> Tuple[T, int]:
        values = initial.copy()
        fid = 0
        while True:
            fid, ttype, pos = read_field(data, pos, fid)
            if ttype is stop:
                break
            field = fields.get((fid, ttype))
            if field is None:
                # Unknown or retyped field: skip for forward compatibility.
                pos = skip(data, pos, ttype)
            else:
                values[field[0]], pos = field[1](data, pos)
        for slot, factory in factories:
            if values[slot] is None:
                values[slot] = factory()
        _check(cls, values, checks)
        obj = cls.__new__(cls)
        # ``setattr`` in declaration order, not ``__dict__``: instances
        # keep the interpreter's shared-key, no-dict-object layout.
        for name, value in zip(names, values):
            setattr(obj, name, value)
        return obj, pos
    return decode


def _check(cls: type, values: list, checks: tuple) -> None:
    """Run ``(slot, name, required, checker or None)`` checks in order."""
    for slot, name, required, check in checks:
        value = values[slot]
        if value is None:
            if required:
                raise ValidationError(f"{cls.__name__}.{name} is required")
        elif check is not None:
            check(value)


def _holds_int(spec: FieldSpec) -> bool:
    """Whether ``spec``'s value may hold ints outside a nested struct."""
    return spec.ttype in INT_TYPES or any(
        _holds_int(child) for child in (spec.key, spec.value) if child)


def _compile_read(spec: FieldSpec, wire: Wire) -> Read:
    """Compose one declared field's ``Read``. A container whose wire element
    types are not the declared ones skips its elements and comes back empty."""
    ttype, skip = spec.ttype, wire.skip
    if ttype in wire.values:
        return wire.values[ttype]
    if ttype is TType.STRUCT:
        struct_cls, protocol = spec.struct_cls, wire.name

        def read_struct(data: bytes, pos: int) -> Tuple[Any, int]:
            # Resolved per call, so a struct may contain itself.
            return struct_cls._decoder(protocol)(data, pos)
        return read_struct
    read_item, item_type = _compile_read(spec.value, wire), spec.value.ttype
    if ttype is TType.MAP:
        read_key, key_type = _compile_read(spec.key, wire), spec.key.ttype
        map_begin = wire.map

        def read_map(data: bytes, pos: int) -> Tuple[dict, int]:
            ktype, vtype, size, pos = map_begin(data, pos)
            out: dict = {}
            if ktype is key_type and vtype is item_type:
                for __ in range(size):
                    key, pos = read_key(data, pos)
                    out[key], pos = read_item(data, pos)
            else:
                for __ in range(size):
                    pos = skip(data, skip(data, pos, ktype), vtype)
            return out, pos
        return read_map

    collection, as_set = wire.collection, ttype is TType.SET

    def read_collection(data: bytes, pos: int) -> Tuple[Any, int]:
        etype, size, pos = collection(data, pos)
        items = []
        if etype is item_type:
            for __ in range(size):
                item, pos = read_item(data, pos)
                items.append(item)
        else:
            for __ in range(size):
                pos = skip(data, pos, etype)
        return (set(items) if as_set else items), pos
    return read_collection


def _compile_writer(spec: FieldSpec) -> ValueWriter:
    """Compose ``write(writer, value)`` for one declared field: the twin
    of :func:`_compile_read`, protocol-agnostic because it only calls
    writer methods.

    A SET's members and a MAP's keys go out in ``repr`` order, so the
    bytes do not depend on insertion order or on the hash seed.
    """
    ttype = spec.ttype
    if ttype in SCALAR_WRITERS:
        return SCALAR_WRITERS[ttype]
    if ttype is TType.STRUCT:
        return lambda writer, value: value.write(writer)
    write_item = _compile_writer(spec.value)
    item_type = spec.value.ttype
    if ttype is TType.MAP:
        write_key = _compile_writer(spec.key)
        key_type = spec.key.ttype

        def write_map(writer: ProtocolWriter, value: dict) -> None:
            writer.write_map_begin(key_type, item_type, len(value))
            for key in sorted(value, key=repr):
                write_key(writer, key)
                write_item(writer, value[key])
        return write_map

    as_set = ttype is TType.SET

    def write_collection(writer: ProtocolWriter, value: Any) -> None:
        items = sorted(value, key=repr) if as_set else value
        writer.write_collection_begin(item_type, len(items))
        for item in items:
            write_item(writer, item)
    return write_collection
