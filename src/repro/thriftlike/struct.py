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
    SCALAR_READERS,
    SCALAR_WRITERS,
    ProtocolReader,
    ProtocolWriter,
    reader_for,
    writer_for,
)
from repro.thriftlike.types import (
    FieldSpec,
    TType,
    ValidationError,
    compile_checker,
)

T = TypeVar("T", bound="ThriftStruct")

ValueReader = Callable[[ProtocolReader], Any]
ValueWriter = Callable[[ProtocolWriter, Any], None]


class _Plan(NamedTuple):
    """What ``read``, ``validate`` and ``write`` need, resolved once per
    class: ``fid -> (name, wire type, value reader)``, and in declaration
    order the ``(name, default, default is a factory)``, ``(name,
    required, checker)`` and ``(name, fid, wire type, value writer)``
    tuples."""

    fields: Dict[int, Tuple[str, TType, ValueReader]]
    defaults: Tuple[Tuple[str, Any, bool], ...]
    checks: Tuple[Tuple[str, bool, Callable[[Any], None]], ...]
    writes: Tuple[Tuple[str, int, TType, ValueWriter], ...]


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
        """This class's compiled read/validate/write plan (built on first
        use and kept in the class ``__dict__``, so a subclass compiles its
        own)."""
        plan = cls.__dict__.get("_compiled_plan")
        if plan is None:
            specs = cls.field_map().values()
            plan = cls._compiled_plan = _Plan(
                fields={spec.fid: (spec.name, spec.ttype,
                                   _compile_reader(spec)) for spec in specs},
                defaults=tuple((spec.name, spec.default,
                                callable(spec.default)) for spec in specs),
                checks=tuple((spec.name, spec.required,
                              compile_checker(spec)) for spec in specs),
                writes=tuple((spec.name, spec.fid, spec.ttype,
                              _compile_writer(spec)) for spec in specs))
        return plan

    def validate(self) -> None:
        """Check required fields are set and values match declared types."""
        for name, required, check in self._plan().checks:
            value = getattr(self, name)
            if value is None:
                if required:
                    raise ValidationError(
                        f"{type(self).__name__}.{name} is required"
                    )
            else:
                check(value)

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
        """Read a struct from a protocol reader, skipping unknown fields."""
        plan = cls._plan()
        obj = cls.__new__(cls)
        # What ``cls()`` would set, without ``__init__``'s keyword checks.
        # ``setattr`` rather than filling ``__dict__``: it keeps instances
        # on the interpreter's shared-key, no-dict-object layout.
        for name, default, is_factory in plan.defaults:
            setattr(obj, name, default() if is_factory else default)
        fields = plan.fields
        reader.read_struct_begin()
        while True:
            fid, ttype = reader.read_field()
            if ttype is TType.STOP:
                break
            field = fields.get(fid)
            if field is None or field[1] is not ttype:
                # Unknown or retyped field: skip for forward compatibility.
                reader.skip(ttype)
            else:
                setattr(obj, field[0], field[2](reader))
        reader.read_struct_end()
        obj.validate()
        return obj

    @classmethod
    def from_bytes(cls: Type[T], data: bytes, protocol: str = "compact") -> T:
        """Deserialize with the named protocol (default compact)."""
        return cls.read(reader_for(protocol, data))

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


def _compile_reader(spec: FieldSpec) -> ValueReader:
    """Compose ``read(reader) -> value`` for one declared field.

    The type dispatch happens here, once per class; the result only calls
    reader *methods*, so binary and compact share it. Containers keep the
    evolution rule: when the element type on the wire is not the declared
    one, each element is skipped and the container comes back empty.
    """
    ttype = spec.ttype
    if ttype in SCALAR_READERS:
        return SCALAR_READERS[ttype]
    if ttype is TType.STRUCT:
        return spec.struct_cls.read
    read_item = _compile_reader(spec.value)
    if ttype is TType.MAP:
        read_key = _compile_reader(spec.key)
        key_type, item_type = spec.key.ttype, spec.value.ttype

        def read_map(reader: ProtocolReader) -> dict:
            ktype, vtype, size = reader.read_map_begin()
            if ktype is key_type and vtype is item_type:
                return {read_key(reader): read_item(reader)
                        for __ in range(size)}
            for __ in range(size):
                reader.skip(ktype)
                reader.skip(vtype)
            return {}
        return read_map

    item_type, as_set = spec.value.ttype, ttype is TType.SET

    def read_collection(reader: ProtocolReader) -> Any:
        etype, size = reader.read_collection_begin()
        if etype is item_type:
            items = [read_item(reader) for __ in range(size)]
        else:
            items = []
            for __ in range(size):
                reader.skip(etype)
        return set(items) if as_set else items
    return read_collection


def _compile_writer(spec: FieldSpec) -> ValueWriter:
    """Compose ``write(writer, value)`` for one declared field: the twin
    of :func:`_compile_reader`, protocol-agnostic for the same reason.

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
