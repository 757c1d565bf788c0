"""Type system for the Thrift-like serialization framework.

Mirrors Apache Thrift's wire-type model: every serialized field carries a
numeric field id and a type tag, which is what makes messages extensible --
a reader that does not know a field id can skip the value because the type
tag tells it how long the value is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional


class TType(enum.IntEnum):
    """Wire type tags, numerically compatible with Apache Thrift."""

    STOP = 0
    BOOL = 2
    BYTE = 3
    DOUBLE = 4
    I16 = 6
    I32 = 8
    I64 = 10
    STRING = 11
    STRUCT = 12
    MAP = 13
    SET = 14
    LIST = 15


INT_TYPES = frozenset({TType.BYTE, TType.I16, TType.I32, TType.I64})

_INT_BOUNDS = {
    TType.BYTE: (-(2 ** 7), 2 ** 7 - 1),
    TType.I16: (-(2 ** 15), 2 ** 15 - 1),
    TType.I32: (-(2 ** 31), 2 ** 31 - 1),
    TType.I64: (-(2 ** 63), 2 ** 63 - 1),
}


class ThriftError(Exception):
    """Base error for the serialization framework."""


class ProtocolError(ThriftError):
    """Raised on malformed wire data."""


class ValidationError(ThriftError):
    """Raised when a value does not conform to its declared field type."""


@dataclass(frozen=True)
class FieldSpec:
    """Declarative description of one struct field.

    ``key`` and ``value`` describe element types for containers: for a LIST
    or SET, ``value`` is the element spec; for a MAP, both are used. For a
    STRUCT field, ``struct_cls`` names the nested struct class.
    """

    fid: int
    name: str
    ttype: TType
    required: bool = False
    default: Any = None
    key: Optional["FieldSpec"] = None
    value: Optional["FieldSpec"] = None
    struct_cls: Any = None

    def __post_init__(self) -> None:
        if self.fid < 1 or self.fid > 32767:
            raise ValidationError(
                f"field id must be in [1, 32767], got {self.fid}"
            )
        if self.ttype in (TType.LIST, TType.SET) and self.value is None:
            raise ValidationError(
                f"container field {self.name!r} needs an element spec"
            )
        if self.ttype is TType.MAP and (self.key is None or self.value is None):
            raise ValidationError(
                f"map field {self.name!r} needs key and value specs"
            )
        if self.ttype is TType.STRUCT and self.struct_cls is None:
            raise ValidationError(
                f"struct field {self.name!r} needs struct_cls"
            )


def elem(ttype: TType, struct_cls: Any = None,
         key: Optional[FieldSpec] = None,
         value: Optional[FieldSpec] = None) -> FieldSpec:
    """Build an anonymous element spec for container members."""
    return FieldSpec(fid=1, name="<elem>", ttype=ttype, struct_cls=struct_cls,
                     key=key, value=value)


def check_value(spec: FieldSpec, value: Any) -> None:
    """Validate ``value`` against ``spec``; raise :class:`ValidationError`.

    The check is shallow-typed but recursive through containers, so an
    ill-typed element nested inside a map of lists is still rejected before
    it reaches the wire.
    """
    ttype = spec.ttype
    if ttype is TType.BOOL:
        if not isinstance(value, bool):
            raise ValidationError(f"{spec.name}: expected bool, got {type(value).__name__}")
    elif ttype in INT_TYPES:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{spec.name}: expected int, got {type(value).__name__}")
        lo, hi = _INT_BOUNDS[ttype]
        if not lo <= value <= hi:
            raise ValidationError(
                f"{spec.name}: {value} out of range for {ttype.name}"
            )
    elif ttype is TType.DOUBLE:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"{spec.name}: expected float, got {type(value).__name__}")
    elif ttype is TType.STRING:
        if not isinstance(value, (str, bytes)):
            raise ValidationError(f"{spec.name}: expected str/bytes, got {type(value).__name__}")
    elif ttype is TType.STRUCT:
        if not isinstance(value, spec.struct_cls):
            raise ValidationError(
                f"{spec.name}: expected {spec.struct_cls.__name__}, "
                f"got {type(value).__name__}"
            )
    elif ttype is TType.LIST:
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{spec.name}: expected list, got {type(value).__name__}")
        for item in value:
            check_value(spec.value, item)
    elif ttype is TType.SET:
        if not isinstance(value, (set, frozenset)):
            raise ValidationError(f"{spec.name}: expected set, got {type(value).__name__}")
        for item in value:
            check_value(spec.value, item)
    elif ttype is TType.MAP:
        if not isinstance(value, dict):
            raise ValidationError(f"{spec.name}: expected dict, got {type(value).__name__}")
        for k, v in value.items():
            check_value(spec.key, k)
            check_value(spec.value, v)
    else:  # pragma: no cover - exhaustive over TType
        raise ValidationError(f"{spec.name}: unsupported type {ttype}")


_EXACT_TYPE = {TType.BOOL: bool, TType.DOUBLE: float, TType.STRING: str,
               TType.LIST: list, TType.SET: set, TType.MAP: dict}


def compile_checker(spec: FieldSpec) -> Callable[[Any], None]:
    """Resolve ``spec``'s type dispatch once; return ``check(value)``.

    The checker accepts what :func:`check_value` accepts and raises what
    it raises. It passes the exact common case itself -- a plain ``int``
    in range, a plain ``str``, a ``dict`` / ``list`` / ``set`` whose
    members pass their own compiled checkers -- and hands everything else
    (subclasses, ``bytes`` for STRING, a ``tuple`` for LIST, every
    rejection) to :func:`check_value`, the one source of the rules and of
    the error messages.
    """
    ttype = spec.ttype
    if ttype in INT_TYPES:
        lo, hi = _INT_BOUNDS[ttype]

        def check(value: Any) -> None:
            if type(value) is not int or not lo <= value <= hi:
                check_value(spec, value)
        return check

    exact = spec.struct_cls if ttype is TType.STRUCT else _EXACT_TYPE[ttype]
    if ttype is TType.MAP:
        check_key = compile_checker(spec.key)
        check_item = compile_checker(spec.value)

        def check(value: Any) -> None:
            if type(value) is not dict:
                check_value(spec, value)
            else:
                for key, item in value.items():
                    check_key(key)
                    check_item(item)
    elif ttype in (TType.LIST, TType.SET):
        check_item = compile_checker(spec.value)

        def check(value: Any) -> None:
            if type(value) is not exact:
                check_value(spec, value)
            else:
                for item in value:
                    check_item(item)
    else:
        def check(value: Any) -> None:
            if type(value) is not exact:
                check_value(spec, value)
    return check
