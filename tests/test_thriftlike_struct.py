"""Struct tests: roundtrips, validation, defaults, schema evolution."""

import pytest
from hypothesis import given, strategies as st

from repro.thriftlike.struct import ThriftStruct
from repro.thriftlike.types import FieldSpec, TType, ValidationError, elem


class Inner(ThriftStruct):
    FIELDS = (
        FieldSpec(1, "value", TType.I32, required=True),
    )


class Everything(ThriftStruct):
    FIELDS = (
        FieldSpec(1, "flag", TType.BOOL),
        FieldSpec(2, "small", TType.BYTE),
        FieldSpec(3, "medium", TType.I16),
        FieldSpec(4, "normal", TType.I32),
        FieldSpec(5, "big", TType.I64),
        FieldSpec(6, "real", TType.DOUBLE),
        FieldSpec(7, "text", TType.STRING),
        FieldSpec(8, "nested", TType.STRUCT, struct_cls=Inner),
        FieldSpec(9, "items", TType.LIST, value=elem(TType.STRING)),
        FieldSpec(10, "tags", TType.SET, value=elem(TType.I32)),
        FieldSpec(11, "mapping", TType.MAP, key=elem(TType.STRING),
                  value=elem(TType.I64)),
    )


class V1(ThriftStruct):
    FIELDS = (
        FieldSpec(1, "a", TType.I32, required=True),
        FieldSpec(2, "b", TType.STRING),
    )


class V2(ThriftStruct):
    """V1 plus a new optional field (forward/backward compat pair)."""

    FIELDS = V1.FIELDS + (
        FieldSpec(3, "c", TType.LIST, value=elem(TType.I32)),
        FieldSpec(4, "d", TType.STRING),
    )


PROTOCOLS = ["binary", "compact"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestRoundtrip:
    def test_full_roundtrip(self, protocol):
        original = Everything(
            flag=True, small=7, medium=-300, normal=123456,
            big=-(10 ** 15), real=3.25, text="hello world",
            nested=Inner(value=42), items=["a", "b", ""],
            tags={1, 2, 3}, mapping={"x": 1, "y": -2},
        )
        decoded = Everything.from_bytes(original.to_bytes(protocol), protocol)
        assert decoded == original

    def test_unset_optionals_stay_none(self, protocol):
        original = Everything(normal=1)
        decoded = Everything.from_bytes(original.to_bytes(protocol), protocol)
        assert decoded.flag is None
        assert decoded.text is None
        assert decoded.normal == 1

    def test_empty_containers_roundtrip(self, protocol):
        original = Everything(items=[], tags=set(), mapping={})
        decoded = Everything.from_bytes(original.to_bytes(protocol), protocol)
        assert decoded.items == []
        assert decoded.tags == set()
        assert decoded.mapping == {}


class TestValidation:
    def test_required_field_missing(self):
        with pytest.raises(ValidationError):
            Inner().validate()

    def test_required_field_enforced_on_write(self):
        with pytest.raises(ValidationError):
            Inner().to_bytes()

    def test_unknown_kwarg_rejected(self):
        with pytest.raises(ValidationError):
            Inner(bogus=1)

    def test_wrong_type_rejected_on_write(self):
        with pytest.raises(ValidationError):
            Everything(normal="not an int").to_bytes()

    def test_duplicate_field_names_detected(self):
        class Bad(ThriftStruct):
            FIELDS = (FieldSpec(1, "x", TType.I32),
                      FieldSpec(2, "x", TType.I32))

        with pytest.raises(ValidationError):
            Bad()

    def test_duplicate_field_ids_detected(self):
        class Bad2(ThriftStruct):
            FIELDS = (FieldSpec(1, "x", TType.I32),
                      FieldSpec(1, "y", TType.I32))

        with pytest.raises(ValidationError):
            Bad2()

    def test_callable_default_is_evaluated(self):
        class WithDefault(ThriftStruct):
            FIELDS = (FieldSpec(1, "m", TType.MAP, key=elem(TType.STRING),
                                value=elem(TType.STRING), default=dict),)

        a, b = WithDefault(), WithDefault()
        a.m["k"] = "v"
        assert b.m == {}  # no shared mutable default


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestSchemaEvolution:
    def test_old_reader_skips_new_fields(self, protocol):
        """V2 writer -> V1 reader: unknown fields 3-4 are skipped."""
        new = V2(a=7, b="hi", c=[1, 2, 3], d="extra")
        old = V1.from_bytes(new.to_bytes(protocol), protocol)
        assert old.a == 7
        assert old.b == "hi"

    def test_new_reader_defaults_missing_fields(self, protocol):
        """V1 writer -> V2 reader: new fields default to None."""
        old = V1(a=9, b="legacy")
        new = V2.from_bytes(old.to_bytes(protocol), protocol)
        assert new.a == 9
        assert new.b == "legacy"
        assert new.c is None
        assert new.d is None

    def test_retyped_field_is_skipped_not_crashed(self, protocol):
        """A field whose wire type changed is treated as unknown."""

        class V1Retyped(ThriftStruct):
            FIELDS = (FieldSpec(1, "a", TType.STRING),
                      FieldSpec(2, "b", TType.STRING))

        data = V1(a=5, b="x").to_bytes(protocol)
        decoded = V1Retyped.from_bytes(data, protocol)
        assert decoded.a is None  # i32 'a' skipped, not misread
        assert decoded.b == "x"


class TestConveniences:
    def test_to_dict_recurses(self):
        s = Everything(nested=Inner(value=1), items=["a"])
        d = s.to_dict()
        assert d["nested"] == {"value": 1}
        assert d["items"] == ["a"]

    def test_replace(self):
        a = V1(a=1, b="x")
        b = a.replace(b="y")
        assert a.b == "x" and b.b == "y" and b.a == 1

    def test_equality_and_hash(self):
        assert V1(a=1, b="x") == V1(a=1, b="x")
        assert V1(a=1, b="x") != V1(a=2, b="x")
        assert hash(V1(a=1, b="x")) == hash(V1(a=1, b="x"))

    def test_eq_different_type(self):
        assert V1(a=1) != Inner(value=1)

    def test_repr_shows_set_fields_only(self):
        text = repr(V1(a=1))
        assert "a=1" in text and "b=" not in text

    def test_hash_with_containers(self):
        s = Everything(items=["a"], mapping={"k": 1}, tags={5})
        assert isinstance(hash(s), int)


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestPropertyRoundtrip:
    @given(a=st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
           b=st.one_of(st.none(), st.text(max_size=50)),
           c=st.one_of(st.none(),
                       st.lists(st.integers(-(2 ** 31), 2 ** 31 - 1),
                                max_size=10)),
           )
    def test_v2_roundtrip(self, protocol, a, b, c):
        original = V2(a=a, b=b, c=c)
        decoded = V2.from_bytes(original.to_bytes(protocol), protocol)
        assert decoded == original
