"""Struct tests: roundtrips, validation, defaults, schema evolution, and
the compiled decoder's paths and calls."""

import pytest
from hypothesis import given, strategies as st

from repro.core.event import ClientEvent
from repro.thriftlike import types
from repro.thriftlike.protocol import (
    BinaryProtocolReader,
    ByteCursor,
    CompactProtocolReader,
    ProtocolReader,
    reader_for,
    writer_for,
)
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


def _everything():
    return Everything(
        flag=False, small=-7, medium=300, normal=-123456, big=10 ** 15,
        real=-3.25, text="héllo", nested=Inner(value=42),
        items=["a", ""], tags={1, -2}, mapping={"x": 1})


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestDecoderPaths:
    """``read(reader)`` and ``from_bytes`` run one compiled decoder;
    ``read`` may stop mid-buffer, ``from_bytes`` takes exactly one
    struct."""

    @pytest.mark.parametrize("prefix,suffix", [
        (b"", b""),                        # the payload alone
        (b"", b"\x00trailing"),            # trailing bytes are not read
        (b"\x07\x07\x07", b"\xff\xff"),    # a struct read mid-buffer
    ])
    def test_read_and_from_bytes_agree(self, protocol, prefix, suffix):
        payload = _everything().to_bytes(protocol)
        reader = reader_for(protocol, prefix + payload + suffix)
        reader.pos = len(prefix)
        read = Everything.read(reader)
        assert read == Everything.from_bytes(payload, protocol)
        assert read == _everything()
        assert reader.pos == len(prefix) + len(payload)
        if suffix:
            with pytest.raises(types.ProtocolError,
                               match=f"^{len(suffix)} byte"):
                Everything.from_bytes(payload + suffix, protocol)

    def test_nested_struct_read_leaves_the_reader_after_it(self, protocol):
        writer = writer_for(protocol)
        Inner(value=5).write(writer)
        writer.write_i32(99)
        reader = reader_for(protocol, writer.getvalue())
        assert Inner.read(reader) == Inner(value=5)
        assert reader.read_i32() == 99

    def test_clean_decode_calls_no_reader_method_or_validation(
            self, protocol, monkeypatch):
        calls = []

        def counting(owner, name, method):
            def wrapper(*args, **kwargs):
                calls.append(f"{owner.__name__}.{name}")
                return method(*args, **kwargs)
            return wrapper

        for owner in (ByteCursor, ProtocolReader, BinaryProtocolReader,
                      CompactProtocolReader):
            for name, method in list(vars(owner).items()):
                if callable(method) and not name.startswith("__"):
                    monkeypatch.setattr(owner, name,
                                        counting(owner, name, method))
        monkeypatch.setattr(ThriftStruct, "validate",
                            counting(ThriftStruct, "validate",
                                     ThriftStruct.validate))
        monkeypatch.setattr(types, "check_value",
                            counting(types, "check_value",
                                     types.check_value))
        event = ClientEvent.make(
            "web:home:timeline:stream:tweet:click", user_id=2 ** 40,
            session_id="s", ip="10.0.0.1", timestamp=1_330_000_000_000,
            details={f"k{i}": "v" for i in range(11)}, country="us",
            logged_in=True)
        payload = event.to_bytes(protocol)
        calls.clear()
        assert ClientEvent.from_bytes(payload, protocol) == event
        reader = reader_for(protocol, payload)
        calls.clear()
        assert ClientEvent.read(reader) == event
        assert calls == []


class TestPostDecodeChecks:
    """Decoding checks what it cannot guarantee, with validate's text."""

    def test_out_of_range_i32_is_rejected(self):
        writer = writer_for("compact")
        writer.write_field(1, TType.I32)
        writer.write_i32(2 ** 31)  # a compact varint holds any width
        writer.write_field_stop()
        with pytest.raises(ValidationError,
                           match=r"^value: 2147483648 out of range for I32$"):
            Inner.from_bytes(writer.getvalue())

    def test_out_of_range_element_is_rejected(self):
        writer = writer_for("compact")
        writer.write_field(10, TType.SET)
        writer.write_collection_begin(TType.I32, 1)
        writer.write_i32(-(2 ** 31) - 1)
        writer.write_field_stop()
        with pytest.raises(ValidationError,
                           match=r"^<elem>: -2147483649 out of range"):
            Everything.from_bytes(writer.getvalue())

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_missing_required_field_is_rejected(self, protocol):
        payload = Everything(text="no a").to_bytes(protocol)
        with pytest.raises(ValidationError, match=r"^V1\.a is required$"):
            V1.from_bytes(payload, protocol)


class TestStrictFraming:
    """``from_bytes`` takes exactly one struct: bytes after its STOP are
    a corrupt payload, not optional fields that happen to be absent."""

    def test_header_flipped_to_stop_is_rejected(self):
        event = ClientEvent.make("web:home:timeline:stream:tweet:click",
                                 user_id=7, session_id="s", ip="1.1.1.1",
                                 timestamp=1, details={"k": "v"},
                                 country="us", logged_in=True)
        payload = bytearray(event.to_bytes())
        # Without country and logged_in the payload ends at the STOP
        # that stands where country's header (delta 1, STRING) was.
        at = len(event.replace(country=None, logged_in=None).to_bytes()) - 1
        assert payload[at] == 0x1b
        payload[at] = 0x10  # same delta, type nibble STOP
        with pytest.raises(types.ProtocolError,
                           match=r"^6 byte\(s\) left after the end of "
                                 r"ClientEvent$"):
            ClientEvent.from_bytes(bytes(payload))
