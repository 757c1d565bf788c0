"""Protobuf-style wire format tests (§3's second serialization)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.thriftlike.codegen import record_reader, record_writer
from repro.thriftlike.proto import ProtoField, ProtoMessage
from repro.thriftlike.types import ProtocolError, ValidationError


class Point(ProtoMessage):
    FIELDS = (
        ProtoField(1, "x", "int64"),
        ProtoField(2, "y", "sint64"),
    )


class Everything(ProtoMessage):
    FIELDS = (
        ProtoField(1, "n", "int64"),
        ProtoField(2, "u", "uint64"),
        ProtoField(3, "s", "sint64"),
        ProtoField(4, "flag", "bool"),
        ProtoField(5, "real", "double"),
        ProtoField(6, "text", "string"),
        ProtoField(7, "blob", "bytes"),
        ProtoField(8, "child", "message", message_cls=Point),
        ProtoField(9, "tags", "string", repeated=True),
        ProtoField(10, "points", "message", repeated=True,
                   message_cls=Point),
    )


class TestFieldSpecs:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            ProtoField(1, "x", "float128")

    def test_reserved_numbers(self):
        with pytest.raises(ValidationError):
            ProtoField(19_500, "x", "int64")
        with pytest.raises(ValidationError):
            ProtoField(0, "x", "int64")

    def test_message_needs_class(self):
        with pytest.raises(ValidationError):
            ProtoField(1, "m", "message")

    def test_duplicate_numbers_detected(self):
        class Bad(ProtoMessage):
            FIELDS = (ProtoField(1, "a", "int64"),
                      ProtoField(1, "b", "int64"))

        with pytest.raises(ValidationError):
            Bad()


class TestRoundtrip:
    def test_full_roundtrip(self):
        original = Everything(
            n=-5, u=2 ** 63, s=-1000, flag=True, real=2.5,
            text="héllo", blob=b"\x00\xff", child=Point(x=1, y=-2),
            tags=["a", "b"], points=[Point(x=3), Point(y=4)])
        assert Everything.from_bytes(original.to_bytes()) == original

    def test_proto3_defaults_absent_on_wire(self):
        assert Everything().to_bytes() == b""
        assert Point(x=0, y=0).to_bytes() == b""

    def test_negative_int64_roundtrip(self):
        point = Point(x=-1)
        decoded = Point.from_bytes(point.to_bytes())
        assert decoded.x == -1

    def test_sint_encoding_smaller_for_negatives(self):
        as_int64 = Point(x=-1).to_bytes()       # 10-byte varint
        as_sint64 = Point(y=-1).to_bytes()      # zigzag: 1 byte
        assert len(as_sint64) < len(as_int64)

    def test_uint64_rejects_negative(self):
        with pytest.raises(ValidationError):
            Everything(u=-1).to_bytes()

    def test_int_field_rejects_non_int(self):
        with pytest.raises(ValidationError):
            Everything(n="7").to_bytes()


class TestForwardCompatibility:
    def test_unknown_fields_skipped(self):
        """A reader with fewer declared fields accepts newer messages."""

        class PointV2(ProtoMessage):
            FIELDS = Point.FIELDS + (
                ProtoField(3, "label", "string"),
                ProtoField(4, "weight", "double"),
            )

        new = PointV2(x=7, y=8, label="later", weight=1.5)
        old = Point.from_bytes(new.to_bytes())
        assert (old.x, old.y) == (7, 8)

    def test_retyped_field_skipped(self):
        class PointStr(ProtoMessage):
            FIELDS = (ProtoField(1, "x", "string"),)

        decoded = PointStr.from_bytes(Point(x=9).to_bytes())
        assert decoded.x == ""  # varint 'x' skipped, not misread

    def test_invalid_utf8_string_is_a_protocol_error(self):
        data = Everything(blob=b"\xff\xfe").to_bytes()
        assert Everything.from_bytes(data).blob == b"\xff\xfe"
        retagged = bytes([(6 << 3) | 2]) + data[1:]  # same bytes as "text"
        with pytest.raises(ProtocolError, match="invalid utf-8"):
            Everything.from_bytes(retagged)

    def test_truncated_message(self):
        data = Everything(text="hello").to_bytes()[:-2]
        with pytest.raises(ProtocolError):
            Everything.from_bytes(data)


class TestElephantBirdIntegration:
    def test_record_io_works_unchanged(self):
        """The format-agnostic point: Elephant-Bird readers/writers
        derived for Thrift structs work for proto messages too."""
        write = record_writer(Point)
        read = record_reader(Point)
        records = [Point(x=i, y=-i) for i in range(10)]
        assert list(read(write(records))) == records

    def test_file_format(self):
        from repro.thriftlike.codegen import ThriftFileFormat

        fmt = ThriftFileFormat(Point)
        records = [Point(x=1), Point(y=2)]
        assert fmt.decode(fmt.encode(records)) == records


class TestProperties:
    @given(x=st.integers(-(2 ** 63), 2 ** 63 - 1),
           y=st.integers(-(2 ** 63), 2 ** 63 - 1))
    @settings(max_examples=100, deadline=None)
    def test_point_roundtrip(self, x, y):
        point = Point(x=x, y=y)
        assert Point.from_bytes(point.to_bytes()) == point

    @given(data=st.binary(max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_fuzz_decode_never_hangs(self, data):
        try:
            Everything.from_bytes(data)
        except (ProtocolError, UnicodeDecodeError, ValidationError):
            pass
