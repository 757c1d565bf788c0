"""Wire protocol tests: primitives, varints, field framing, skipping."""

import pytest
from hypothesis import given, strategies as st

from repro.thriftlike.protocol import (
    ByteCursor,
    BinaryProtocolWriter,
    CompactProtocolWriter,
    reader_for,
    unzigzag,
    write_varint,
    writer_for,
    zigzag,
)
from repro.thriftlike.types import ProtocolError, TType

PROTOCOLS = ["binary", "compact"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestPrimitives:
    def test_bool_roundtrip(self, protocol):
        writer = writer_for(protocol)
        writer.write_bool(True)
        writer.write_bool(False)
        reader = reader_for(protocol, writer.getvalue())
        assert reader.read_bool() is True
        assert reader.read_bool() is False

    @pytest.mark.parametrize("value", [0, 1, -1, 127, -128])
    def test_byte_roundtrip(self, protocol, value):
        writer = writer_for(protocol)
        writer.write_byte(value)
        assert reader_for(protocol, writer.getvalue()).read_byte() == value

    @pytest.mark.parametrize("value", [0, 42, -42, 32767, -32768])
    def test_i16_roundtrip(self, protocol, value):
        writer = writer_for(protocol)
        writer.write_i16(value)
        assert reader_for(protocol, writer.getvalue()).read_i16() == value

    @pytest.mark.parametrize("value", [0, 1, -1, 2 ** 31 - 1, -(2 ** 31)])
    def test_i32_roundtrip(self, protocol, value):
        writer = writer_for(protocol)
        writer.write_i32(value)
        assert reader_for(protocol, writer.getvalue()).read_i32() == value

    @pytest.mark.parametrize("value", [0, 2 ** 63 - 1, -(2 ** 63)])
    def test_i64_roundtrip(self, protocol, value):
        writer = writer_for(protocol)
        writer.write_i64(value)
        assert reader_for(protocol, writer.getvalue()).read_i64() == value

    @pytest.mark.parametrize("value", [0.0, 1.5, -2.75, 1e300])
    def test_double_roundtrip(self, protocol, value):
        writer = writer_for(protocol)
        writer.write_double(value)
        assert reader_for(protocol, writer.getvalue()).read_double() == value

    @pytest.mark.parametrize("value", ["", "hello", "日本語", "a" * 10000])
    def test_string_roundtrip(self, protocol, value):
        writer = writer_for(protocol)
        writer.write_string(value)
        assert reader_for(protocol, writer.getvalue()).read_string() == value

    def test_bytes_roundtrip(self, protocol):
        writer = writer_for(protocol)
        writer.write_string(b"\x00\xff\x01binary")
        reader = reader_for(protocol, writer.getvalue())
        assert reader.read_binary() == b"\x00\xff\x01binary"

    def test_invalid_utf8_string_is_a_protocol_error(self, protocol):
        writer = writer_for(protocol)
        writer.write_string(b"caf\xe9")  # latin-1, not UTF-8
        data = writer.getvalue()
        with pytest.raises(ProtocolError, match="invalid utf-8") as caught:
            reader_for(protocol, data).read_string()
        assert isinstance(caught.value.__cause__, UnicodeDecodeError)
        # Opaque bytes are not text: read_binary and skip take them as is.
        assert reader_for(protocol, data).read_binary() == b"caf\xe9"
        reader_for(protocol, data).skip(TType.STRING)

    def test_truncated_read_raises(self, protocol):
        writer = writer_for(protocol)
        writer.write_i64(123456789)
        data = writer.getvalue()[:-1]
        with pytest.raises(ProtocolError):
            reader_for(protocol, data).read_i64()
            # compact varint may succeed early; force another read
            reader = reader_for(protocol, data)
            reader.read_i64()
            reader.read_i64()


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestFieldFraming:
    def test_field_header_roundtrip(self, protocol):
        writer = writer_for(protocol)
        writer.write_struct_begin()
        writer.write_field(1, TType.I32)
        writer.write_i32(7)
        writer.write_field(2, TType.STRING)
        writer.write_string("x")
        writer.write_field_stop()
        writer.write_struct_end()

        reader = reader_for(protocol, writer.getvalue())
        reader.read_struct_begin()
        assert reader.read_field() == (1, TType.I32)
        assert reader.read_i32() == 7
        assert reader.read_field() == (2, TType.STRING)
        assert reader.read_string() == "x"
        assert reader.read_field()[1] is TType.STOP

    def test_large_field_id(self, protocol):
        writer = writer_for(protocol)
        writer.write_struct_begin()
        writer.write_field(3000, TType.BOOL)
        writer.write_bool(True)
        writer.write_field_stop()
        reader = reader_for(protocol, writer.getvalue())
        reader.read_struct_begin()
        assert reader.read_field() == (3000, TType.BOOL)

    def test_skip_each_type(self, protocol):
        writer = writer_for(protocol)
        cases = [
            (TType.BOOL, lambda w: w.write_bool(True)),
            (TType.BYTE, lambda w: w.write_byte(3)),
            (TType.I16, lambda w: w.write_i16(-9)),
            (TType.I32, lambda w: w.write_i32(1000)),
            (TType.I64, lambda w: w.write_i64(-10 ** 12)),
            (TType.DOUBLE, lambda w: w.write_double(2.5)),
            (TType.STRING, lambda w: w.write_string("skipme")),
        ]
        for __, write in cases:
            write(writer)
        writer.write_i32(99)  # sentinel after skipped values
        reader = reader_for(protocol, writer.getvalue())
        for ttype, __ in cases:
            reader.skip(ttype)
        assert reader.read_i32() == 99

    def test_skip_containers(self, protocol):
        writer = writer_for(protocol)
        writer.write_collection_begin(TType.I32, 3)
        for v in (1, 2, 3):
            writer.write_i32(v)
        writer.write_map_begin(TType.STRING, TType.I64, 1)
        writer.write_string("k")
        writer.write_i64(5)
        writer.write_i32(77)
        reader = reader_for(protocol, writer.getvalue())
        reader.skip(TType.LIST)
        reader.skip(TType.MAP)
        assert reader.read_i32() == 77


class TestCompactEncoding:
    def test_small_ints_are_one_byte(self):
        writer = CompactProtocolWriter()
        writer.write_i64(3)
        assert len(writer.getvalue()) == 1

    def test_compact_smaller_than_binary_for_typical_struct(self):
        binary = BinaryProtocolWriter()
        compact = CompactProtocolWriter()
        for writer in (binary, compact):
            writer.write_struct_begin()
            writer.write_field(1, TType.I64)
            writer.write_i64(123)
            writer.write_field(2, TType.I32)
            writer.write_i32(-5)
            writer.write_field_stop()
            writer.write_struct_end()
        assert len(compact.getvalue()) < len(binary.getvalue())

    def test_delta_field_encoding_single_byte(self):
        writer = CompactProtocolWriter()
        writer.write_struct_begin()
        writer.write_field(1, TType.BOOL)
        before = len(writer.getvalue())
        writer.write_field(2, TType.BOOL)
        assert len(writer.getvalue()) - before == 1  # delta header

    def test_unknown_protocol_name(self):
        with pytest.raises(ProtocolError):
            writer_for("xml")
        with pytest.raises(ProtocolError):
            reader_for("xml", b"")


class TestVarintZigzag:
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_varint_roundtrip(self, value):
        import io

        buf = io.BytesIO()
        write_varint(buf, value)
        data = buf.getvalue()
        cursor = ByteCursor(b"\x00" + data + b"\xff")
        cursor.pos = 1
        assert cursor.read_varint() == value
        assert cursor.pos == 1 + len(data)
        with pytest.raises(ProtocolError):
            ByteCursor(data[:-1]).read_varint()

    def test_varint_longer_than_ten_bytes_rejected(self):
        with pytest.raises(ProtocolError, match="too long"):
            ByteCursor(b"\xff" * 11 + b"\x00").read_varint()

    @given(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1))
    def test_zigzag_roundtrip(self, value):
        assert unzigzag(zigzag(value)) == value

    @given(st.integers(min_value=-100, max_value=100))
    def test_zigzag_small_magnitude_small_code(self, value):
        assert zigzag(value) <= 2 * abs(value) + 1

    def test_varint_rejects_negative(self):
        import io

        with pytest.raises(ProtocolError):
            write_varint(io.BytesIO(), -1)


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestPropertyRoundtrips:
    @given(value=st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1))
    def test_i64_property(self, protocol, value):
        writer = writer_for(protocol)
        writer.write_i64(value)
        assert reader_for(protocol, writer.getvalue()).read_i64() == value

    @given(value=st.text(max_size=200))
    def test_string_property(self, protocol, value):
        writer = writer_for(protocol)
        writer.write_string(value)
        assert reader_for(protocol, writer.getvalue()).read_string() == value
