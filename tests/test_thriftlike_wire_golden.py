"""The Thrift wire contract, pinned across the decoder rewrite.

Everything here goes through the public surface only (``to_bytes`` /
``from_bytes`` / ``to_dict``, ``iter_frames``, ``encode_block`` /
``decode_block``), so the same file runs against the
``BytesIO`` decoder of commit 7cfc997 and against the positional
cursor + per-class plans that replaced it. The digests and the flip
histogram were captured at 7cfc997, before any source edit, by running
this file as a script::

    PYTHONPATH=src python tests/test_thriftlike_wire_golden.py

Byte-flip outcomes over 100 payloads x 200 seeded single-byte flips:

==================  ==========  ==========
outcome             at 7cfc997  now
==================  ==========  ==========
decoded                  8,732       8,714
ProtocolError            2,557      11,136
ValidationError            150         150
UnicodeDecodeError       8,561           0
==================  ==========  ==========

Two movements, each from one deliberate change. Invalid UTF-8 in a
STRING field used to escape as ``UnicodeDecodeError`` and is now the
``ProtocolError`` that "malformed wire data" always promised. And 18
flips that decoded with bytes left after the struct's STOP (a flipped
field header whose type nibble became STOP, dropping the fields after
it) are now ``from_bytes``'s trailing-bytes ``ProtocolError``; every
other attempt's outcome is unchanged, so ``flip_survivors`` was
re-captured over the 18 fewer survivors.

The ``encoded.*`` digests pin the write side the same way: they were
captured at 2c79ac5, before the per-class write plans and the one-write
varint encoder replaced ``_write_value`` and the per-byte loop, and the
``reencoded.*`` digests above did not move.
"""

import dataclasses
import hashlib
import io
import pickle
import random
import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.event import ClientEvent
from repro.scribe.message import decode_envelope, encode_envelope
from repro.thriftlike.codegen import frame, iter_frames
from repro.thriftlike.protocol import write_varint
from repro.thriftlike.struct import ThriftStruct
from repro.thriftlike.types import (
    FieldSpec,
    ProtocolError,
    ThriftError,
    TType,
    ValidationError,
    elem,
)
from repro.warehouse.encodings import ENCODINGS, decode_block, encode_block
from repro.workload.generator import WorkloadGenerator

PROTOCOLS = ("binary", "compact")

GOLDEN = {
    "decoded.binary":
        "ad7fa1c2680089cd3fe191599130ff9e9436ac4a2b7be00ab346d799ca7b6520",
    "reencoded.binary":
        "9a762ce9211f3efc1a77b92db220a67dc1c977492048bb23445731c701bf0beb",
    "decoded.compact":
        "ad7fa1c2680089cd3fe191599130ff9e9436ac4a2b7be00ab346d799ca7b6520",
    "reencoded.compact":
        "9de7a80b6520886d25954195fc642665bbff8ef705068c8bff0d6f21e7310014",
    "flip_survivors":
        "0d3cd1b4e10f4b0b6c5cf8e9f85db7e88cff3dd455024ec9dd8ac5379445477a",
    "encoded.block.bool":
        "9948e6134674a34782497c7fef38b30f754d07c6b2dd70c8871f314676c244f1",
    "encoded.block.delta":
        "6969b7eccee88d53d34652c9b7c17d12d63e0e5ad2edba960a7b2784bb0f0ca4",
    "encoded.block.dict":
        "34b5dfd68132a0a15dda77a217e6ba69bbd896711297dee5efc99c8d891d4ab9",
    "encoded.block.plain":
        "3d84121e2ddecf8bc8594bea4fdcdbcc8707fe7ea51b30b3efbdffdc2f434886",
    "encoded.block.varint":
        "559136c6d003f1f3edff59809aada9fd7948ae5d14d5271b6c2a807007ea2ce6",
    "encoded.envelope":
        "948f8ef0e221d97cc3207d3d01c35e18ac3dfd2cdfcc9267eb0c5bdd8d509673",
    "encoded.frame":
        "8f4b5fc5e8868ef0ad5ceb4d8cdec2d1b774a49255efe57cbac1345474a740fa",
    "encoded.kitchen_sink.binary":
        "ba4d0ad007a313150c1eb40cdae00a3c218f36fa0ca80f22dfd44215b1e74e9e",
    "encoded.kitchen_sink.compact":
        "3c8787a0d7490eea81621abf673b353c1849942cec8450fc5639d48d1dec58aa",
}

FLIP_HISTOGRAM_AT_PARENT = {"decoded": 8732, "ProtocolError": 2557,
                            "ValidationError": 150,
                            "UnicodeDecodeError": 8561}

#: Flips that decoded at 7cfc997 with bytes left after the STOP.
TRAILING_BYTE_SURVIVORS = 18

#: The parent's outcomes with bad UTF-8 reported as malformed wire data
#: and trailing bytes rejected.
FLIP_HISTOGRAM = dict(FLIP_HISTOGRAM_AT_PARENT)
FLIP_HISTOGRAM["ProtocolError"] = (
    FLIP_HISTOGRAM.get("ProtocolError", 0)
    + FLIP_HISTOGRAM.pop("UnicodeDecodeError", 0) + TRAILING_BYTE_SURVIVORS)
FLIP_HISTOGRAM["decoded"] -= TRAILING_BYTE_SURVIVORS


def _day():
    return WorkloadGenerator(num_users=40, seed=2012).generate_day(
        2012, 3, 1).events


def _content(event) -> bytes:
    return repr(sorted(event.to_dict().items())).encode("utf-8")


def _day_digests(protocol):
    """(decoded-content digest, re-encoded-bytes digest) for the day."""
    decoded, reencoded = hashlib.sha256(), hashlib.sha256()
    for event in _day():
        payload = event.to_bytes(protocol)
        back = ClientEvent.from_bytes(payload, protocol)
        assert back == event
        again = back.to_bytes(protocol)
        assert again == payload  # encode . decode is the identity on bytes
        decoded.update(_content(back))
        reencoded.update(again)
    return decoded.hexdigest(), reencoded.hexdigest()


def _fuzz_payloads():
    return [event.to_bytes() for event in _day()[:100]]


def _flip_outcomes():
    """Outcome histogram of 100 x 200 seeded single-byte flips, plus a
    digest of what the payloads that still decode decode to."""
    rng = random.Random(2012)
    histogram = Counter()
    survivors = hashlib.sha256()
    for payload in _fuzz_payloads():
        for _ in range(200):
            at = rng.randrange(len(payload))
            mutated = bytearray(payload)
            mutated[at] ^= rng.randrange(1, 256)
            try:
                event = ClientEvent.from_bytes(bytes(mutated))
            except Exception as exc:  # the histogram names what escaped
                histogram[type(exc).__name__] += 1
            else:
                histogram["decoded"] += 1
                survivors.update(_content(event))
    return dict(histogram), survivors.hexdigest()


# -- (a) a seeded day decodes to the same content and the same bytes ------

@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_day_decodes_and_reencodes_to_the_golden_digests(protocol):
    decoded, reencoded = _day_digests(protocol)
    assert decoded == GOLDEN[f"decoded.{protocol}"]
    assert reencoded == GOLDEN[f"reencoded.{protocol}"]


# -- (b) corruption: truncation and byte flips ---------------------------

def test_every_truncation_is_a_protocol_error():
    for payload in _fuzz_payloads():
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                ClientEvent.from_bytes(payload[:cut])


def test_every_binary_truncation_is_a_protocol_error():
    for event in _day()[:20]:
        payload = event.to_bytes("binary")
        for cut in range(len(payload)):
            with pytest.raises(ProtocolError):
                ClientEvent.from_bytes(payload[:cut], "binary")


def test_byte_flip_outcomes_match_the_parent_histogram():
    histogram, survivors = _flip_outcomes()
    assert histogram == FLIP_HISTOGRAM
    assert survivors == GOLDEN["flip_survivors"]


# -- (c) generated schemas: round trip and evolution -----------------------

_SCALARS = {
    TType.BOOL: st.booleans(),
    TType.BYTE: st.integers(-(2 ** 7), 2 ** 7 - 1),
    TType.I16: st.integers(-(2 ** 15), 2 ** 15 - 1),
    TType.I32: st.integers(-(2 ** 31), 2 ** 31 - 1),
    TType.I64: st.integers(-(2 ** 63), 2 ** 63 - 1),
    TType.DOUBLE: st.floats(allow_nan=False),
    TType.STRING: st.text(max_size=8),
}
_HASHABLE = [t for t in _SCALARS if t is not TType.DOUBLE]


def _scalar(ttypes):
    """Strategy of ``(element spec, strategy of its values)`` pairs."""
    return st.sampled_from(list(ttypes)).map(
        lambda ttype: (elem(ttype), _SCALARS[ttype]))


def _struct_of(children):
    specs = tuple(dataclasses.replace(spec, fid=i + 1, name=f"f{i}")
                  for i, (spec, _) in enumerate(children))
    cls = type("Generated", (ThriftStruct,), {"FIELDS": specs})
    values = st.tuples(*(st.none() | value for _, value in children))
    return (elem(TType.STRUCT, struct_cls=cls),
            values.map(lambda vs: cls(**{s.name: v
                                         for s, v in zip(specs, vs)})))


def _containers(children):
    return st.one_of(
        children.map(lambda c: (elem(TType.LIST, value=c[0]),
                                st.lists(c[1], max_size=3))),
        _scalar(_HASHABLE).map(lambda c: (elem(TType.SET, value=c[0]),
                                          st.sets(c[1], max_size=3))),
        st.tuples(_scalar(_HASHABLE), children).map(
            lambda kv: (elem(TType.MAP, key=kv[0][0], value=kv[1][0]),
                        st.dictionaries(kv[0][1], kv[1][1], max_size=3))),
        st.lists(children, min_size=1, max_size=3).map(_struct_of),
    )


#: Any element shape: scalars, and lists / sets / maps / structs of them,
#: nested (list-of-map, map-of-list, struct-in-struct, ...).
_ELEMENTS = st.recursive(_scalar(_SCALARS), _containers, max_leaves=8)


@st.composite
def _schema_and_value(draw):
    """A generated struct class and one instance of it."""
    __, instances = _struct_of(
        draw(st.lists(_ELEMENTS, min_size=1, max_size=5)))
    return draw(instances)


@settings(max_examples=150, deadline=None)
@given(record=_schema_and_value())
def test_generated_schema_round_trips_under_both_protocols(record):
    for protocol in PROTOCOLS:
        payload = record.to_bytes(protocol)
        back = type(record).from_bytes(payload, protocol)
        assert back == record
        assert back.to_bytes(protocol) == payload


class _Inner(ThriftStruct):
    FIELDS = (FieldSpec(1, "n", TType.I32, required=True),
              FieldSpec(2, "tags", TType.SET, value=elem(TType.STRING)))


class _KitchenSink(ThriftStruct):
    """Every ``TType`` at least once, with the nestings named in the
    issue: nested struct, list-of-map, set, map-of-list."""

    FIELDS = (
        FieldSpec(1, "flag", TType.BOOL),
        FieldSpec(2, "tiny", TType.BYTE),
        FieldSpec(3, "small", TType.I16),
        FieldSpec(4, "normal", TType.I32),
        FieldSpec(5, "big", TType.I64),
        FieldSpec(6, "ratio", TType.DOUBLE),
        FieldSpec(7, "text", TType.STRING),
        FieldSpec(8, "inner", TType.STRUCT, struct_cls=_Inner),
        FieldSpec(9, "rows", TType.LIST, value=elem(
            TType.MAP, key=elem(TType.STRING), value=elem(TType.I64))),
        FieldSpec(10, "ids", TType.SET, value=elem(TType.I32)),
        FieldSpec(11, "groups", TType.MAP, key=elem(TType.I16), value=elem(
            TType.LIST, value=elem(TType.STRUCT, struct_cls=_Inner))),
        FieldSpec(300, "far", TType.STRING),  # long-form compact header
    )


def _kitchen_sink():
    return _KitchenSink(
        flag=True, tiny=-128, small=-2, normal=2 ** 31 - 1, big=-(2 ** 63),
        ratio=-0.5, text="café 日本", inner=_Inner(n=7, tags={"a", "b"}),
        rows=[{"x": 1, "y": -(2 ** 40)}, {}], ids={3, -3, 0},
        groups={1: [_Inner(n=1), _Inner(n=2, tags=set())], -1: []},
        far="away")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_kitchen_sink_round_trips(protocol):
    record = _kitchen_sink()
    payload = record.to_bytes(protocol)
    back = _KitchenSink.from_bytes(payload, protocol)
    assert back == record
    assert back.to_bytes(protocol) == payload
    for cut in range(len(payload)):
        with pytest.raises(ProtocolError):
            _KitchenSink.from_bytes(payload[:cut], protocol)


@settings(max_examples=100, deadline=None)
@given(record=_schema_and_value(), data=st.data())
def test_reader_missing_and_retyped_fields_skips_them(record, data):
    """The paper's "gradually evolve": a reader compiled against fewer
    fields, one of them since retyped, reads what it still knows."""
    specs = type(record).FIELDS
    kept = data.draw(st.lists(st.sampled_from(specs), unique=True,
                              min_size=1), label="kept")
    retyped = data.draw(st.sampled_from(kept), label="retyped")
    other = TType.I32 if retyped.ttype is TType.STRING else TType.STRING
    reader_cls = type("Reader", (ThriftStruct,), {"FIELDS": tuple(
        FieldSpec(spec.fid, spec.name, other) if spec is retyped else spec
        for spec in kept)})
    for protocol in PROTOCOLS:
        seen = reader_cls.from_bytes(record.to_bytes(protocol), protocol)
        for spec in kept:
            expected = (None if spec is retyped
                        else getattr(record, spec.name))
            assert getattr(seen, spec.name) == expected


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_retyped_container_elements_are_skipped_one_by_one(protocol):
    class Writer(ThriftStruct):
        FIELDS = (
            FieldSpec(1, "xs", TType.LIST, value=elem(TType.I32)),
            FieldSpec(2, "m", TType.MAP, key=elem(TType.STRING),
                      value=elem(TType.I32)),
            FieldSpec(3, "after", TType.STRING))

    class Reader(ThriftStruct):
        FIELDS = (
            FieldSpec(1, "xs", TType.LIST, value=elem(TType.STRING)),
            FieldSpec(2, "m", TType.MAP, key=elem(TType.STRING),
                      value=elem(TType.STRING)),
            FieldSpec(3, "after", TType.STRING))

    wire = Writer(xs=[1, 2, 3], m={"a": 1}, after="ok").to_bytes(protocol)
    seen = Reader.from_bytes(wire, protocol)
    assert (seen.xs, seen.m, seen.after) == ([], {}, "ok")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_subclass_reads_with_its_own_fields_not_its_parents(protocol):
    class Base(ThriftStruct):
        FIELDS = (FieldSpec(1, "a", TType.I32, required=True),)

    # Use the parent first, so anything it caches exists before the
    # subclass is even declared.
    assert Base.from_bytes(Base(a=1).to_bytes(protocol), protocol).a == 1

    class Child(Base):
        FIELDS = Base.FIELDS + (
            FieldSpec(2, "b", TType.STRING, required=True),)

    wire = Child(a=2, b="two").to_bytes(protocol)
    child = Child.from_bytes(wire, protocol)
    assert (child.a, child.b) == (2, "two")
    assert Base.from_bytes(wire, protocol).to_dict() == {"a": 2}
    with pytest.raises(ValidationError):
        Child.from_bytes(Base(a=3).to_bytes(protocol), protocol)


def test_compiled_plan_stays_out_of_pickles():
    """A record pickles as its class, by reference, and its field values:
    the compiled plan stays on the class."""
    event = ClientEvent.from_bytes(_fuzz_payloads()[0])  # plan compiled
    assert pickle.loads(pickle.dumps(ClientEvent)) is ClientEvent
    clone = pickle.loads(pickle.dumps(event))
    assert clone == event
    assert set(vars(clone)) == {spec.name for spec in ClientEvent.FIELDS}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_defaults_survive_decode(protocol):
    """Absent fields come back as ``cls()`` would set them, with callable
    defaults evaluated per instance."""
    class WithDefaults(ThriftStruct):
        FIELDS = (FieldSpec(1, "n", TType.I32, default=5),
                  FieldSpec(2, "m", TType.MAP, key=elem(TType.STRING),
                            value=elem(TType.STRING), default=dict),
                  FieldSpec(3, "s", TType.STRING))

    class Empty(ThriftStruct):
        FIELDS = ()

    wire = Empty().to_bytes(protocol)
    one = WithDefaults.from_bytes(wire, protocol)
    two = WithDefaults.from_bytes(wire, protocol)
    assert one.to_dict() == WithDefaults().to_dict() == {
        "n": 5, "m": {}, "s": None}
    one.m["k"] = "v"
    assert two.m == {}


# -- (d) the other users of the shared cursor fail with their own error ---

def test_iter_frames_truncations():
    payloads = [b"", b"a", b"x" * 200, b"tail"]
    data = b"".join(frame(p) for p in payloads)
    assert list(iter_frames(data)) == payloads
    for cut in range(len(data)):
        try:
            got = list(iter_frames(data[:cut]))
        except ProtocolError:
            continue
        # A cut on a frame boundary is a shorter, well-formed stream.
        assert got == payloads[:len(got)] and len(got) < len(payloads)


_BLOCKS = {
    "varint": [0, -1, 2 ** 63 - 1, None, -(2 ** 63), 300],
    "delta": [1_330_000_000_000, 1_330_000_000_250, None, 1_330_000_000_100],
    "plain": ["", "café", None, "x" * 130],
    "dict": ["us", "jp", "us", None, "us", "日本"],
    "bool": [True, False, None, True, True, False, False, True, True],
}


@pytest.mark.parametrize("encoding", sorted(ENCODINGS))
def test_decode_block_truncations(encoding):
    for values in (_BLOCKS[encoding],
                   [v for v in _BLOCKS[encoding] if v is not None]):
        block = encode_block(encoding, values)
        assert decode_block(encoding, block) == values
        for cut in range(len(block)):
            with pytest.raises(ValueError, match="truncated column block"):
                decode_block(encoding, block[:cut])


def test_corruption_never_escapes_as_a_bare_builtin_error():
    """Flips on the kitchen-sink schema (every type and nesting), both
    protocols: whatever happens is a ``ThriftError``, never an
    ``IndexError`` / ``struct.error`` / ``UnicodeDecodeError``."""
    rng = random.Random(15)
    for protocol in PROTOCOLS:
        payload = _kitchen_sink().to_bytes(protocol)
        for _ in range(3000):
            mutated = bytearray(payload)
            mutated[rng.randrange(len(payload))] ^= rng.randrange(1, 256)
            try:
                _KitchenSink.from_bytes(bytes(mutated), protocol)
            except ThriftError:
                pass
            except (IndexError, struct.error, UnicodeDecodeError) as exc:
                pytest.fail(f"{protocol}: {type(exc).__name__} escaped")


# -- (e) the write side: every encoder's bytes, captured at 2c79ac5 --------

_ENVELOPE_SEQS = (0, 127, 128, 2 ** 35)
_FRAME_LENGTHS = (0, 127, 128, 16384)


def _encoded():
    """name -> the bytes each encoder produces for a fixed input."""
    out = {f"encoded.kitchen_sink.{protocol}":
           _kitchen_sink().to_bytes(protocol) for protocol in PROTOCOLS}
    for encoding in sorted(ENCODINGS):
        values = _BLOCKS[encoding]
        out[f"encoded.block.{encoding}"] = (
            encode_block(encoding, values)
            + encode_block(encoding, [v for v in values if v is not None]))
    out["encoded.envelope"] = b"".join(
        encode_envelope("агрегатор-日本", seq, b"\x00msg\xff")
        for seq in _ENVELOPE_SEQS)
    out["encoded.frame"] = b"".join(
        frame(bytes([n % 251]) * n) for n in _FRAME_LENGTHS)
    return out


@pytest.mark.parametrize("name", sorted(_encoded()))
def test_encoded_bytes_match_the_golden_digests(name):
    assert hashlib.sha256(_encoded()[name]).hexdigest() == GOLDEN[name]


def test_envelope_and_frame_lengths_cross_the_varint_byte_boundaries():
    """What the digests above cover: one- and multi-byte varints."""
    for seq in _ENVELOPE_SEQS:
        wire = encode_envelope("агрегатор-日本", seq, b"m")
        assert decode_envelope(wire) == ("агрегатор-日本", seq, b"m")
    for n, prefix in zip(_FRAME_LENGTHS, (1, 1, 2, 3)):
        assert len(frame(b"x" * n)) == n + prefix


def test_varint_encoders_reject_negatives():
    with pytest.raises(ProtocolError):
        write_varint(io.BytesIO(), -1)
    with pytest.raises(ProtocolError):
        encode_envelope("host", -1, b"m")


if __name__ == "__main__":
    for protocol in PROTOCOLS:
        decoded, reencoded = _day_digests(protocol)
        print(f'    "decoded.{protocol}":\n        "{decoded}",')
        print(f'    "reencoded.{protocol}":\n        "{reencoded}",')
    histogram, survivors = _flip_outcomes()
    print(f'    "flip_survivors":\n        "{survivors}",')
    print("flip histogram =", dict(sorted(histogram.items())))
    for name, data in sorted(_encoded().items()):
        print(f'    "{name}":\n        "{hashlib.sha256(data).hexdigest()}",')
