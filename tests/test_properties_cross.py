"""Cross-cutting property tests: Pig vs reference semantics, MR
invariants, protocol robustness against garbage bytes."""

from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce.engine import run_job
from repro.mapreduce.inputformats import InMemoryInputFormat
from repro.mapreduce.job import MapReduceJob
from repro.pig.relation import PigServer
from repro.thriftlike.protocol import reader_for
from repro.thriftlike.struct import ThriftStruct
from repro.thriftlike.types import FieldSpec, ProtocolError, TType, elem

rows_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=5),     # key
              st.integers(min_value=-100, max_value=100)),  # value
    max_size=60)


class TestPigAgainstReference:
    """Every Pig plan must equal the obvious in-memory computation."""

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_group_by_sum(self, rows):
        pig = PigServer()
        out = (pig.from_rows(rows)
               .group_by(lambda r: r[0])
               .foreach(lambda g: (g["group"],
                                   sum(v for __, v in g["bag"])))
               .dump())
        reference = defaultdict(int)
        for key, value in rows:
            reference[key] += value
        assert dict(out) == dict(reference)

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_filter_foreach_pipeline(self, rows):
        pig = PigServer()
        out = (pig.from_rows(rows)
               .filter(lambda r: r[1] > 0)
               .foreach(lambda r: r[1] * 2)
               .dump())
        assert out == [v * 2 for __, v in rows if v > 0]

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_distinct(self, rows):
        pig = PigServer()
        out = pig.from_rows(rows).distinct().dump()
        assert sorted(out) == sorted(set(rows))

    @given(rows_strategy)
    @settings(max_examples=40, deadline=None)
    def test_order_by(self, rows):
        pig = PigServer()
        out = pig.from_rows(rows).order_by(lambda r: (r[1], r[0])).dump()
        assert out == sorted(rows, key=lambda r: (r[1], r[0]))

    @given(rows_strategy, rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_join(self, left, right):
        pig = PigServer()
        out = (pig.from_rows(left)
               .join(pig.from_rows(right),
                     lambda r: r[0], lambda r: r[0])
               .dump())
        reference = [(l, r) for l in left for r in right if l[0] == r[0]]
        got = [(row["left"], row["right"]) for row in out]
        assert sorted(got) == sorted(reference)

    @given(rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_group_all_count(self, rows):
        pig = PigServer()
        out = (pig.from_rows(rows).group_all()
               .foreach(lambda g: len(g["bag"])).dump())
        # real Pig semantics: GROUP ALL over an empty relation yields no
        # rows (COUNT of nothing is no output, not 0)
        assert out == ([len(rows)] if rows else [])

    @given(rows_strategy, st.integers(min_value=0, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_limit(self, rows, n):
        pig = PigServer()
        assert pig.from_rows(rows).limit(n).dump() == rows[:n]


class TestMapReduceInvariants:
    @given(st.lists(st.text(alphabet="ab ", max_size=15), max_size=20),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_reducer_count_does_not_change_answer(self, docs, reducers):
        def mapper(record, ctx):
            for word in record.split():
                ctx.emit(word, 1)

        def reducer(key, values, ctx):
            ctx.emit(key, sum(values))

        job = MapReduceJob(name="wc",
                           input_format=InMemoryInputFormat(docs, 3),
                           mapper=mapper, reducer=reducer,
                           num_reducers=reducers)
        expected = Counter(w for doc in docs for w in doc.split())
        assert dict(run_job(job).output) == dict(expected)

    @given(st.lists(st.text(alphabet="ab ", max_size=15), max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_combiner_equivalence(self, docs):
        """An algebraic combiner never changes the output."""

        def mapper(record, ctx):
            for word in record.split():
                ctx.emit(word, 1)

        def reduce_sum(key, values, ctx):
            ctx.emit(key, sum(values))

        plain = MapReduceJob(name="wc",
                             input_format=InMemoryInputFormat(docs, 2),
                             mapper=mapper, reducer=reduce_sum)
        combined = MapReduceJob(name="wc+c",
                                input_format=InMemoryInputFormat(docs, 2),
                                mapper=mapper, reducer=reduce_sum,
                                combiner=reduce_sum)
        assert dict(run_job(plain).output) == \
            dict(run_job(combined).output)

    @given(st.lists(st.integers(), min_size=1, max_size=200),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_splits_partition_records(self, records, per_split):
        fmt = InMemoryInputFormat(records, per_split)
        recovered = [r for s in fmt.splits() for r in fmt.read_split(s)]
        assert recovered == records


class _Fuzzable(ThriftStruct):
    FIELDS = (
        FieldSpec(1, "n", TType.I64),
        FieldSpec(2, "s", TType.STRING),
        FieldSpec(3, "xs", TType.LIST, value=elem(TType.I32)),
        FieldSpec(4, "m", TType.MAP, key=elem(TType.STRING),
                  value=elem(TType.I64)),
    )


class TestProtocolRobustness:
    """Garbage bytes must raise ProtocolError (or cleanly decode), never
    hang, loop, or raise unrelated exceptions."""

    @pytest.mark.parametrize("protocol", ["binary", "compact"])
    @given(data=st.binary(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_fuzz_struct_decode(self, protocol, data):
        try:
            _Fuzzable.from_bytes(data, protocol)
        except (ProtocolError, UnicodeDecodeError, MemoryError,
                OverflowError):
            pass
        except Exception as exc:  # noqa: BLE001
            # struct validation errors are acceptable too
            from repro.thriftlike.types import ValidationError

            assert isinstance(exc, ValidationError), exc

    @pytest.mark.parametrize("protocol", ["binary", "compact"])
    @given(data=st.binary(max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_fuzz_skip(self, protocol, data):
        reader = reader_for(protocol, data)
        try:
            reader.skip(TType.STRUCT)
        except (ProtocolError, UnicodeDecodeError, MemoryError,
                OverflowError):
            pass

    @pytest.mark.parametrize("protocol", ["binary", "compact"])
    @given(payload=st.binary(max_size=100), flip=st.integers(0, 99),
           bit=st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_bitflip_roundtrip_or_error(self, protocol, payload, flip, bit):
        """A single bit flip in a valid message either still decodes (the
        flip hit a value) or raises cleanly -- never corrupts silently
        into a crash elsewhere."""
        original = _Fuzzable(n=7, s="hello", xs=[1, 2], m={"k": 9})
        data = bytearray(original.to_bytes(protocol))
        index = flip % len(data)
        data[index] ^= 1 << bit
        try:
            decoded = _Fuzzable.from_bytes(bytes(data), protocol)
            # decoding succeeded; the object is a valid struct
            decoded.validate()
        except (ProtocolError, UnicodeDecodeError, MemoryError,
                OverflowError):
            pass
        except Exception as exc:  # noqa: BLE001
            from repro.thriftlike.types import ValidationError

            assert isinstance(exc, ValidationError), exc
