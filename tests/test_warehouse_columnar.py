"""Columnar mega-table segments: encodings, zone maps, scan parity.

Property tests pin each block encoding's round-trip over its full value
domain (negative and 64-bit ints, non-BMP strings, nulls, empty blocks)
and the zone maps' no-false-negative contract; integration tests pin
the invariant the whole subsystem hangs on -- a columnar scan returns
byte-identical rows to the raw row scan, composed with Elephant Twin
split pruning, and degrading safely when segments are stale or
half-written.
"""

import json
import pickle

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.builder import write_day_events
from repro.core.event import CLIENT_EVENTS_CATEGORY, ClientEvent
from repro.core.names import EventPattern
from repro.faults.injector import (
    KIND_CRASH,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    set_default_injector,
)
from repro.hdfs.layout import (
    LogHour,
    data_files,
    hour_columnar_dir,
    is_columnar_path,
    millis_for_hour,
)
from repro.hdfs.namenode import HDFS
from repro.mapreduce.inputformats import (
    ColumnarBlockSplit,
    ColumnarInputFormat,
)
from repro.mapreduce.jobtracker import JobTracker
from repro.obs import names as obs_names
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.pig.loaders import ClientEventsLoader
from repro.pig.relation import PigServer
from repro.thriftlike.codegen import ThriftFileFormat
from repro.warehouse.encodings import (
    ENCODINGS,
    decode_block,
    dict_block_values,
    encode_block,
)
from repro.warehouse.predicates import (
    EqPredicate,
    EventPatternPredicate,
    InPredicate,
    RangePredicate,
)
from repro.warehouse.segment import (
    STATUS_FRESH,
    STATUS_MISSING,
    STATUS_STALE,
    ColumnarSegment,
    ProjectedEvent,
    build_day_segments,
    compact_hour,
    day_columnar_input,
    segment_status,
    write_hour_segment,
)
from repro.warehouse.zonemap import ZoneMap

CDATE = (2012, 3, 10)
RARE = "web:signup:step_confirm:form:button:submit"
COMMON = "web:home:timeline:stream:tweet:impression"
RARE_PATTERN = "*:signup:*:*:*:*"

_FMT = ThriftFileFormat(ClientEvent)

I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _event(name, user, ts, **kwargs):
    return ClientEvent.make(name, user_id=user, session_id=f"s{user}",
                            ip="10.0.0.1", timestamp=ts, **kwargs)


def _hour(h):
    return LogHour(CLIENT_EVENTS_CATEGORY, *CDATE, h)


def _mini_world(hours=(3, 4), events_per_hour=40, events_per_file=10,
                block_size=512):
    fs = HDFS(block_size=block_size)
    events = []
    for h in hours:
        base = millis_for_hour(_hour(h))
        for i in range(events_per_hour):
            name = RARE if i % 20 == 0 else COMMON
            events.append(_event(
                name, user=i % 5, ts=base + i * 500,
                details={"page": f"p{i % 3}", "emoji": "\U0001f426"},
                country="us" if i % 2 == 0 else None,
                logged_in=(i % 3 == 0) if i % 4 != 0 else None))
    write_day_events(fs, events, *CDATE, events_per_file=events_per_file)
    return fs


def _all_rows(fmt):
    return sorted(record.to_bytes() for split in fmt.splits()
                  for record in fmt.read_split(split))


def _matching_rows(fmt, pattern):
    matcher = EventPattern(pattern)
    return sorted(record.to_bytes() for split in fmt.splits()
                  for record in fmt.read_split(split)
                  if matcher.matches(record.event_name))


# ---------------------------------------------------------------------------
# Encoding round-trips.
# ---------------------------------------------------------------------------


class TestEncodingRoundTrips:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=st.lists(st.one_of(st.none(), I64), max_size=40))
    @example(values=[-(2**63), 2**63 - 1, None, 0])
    def test_varint(self, values):
        assert decode_block("varint",
                            encode_block("varint", values)) == values

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=st.lists(st.one_of(st.none(), I64), max_size=40))
    @example(values=[2**63 - 1, -(2**63), 2**63 - 1])  # extreme deltas
    @example(values=[None, None])
    def test_delta(self, values):
        assert decode_block("delta", encode_block("delta", values)) == values

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=st.lists(st.one_of(st.none(), st.text(max_size=12)),
                           max_size=30))
    @example(values=["\U0001f426:tweet", "", None, "\U0001d54b"])
    def test_plain(self, values):
        assert decode_block("plain", encode_block("plain", values)) == values

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=st.lists(
        st.one_of(st.none(),
                  st.sampled_from(["a", "bb", "\U0001f426", "", "x:y"])),
        max_size=40))
    def test_dict(self, values):
        data = encode_block("dict", values)
        assert decode_block("dict", data) == values
        table = dict_block_values(data)
        seen = []
        for value in values:
            if value is not None and value not in seen:
                seen.append(value)
        assert table == seen  # first-occurrence order, nulls excluded

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.one_of(st.none(), st.booleans()), max_size=40))
    def test_bool(self, values):
        assert decode_block("bool", encode_block("bool", values)) == values

    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_empty_block(self, encoding):
        assert decode_block(encoding, encode_block(encoding, [])) == []

    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_all_null_block(self, encoding):
        values = [None] * 9
        assert decode_block(encoding, encode_block(encoding, values)) \
            == values

    def test_truncated_block_is_loud(self):
        data = encode_block("varint", [1, 2, 3])
        with pytest.raises(ValueError, match="truncated"):
            decode_block("varint", data[:-1])


# ---------------------------------------------------------------------------
# Zone maps.
# ---------------------------------------------------------------------------


class TestZoneMaps:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=st.lists(st.one_of(st.none(), I64), min_size=1,
                           max_size=30))
    def test_no_false_negatives_ints(self, values):
        zone = ZoneMap.build(values)
        for value in values:
            if value is not None:
                assert zone.might_contain(value)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=st.lists(st.text(max_size=8), min_size=1, max_size=20))
    @example(values=["\U0001f426", "a"])
    def test_no_false_negatives_strings(self, values):
        zone = ZoneMap.build(values)
        for value in values:
            assert zone.might_contain(value)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=st.lists(I64, min_size=1, max_size=20), probe=I64)
    def test_overlaps_no_false_negatives(self, values, probe):
        zone = ZoneMap.build(values)
        for value in values:
            assert zone.overlaps(value, value)
            assert zone.overlaps(None, value)
            assert zone.overlaps(value, None)
        if all(probe < v for v in values):
            assert not zone.overlaps(None, probe)
        if all(probe > v for v in values):
            assert not zone.overlaps(probe, None)

    def test_empty_block_prunes_everything(self):
        zone = ZoneMap.build([None, None])
        assert zone.count == 0
        assert not zone.might_contain(7)
        assert not zone.overlaps(None, None)

    def test_range_pruning_outside_min_max(self):
        zone = ZoneMap.build([10, 20, 30])
        assert not zone.might_contain(9)
        assert not zone.might_contain(31)
        assert not zone.overlaps(31, 99)
        assert zone.overlaps(25, 99)

    def test_type_tagged_hashing(self):
        # 1 and "1" must not collide into guaranteed bloom hits.
        zone = ZoneMap.build(["1"])
        assert zone.might_contain("1")
        assert not zone.might_contain(1)  # range check: mixed types

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=st.lists(st.one_of(st.none(), I64), min_size=1,
                           max_size=20))
    def test_json_round_trip(self, values):
        zone = ZoneMap.build(values)
        loaded = ZoneMap.from_json(json.loads(json.dumps(zone.to_json())))
        assert loaded == zone


# ---------------------------------------------------------------------------
# Predicates.
# ---------------------------------------------------------------------------


class TestPredicates:
    def test_event_pattern_agrees_with_grammar(self):
        predicate = EventPatternPredicate(RARE_PATTERN)
        assert predicate.expand([RARE, COMMON]) == [RARE]
        # Expansion must agree with the EventNameFilter row filter's
        # grammar exactly -- same matcher, same verdicts.
        for pattern in (RARE_PATTERN, "web:*", "*:impression"):
            matcher = EventPattern(pattern)
            assert EventPatternPredicate(pattern).expand([RARE, COMMON]) \
                == [v for v in (RARE, COMMON) if matcher.matches(v)]

    def test_event_pattern_abstains_without_values(self):
        zone = ZoneMap.build([COMMON])
        assert EventPatternPredicate(RARE_PATTERN).block_may_match(
            zone, None)  # no value list: must not prune
        assert not EventPatternPredicate(RARE_PATTERN).block_may_match(
            zone, [COMMON])

    def test_pickle_round_trip(self):
        for predicate in (EqPredicate("user_id", 7),
                          InPredicate("country", ("us", "jp")),
                          RangePredicate("timestamp", 10, 20),
                          EventPatternPredicate(RARE_PATTERN)):
            clone = pickle.loads(pickle.dumps(predicate))
            zone = ZoneMap.build([COMMON, 7, "us", 15])
            assert clone.block_may_match(zone, [COMMON]) \
                == predicate.block_may_match(zone, [COMMON])

    def test_in_and_range(self):
        zone = ZoneMap.build([5, 6, 7])
        assert InPredicate("user_id", (7, 99)).block_may_match(zone)
        assert not InPredicate("user_id", (99, 100)).block_may_match(zone)
        assert RangePredicate("user_id", 6, None).block_may_match(zone)
        assert not RangePredicate("user_id", 8, None).block_may_match(zone)


# ---------------------------------------------------------------------------
# Segment write / read / freshness.
# ---------------------------------------------------------------------------


class TestSegmentRoundTrip:
    def test_full_projection_is_byte_identical(self):
        fs = _mini_world(hours=(3,))
        directory = _hour(3).path()
        segment = compact_hour(fs, directory, block_rows=7)
        assert segment is not None
        raw = []
        for path in data_files(fs, directory):
            raw.extend(_FMT.decode(fs.open_bytes(path)))
        rebuilt = []
        for block in range(segment.num_blocks):
            lo, hi = segment.block_range(block)
            rebuilt.extend(segment.materialize(block, lo, hi))
        assert [e.to_bytes() for e in rebuilt] == [e.to_bytes() for e in raw]

    def test_projected_rows_carry_only_projection(self):
        fs = _mini_world(hours=(3,))
        segment = compact_hour(fs, _hour(3).path(), block_rows=16)
        rows = segment.materialize(0, 0, 16,
                                   projection=("event_name", "user_id"))
        assert all(isinstance(r, ProjectedEvent) for r in rows)
        assert rows[0].event_name == RARE
        with pytest.raises(AttributeError):
            rows[0].ip  # noqa: B018 - unprojected column is loud

    def test_projected_event_pickles(self):
        row = ProjectedEvent()
        row.event_name = RARE
        row.user_id = 3
        clone = pickle.loads(pickle.dumps(row))
        assert clone == row
        with pytest.raises(AttributeError):
            clone.ip  # noqa: B018

    def test_late_file_turns_segment_stale(self):
        fs = _mini_world(hours=(3,))
        directory = _hour(3).path()
        compact_hour(fs, directory)
        assert segment_status(fs, directory) == STATUS_FRESH
        base = millis_for_hour(_hour(3))
        fs.create(f"{directory}/late-00000",
                  _FMT.encode([_event(RARE, user=9, ts=base)]), codec="zlib")
        assert segment_status(fs, directory) == STATUS_STALE
        segment = ColumnarSegment.load(fs, directory)
        assert not segment.covers(f"{directory}/late-00000")

    def test_incremental_day_build_skips_fresh(self):
        fs = _mini_world(hours=(3, 4))
        first = build_day_segments(fs, *CDATE)
        assert len(first.built) == 2 and first.rows_compacted == 80
        again = build_day_segments(fs, *CDATE)
        assert again.built == [] and len(again.skipped_fresh) == 2
        base = millis_for_hour(_hour(4))
        fs.create(f"{_hour(4).path()}/late-00000",
                  _FMT.encode([_event(RARE, user=9, ts=base)]), codec="zlib")
        rebuilt = build_day_segments(fs, *CDATE)
        assert rebuilt.built == [_hour(4).path()]

    def test_empty_hour_writes_nothing(self):
        fs = HDFS()
        assert write_hour_segment(fs, "/logs/x/2012/03/10/03", [], []) is None


class TestCrashSafety:
    SITES = ["pre_columns", "pre_manifest", "pre_commit", "pre_rename"]

    @pytest.mark.parametrize("site", SITES)
    def test_crash_leaves_no_committed_segment(self, site):
        fs = _mini_world(hours=(3,))
        directory = _hour(3).path()
        plan = FaultPlan()
        plan.add(f"warehouse.segment.{site}", KIND_CRASH, max_fires=1)
        set_default_injector(FaultInjector(plan))
        try:
            with pytest.raises(InjectedCrash):
                compact_hour(fs, directory)
        finally:
            set_default_injector(None)
        # Never a half-written consultable segment.
        assert ColumnarSegment.load(fs, directory) is None
        assert segment_status(fs, directory) == STATUS_MISSING
        # Re-running converges.
        assert compact_hour(fs, directory) is not None
        assert segment_status(fs, directory) == STATUS_FRESH

    def test_pre_commit_crash_keeps_old_segment(self):
        fs = _mini_world(hours=(3,))
        directory = _hour(3).path()
        first = compact_hour(fs, directory)
        plan = FaultPlan()
        plan.add("warehouse.segment.pre_commit", KIND_CRASH, max_fires=1)
        set_default_injector(FaultInjector(plan))
        try:
            with pytest.raises(InjectedCrash):
                compact_hour(fs, directory, block_rows=5)
        finally:
            set_default_injector(None)
        survivor = ColumnarSegment.load(fs, directory)
        assert survivor is not None
        assert survivor.block_rows == first.block_rows  # the old one


# ---------------------------------------------------------------------------
# Layout: columnar dirs are metadata, not rows (satellite 2).
# ---------------------------------------------------------------------------


class TestLayoutFiltering:
    def test_is_columnar_path(self):
        assert is_columnar_path("/a/03/_columnar/manifest.json")
        assert is_columnar_path("/a/03/_columnar.tmp/event_name.col")
        assert not is_columnar_path("/a/03/part-00000")

    def test_data_files_ignore_segments_mixed_hours(self):
        fs = _mini_world(hours=(3, 4))
        loader = ClientEventsLoader(fs, *CDATE)
        before = loader.paths()
        compact_hour(fs, _hour(3).path())  # hour 4 stays raw
        assert fs.glob_files(hour_columnar_dir(_hour(3).path()))
        assert ClientEventsLoader(fs, *CDATE).paths() == before
        for directory in (_hour(3).path(), _hour(4).path()):
            assert data_files(fs, directory) == [
                p for p in before if p.startswith(directory)]

    def test_half_written_tmp_is_invisible(self):
        fs = _mini_world(hours=(3,))
        directory = _hour(3).path()
        before = data_files(fs, directory)
        fs.create(f"{directory}/_columnar.tmp/event_name.col", b"junk")
        assert data_files(fs, directory) == before
        assert ColumnarSegment.load(fs, directory) is None


# ---------------------------------------------------------------------------
# Scan parity: columnar vs raw, with pruning.
# ---------------------------------------------------------------------------


class TestScanParity:
    def test_rows_identical_and_blocks_prunable(self):
        fs = _mini_world(hours=(3, 4), events_per_hour=60)
        loader = ClientEventsLoader(fs, *CDATE)
        raw = _all_rows(loader.input_format())
        build_day_segments(fs, *CDATE, block_rows=10)
        fmt = loader.columnar_input_format()
        assert fmt is not None
        assert _all_rows(fmt) == raw
        assert fmt.columnar_splits > 0 and fmt.raw_splits == 0

    def test_absent_value_prunes_every_block(self):
        fs = _mini_world(hours=(3,))
        build_day_segments(fs, *CDATE, block_rows=10)
        registry = MetricsRegistry()
        old = set_default_registry(registry)
        try:
            loader = ClientEventsLoader(fs, *CDATE)
            fmt = loader.columnar_input_format(
                predicates=[EqPredicate("user_id", 10**9)])
            splits = fmt.splits()
        finally:
            set_default_registry(old)
        assert splits == []
        assert fmt.blocks_pruned == 4 and fmt.pruned_bytes > 0
        assert registry.counter(
            obs_names.COLUMNAR_BLOCKS_PRUNED).value == 4

    def test_pattern_pruning_keeps_answers_identical(self):
        # Rare events sit in every other 10-row block, so zone maps can
        # prune half the blocks without losing a single matching row.
        fs = _mini_world(hours=(3, 4))
        build_day_segments(fs, *CDATE, block_rows=10)
        loader = ClientEventsLoader(fs, *CDATE)
        full = _matching_rows(loader.input_format(), RARE_PATTERN)
        fmt = loader.columnar_input_format(
            predicates=[EventPatternPredicate(RARE_PATTERN)])
        assert _matching_rows(fmt, RARE_PATTERN) == full
        assert fmt.blocks_pruned > 0

    def test_stale_hour_falls_back_to_raw_splits(self):
        fs = _mini_world(hours=(3, 4))
        build_day_segments(fs, *CDATE)
        base = millis_for_hour(_hour(4))
        fs.create(f"{_hour(4).path()}/late-00000",
                  _FMT.encode([_event(RARE, user=9, ts=base)]), codec="zlib")
        loader = ClientEventsLoader(fs, *CDATE)
        fmt = loader.columnar_input_format()
        rows = _all_rows(fmt)
        assert rows == _all_rows(loader.input_format())
        assert fmt.raw_splits > 0  # hour 4 scanned raw
        assert fmt.columnar_splits > 0  # hour 3 still vectorized

    def test_projection_reduces_decoded_bytes(self):
        fs = _mini_world(hours=(3, 4), events_per_hour=60)
        build_day_segments(fs, *CDATE, block_rows=10)
        loader = ClientEventsLoader(fs, *CDATE)

        def decoded_bytes(projection):
            registry = MetricsRegistry()
            old = set_default_registry(registry)
            try:
                fmt = loader.columnar_input_format(projection=projection)
                for split in fmt.splits():
                    fmt.read_split(split)
            finally:
                set_default_registry(old)
            return registry.total(obs_names.COLUMNAR_BYTES_DECODED)
        narrow = decoded_bytes(("event_name",))
        full = decoded_bytes(None)
        assert 0 < narrow < full


class TestElephantTwinComposition:
    def test_index_prunes_splits_then_zones_prune_blocks(self):
        from repro.elephanttwin.buildjob import build_day_indexes

        fs = _mini_world(hours=(3, 4), events_per_hour=60)
        loader = ClientEventsLoader(fs, *CDATE)
        full = _matching_rows(loader.input_format(), RARE_PATTERN)
        build_day_indexes(fs, *CDATE)
        build_day_segments(fs, *CDATE, block_rows=5)

        base = loader.indexed_input_format(RARE_PATTERN)
        registry = MetricsRegistry()
        old = set_default_registry(registry)
        try:
            fmt = ColumnarInputFormat(
                fs, base, predicates=[EventPatternPredicate(RARE_PATTERN)])
            rows = _matching_rows(fmt, RARE_PATTERN)
        finally:
            set_default_registry(old)
        assert rows == full
        assert base.skipped_splits > 0  # Elephant Twin dropped splits
        assert fmt.blocks_pruned > 0  # zone maps dropped blocks within
        assert registry.counter(
            obs_names.COLUMNAR_BLOCKS_PRUNED).value == fmt.blocks_pruned

    def test_pruned_split_rows_never_resurrected(self):
        """A block split clipped to surviving ranges must not leak rows
        Elephant Twin proved unneeded back into the scan."""
        from repro.elephanttwin.buildjob import build_day_indexes

        fs = _mini_world(hours=(3,), events_per_hour=60)
        loader = ClientEventsLoader(fs, *CDATE)
        build_day_indexes(fs, *CDATE)
        build_day_segments(fs, *CDATE, block_rows=25)  # blocks span files
        base = loader.indexed_input_format(RARE_PATTERN)
        surviving = {(s.path, s.index) for s in base.splits()}
        fmt = ColumnarInputFormat(fs, loader.indexed_input_format(
            RARE_PATTERN))
        segment = ColumnarSegment.load(fs, _hour(3).path())
        expected = set()
        for path, index in surviving:
            lo, hi = segment.split_row_range(path, index)
            expected.update(range(lo, hi))
        got = set()
        for split in fmt.splits():
            assert isinstance(split, ColumnarBlockSplit)
            got.update(range(split.start_row, split.end_row))
        assert got == expected


# ---------------------------------------------------------------------------
# Executor integration: projection pruning + predicate pushdown.
# ---------------------------------------------------------------------------


class TestExecutorIntegration:
    def test_filter_events_uses_segments_and_matches_raw(self):
        from repro.pig.udf import EventNameFilter

        fs = _mini_world(hours=(3, 4), events_per_hour=60)
        baseline = sorted(e.to_bytes() for e in (
            PigServer().load(ClientEventsLoader(fs, *CDATE))
            .filter(EventNameFilter(RARE_PATTERN)).dump()))
        build_day_segments(fs, *CDATE, block_rows=10)
        registry = MetricsRegistry()
        old = set_default_registry(registry)
        try:
            rows = (PigServer(JobTracker())
                    .load(ClientEventsLoader(fs, *CDATE))
                    .filter(EventNameFilter(RARE_PATTERN)).dump())
        finally:
            set_default_registry(old)
        assert sorted(e.to_bytes() for e in rows) == baseline
        decoded = registry.total(obs_names.COLUMNAR_BYTES_DECODED)
        assert decoded > 0  # the plan really went columnar
        assert registry.counter(obs_names.COLUMNAR_BLOCKS_PRUNED).value > 0

    def test_counting_queries_identical_with_segments(self):
        from repro.analytics.counting import count_events_raw

        fs = _mini_world(hours=(3, 4), events_per_hour=60)
        before_sum = count_events_raw(fs, CDATE, RARE_PATTERN)
        before_sessions = count_events_raw(fs, CDATE, RARE_PATTERN,
                                           mode="sessions")
        build_day_segments(fs, *CDATE, block_rows=10)
        assert count_events_raw(fs, CDATE, RARE_PATTERN) == before_sum
        assert count_events_raw(fs, CDATE, RARE_PATTERN,
                                mode="sessions") == before_sessions

    def test_events_for_user_identical_with_segments(self):
        from repro.analytics.counting import events_for_user

        fs = _mini_world(hours=(3, 4))
        baseline = sorted(e.to_bytes()
                          for e in events_for_user(fs, CDATE, 2))
        build_day_segments(fs, *CDATE, block_rows=10)
        rows = events_for_user(fs, CDATE, 2)
        assert sorted(e.to_bytes() for e in rows) == baseline

    def test_scan_hints_projection_and_pushdown(self):
        from repro.pig.executor import PlanExecutor
        from repro.pig.plan import FilterNode, ForeachNode
        from repro.pig.udf import EventNameFilter

        class _Raw:
            pass  # no columns_read: needs the full row

        class _Narrow:
            columns_read = ("user_id",)

        flt = FilterNode(child=None, predicate=EventNameFilter(RARE_PATTERN),
                         description="f")
        # Filter-only chain: raw rows still flow to the output, so the
        # scan needs every column -- but the pushdown hint is collected.
        projection, predicates = PlanExecutor._scan_hints([flt])
        assert projection is None
        assert len(predicates) == 1
        # A declared foreach terminates the walk: only the union of the
        # declared columns is ever read.
        projection, predicates = PlanExecutor._scan_hints(
            [flt, ForeachNode(child=None, fn=_Narrow(), description="g")])
        assert projection == ("event_name", "user_id")
        assert len(predicates) == 1
        # An undeclared foreach needs full rows; the hint still rides.
        projection, predicates = PlanExecutor._scan_hints(
            [flt, ForeachNode(child=None, fn=_Raw(), description="g")])
        assert projection is None
        assert len(predicates) == 1


# ---------------------------------------------------------------------------
# Pipeline integration: mover landing and Oink compaction.
# ---------------------------------------------------------------------------


class TestPipelineIntegration:
    @staticmethod
    def _staged_world(hours=(3, 4)):
        from repro.hdfs.layout import staging_path
        from repro.scribe.aggregator import encode_messages

        staging, warehouse = HDFS(), HDFS()
        for h in hours:
            hour = _hour(h)
            base = millis_for_hour(hour)
            messages = [
                _event(RARE if i % 10 == 0 else COMMON, user=i % 4,
                       ts=base + i * 1000).to_bytes()
                for i in range(30)]
            staging.create(f"{staging_path('dc1', hour)}/part-00000",
                           encode_messages(messages), codec="zlib")
        return staging, warehouse

    def test_mover_builds_segments_at_publish(self):
        from repro.logmover.mover import LogMover

        staging, warehouse = self._staged_world(hours=(3,))
        mover = LogMover({"dc1": staging}, warehouse,
                         columnar_categories=[CLIENT_EVENTS_CATEGORY])
        mover.move_hour(_hour(3), require_complete=False)
        directory = _hour(3).path()
        assert segment_status(warehouse, directory) == STATUS_FRESH
        loader = ClientEventsLoader(warehouse, *CDATE)
        fmt = loader.columnar_input_format()
        assert _all_rows(fmt) == _all_rows(loader.input_format())

    def test_mover_without_opt_in_skips_segments(self):
        from repro.logmover.mover import LogMover

        staging, warehouse = self._staged_world(hours=(3,))
        LogMover({"dc1": staging}, warehouse).move_hour(
            _hour(3), require_complete=False)
        assert segment_status(warehouse, _hour(3).path()) == STATUS_MISSING

    def test_oink_columnar_compaction_job(self):
        from repro.clock import LogicalClock
        from repro.core.builder import SessionSequenceBuilder
        from repro.logmover.mover import LogMover
        from repro.oink.pipelines import register_standard_pipeline
        from repro.oink.scheduler import Oink

        staging, warehouse = self._staged_world(hours=(3, 4))
        clock = LogicalClock()
        # Register the pipeline at the covered day's start: Oink runs
        # periods strictly in order, so a pipeline registered months
        # before its first data would hold every daily job behind the
        # empty days' closed gates.
        clock.advance_to(millis_for_hour(_hour(0)))
        oink = Oink(clock)
        mover = LogMover({"dc1": staging}, warehouse)
        state = register_standard_pipeline(
            oink, mover, SessionSequenceBuilder(warehouse),
            build_columnar=True)
        clock.advance_to(millis_for_hour(_hour(23)) + 2 * 3600 * 1000)
        oink.run_pending()
        assert CDATE in state.columnar
        assert sorted(state.columnar[CDATE].built) == [
            _hour(3).path(), _hour(4).path()]
        for h in (3, 4):
            assert segment_status(warehouse, _hour(h).path()) == STATUS_FRESH

    def test_day_build_uses_projected_histogram_scan(self):
        from repro.core.builder import SessionSequenceBuilder

        fs = _mini_world(hours=(3, 4), events_per_hour=60)
        plain = SessionSequenceBuilder(_mini_world(hours=(3, 4),
                                                   events_per_hour=60))
        baseline = plain.run(*CDATE, engine="mapreduce")
        build_day_segments(fs, *CDATE, block_rows=10)
        builder = SessionSequenceBuilder(fs)
        registry = MetricsRegistry()
        old = set_default_registry(registry)
        try:
            result = builder.run(*CDATE, engine="mapreduce")
        finally:
            set_default_registry(old)
        assert builder.load_histogram(*CDATE) == plain.load_histogram(*CDATE)
        assert result.sessions_built == baseline.sessions_built
        assert result.events_scanned == baseline.events_scanned
        decoded = {labels.get("column") for labels, __ in
                   registry.series(obs_names.COLUMNAR_BYTES_DECODED)}
        assert decoded == {"event_name"}  # histogram pass went columnar

    def test_day_columnar_input_none_without_segments(self):
        fs = _mini_world(hours=(3,))
        assert day_columnar_input(fs, CLIENT_EVENTS_CATEGORY,
                                  *CDATE) is None  # no segments yet
        assert day_columnar_input(HDFS(), CLIENT_EVENTS_CATEGORY,
                                  *CDATE) is None  # no data at all
        build_day_segments(fs, *CDATE)
        assert day_columnar_input(fs, CLIENT_EVENTS_CATEGORY,
                                  *CDATE) is not None
