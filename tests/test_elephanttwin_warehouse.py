"""Warehouse-integrated Elephant Twin: per-hour partitions, staleness.

Covers the stale-index bugfix (splits the index never saw are must-scan
work, not silently dropped), the MapReduce build job and its crash-safe
commit protocol, incremental maintenance, executor pushdown, and the
multi-field (event name + user id) query paths. Every test builds its
own mini warehouse -- the shared session fixtures are never mutated.
"""

import logging
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.builder import write_day_events
from repro.core.event import CLIENT_EVENTS_CATEGORY, ClientEvent
from repro.core.names import EventPattern
from repro.elephanttwin.buildjob import (
    WarehouseIndex,
    build_day_indexes,
    build_hour_index,
    hour_dirs_of_day,
    index_status,
    load_hour_partition,
)
from repro.elephanttwin.index import BlockIndex
from repro.elephanttwin.inputformat import (
    IndexedEventsLoader,
    IndexedInputFormat,
)
from repro.elephanttwin.manifest import (
    STATUS_FRESH,
    STATUS_MISSING,
    STATUS_STALE,
    partition_status,
)
from repro.faults.injector import (
    KIND_CRASH,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    set_default_injector,
)
from repro.hdfs.layout import LogHour, hour_index_dir, millis_for_hour
from repro.hdfs.namenode import HDFS, FileStatus
from repro.mapreduce.inputformats import FileInputFormat
from repro.mapreduce.jobtracker import JobTracker
from repro.pig.loaders import ClientEventsLoader
from repro.pig.relation import PigServer
from repro.thriftlike.codegen import ThriftFileFormat

MDATE = (2012, 6, 15)
RARE = "web:signup:step_confirm:form:button:submit"
COMMON = "web:home:timeline:stream:tweet:impression"
RARE_PATTERN = "*:signup:*:*:*:*"

_FMT = ThriftFileFormat(ClientEvent)


def _event(name: str, user: int, ts: int) -> ClientEvent:
    return ClientEvent.make(name, user_id=user, session_id=f"s{user}",
                            ip="10.0.0.1", timestamp=ts)


def _hour(h: int) -> LogHour:
    return LogHour(CLIENT_EVENTS_CATEGORY, *MDATE, h)


def _mini_world(codec: str = "zlib", hours=(3, 4),
                events_per_hour: int = 40, block_size: int = 512) -> HDFS:
    """A tiny warehouse: a few hours of events, mostly COMMON, some RARE."""
    fs = HDFS(block_size=block_size)
    events = []
    for h in hours:
        base = millis_for_hour(_hour(h))
        for i in range(events_per_hour):
            name = RARE if i % 20 == 0 else COMMON
            events.append(_event(name, user=i % 5, ts=base + i * 500))
    write_day_events(fs, events, *MDATE, events_per_file=10, codec=codec)
    return fs


def _matching_rows(fmt, pattern: str):
    matcher = EventPattern(pattern)
    return sorted(
        record.to_bytes()
        for split in fmt.splits()
        for record in fmt.read_split(split)
        if matcher.matches(record.event_name))


class TestStaleIndexRegression:
    """The bugfix: unknown splits are must-scan, never dropped."""

    def test_late_file_rows_survive(self):
        fs = _mini_world()
        build_day_indexes(fs, *MDATE)
        full_before = _matching_rows(
            ClientEventsLoader(fs, *MDATE).input_format(), RARE_PATTERN)

        # An hour's worth of data lands *after* the build.
        base = millis_for_hour(_hour(5))
        late = [_event(RARE, user=9, ts=base + i) for i in range(5)]
        fs.create(f"{_hour(5).path()}/late-00000", _FMT.encode(late),
                  codec="zlib")

        # A loader is one query's snapshot of the listing, so the query
        # after the late landing gets its own.
        loader = ClientEventsLoader(fs, *MDATE)
        fmt = loader.indexed_input_format(RARE_PATTERN)
        rows = _matching_rows(fmt, RARE_PATTERN)
        full = _matching_rows(ClientEventsLoader(fs, *MDATE).input_format(),
                              RARE_PATTERN)
        assert rows == full
        assert len(rows) == len(full_before) + 5
        assert fmt.unindexed_splits > 0
        assert fmt.skipped_splits > 0  # covered hours still prune

    def test_old_behaviour_would_have_dropped_rows(self):
        """The historical bug, reconstructed: consulting only postings
        (no coverage) drops every split the index never saw."""
        fs = _mini_world()
        build_day_indexes(fs, *MDATE)
        base = millis_for_hour(_hour(5))
        fs.create(f"{_hour(5).path()}/late-00000",
                  _FMT.encode([_event(RARE, user=9, ts=base)]),
                  codec="zlib")
        loader = ClientEventsLoader(fs, *MDATE)
        merged = WarehouseIndex.discover(
            fs, hour_dirs_of_day(fs, CLIENT_EVENTS_CATEGORY, *MDATE)
        ).field("event")
        buggy = BlockIndex(postings=merged.postings,
                           total_splits=merged.total_splits, covered={})
        # With an empty coverage map every split is must-scan: the new
        # format refuses to prune what it cannot prove empty.
        terms = [t for t in merged.terms()
                 if EventPattern(RARE_PATTERN).matches(t)]
        fmt = IndexedInputFormat(loader.input_format(), buggy, terms)
        assert fmt.splits() == loader.input_format().splits()
        assert fmt.unindexed_splits == len(loader.input_format().splits())

    def test_grown_file_invalidates_whole_path(self):
        """A file gaining blocks shifts every split's record range, so
        the whole path falls back to must-scan."""
        fs = _mini_world(codec="none", block_size=256)
        build_day_indexes(fs, *MDATE)
        loader = ClientEventsLoader(fs, *MDATE)
        target = loader.paths()[0]
        blocks_before = fs.status(target).block_count
        base = millis_for_hour(_hour(3))
        fs.append(target, _FMT.encode(
            [_event(RARE, user=8, ts=base + i) for i in range(30)]))
        assert fs.status(target).block_count > blocks_before

        fmt = loader.indexed_input_format(RARE_PATTERN)
        rows = _matching_rows(fmt, RARE_PATTERN)
        full = _matching_rows(loader.input_format(), RARE_PATTERN)
        assert rows == full
        assert fmt.unindexed_splits >= fs.status(target).block_count
        assert partition_status(fs, _hour(3).path()) == STATUS_STALE


    def test_rewritten_file_with_same_block_count_is_uncovered(self):
        """A file rewritten in place to another length but the same
        block count: only the ``(length, block count)`` fingerprint
        notices, so coverage must compare both (it once compared the
        split count alone and silently dropped the new rows)."""
        from repro.analytics.counting import (
            count_events_raw,
            count_events_selective,
        )

        fs = _mini_world()
        build_day_indexes(fs, *MDATE)
        target = ClientEventsLoader(fs, *MDATE).paths()[0]
        before = fs.status(target)
        brand_new = _event("web:brandnew:page:section:element:click",
                           user=7, ts=millis_for_hour(_hour(3)) + 99)
        fs.create(target,
                  _FMT.encode(_FMT.decode(fs.open_bytes(target))
                              + [brand_new]),
                  codec=before.codec, overwrite=True)
        after = fs.status(target)
        assert after.block_count == before.block_count
        assert after.length != before.length

        assert partition_status(fs, _hour(3).path()) == STATUS_STALE
        assert partition_status(fs, _hour(4).path()) == STATUS_FRESH
        assert count_events_raw(fs, MDATE, "web:brandnew:*") == 1
        assert count_events_selective(fs, MDATE, "web:brandnew:*") == 1
        fmt = ClientEventsLoader(fs, *MDATE).indexed_input_format(
            "web:brandnew:*")
        assert [split.path for split in fmt.splits()] == [target]
        assert fmt.unindexed_splits == 1


class TestInputSplitClamp:
    """Trailing blocks must never report negative scan bytes."""

    class _StubFS:
        """Status lies about block count: 7 blocks for 10 bytes."""

        def status(self, path):
            return FileStatus(path=path, is_dir=False, length=10,
                              block_count=7)

        def open_bytes(self, path):
            return b""

    def test_lengths_clamped_and_sum_preserved(self):
        fmt = FileInputFormat(self._StubFS(), ["/f"], lambda data: [])
        splits = fmt.splits()
        assert len(splits) == 7
        assert all(split.length_bytes >= 0 for split in splits)
        assert sum(split.length_bytes for split in splits) == 10


class TestZeroMatchedTerms:
    """A pattern matching no indexed terms is loud and still complete."""

    def test_warns_and_scans_unindexed_data(self, caplog):
        fs = _mini_world()
        build_day_indexes(fs, *MDATE)
        new_name = "web:newfeature:page:panel:button:click"
        base = millis_for_hour(_hour(5))
        fs.create(f"{_hour(5).path()}/late-00000",
                  _FMT.encode([_event(new_name, user=3, ts=base + i)
                               for i in range(4)]),
                  codec="zlib")

        loader = ClientEventsLoader(fs, *MDATE)
        merged = WarehouseIndex.discover(
            fs, hour_dirs_of_day(fs, CLIENT_EVENTS_CATEGORY, *MDATE)
        ).field("event")
        iloader = IndexedEventsLoader(loader, merged, "web:newfeature:*")
        assert iloader.matched_terms == []
        with caplog.at_level(logging.WARNING,
                             logger="repro.elephanttwin.inputformat"):
            fmt = iloader.input_format()
        assert any("matched no indexed" in rec.message
                   for rec in caplog.records)
        rows = _matching_rows(fmt, "web:newfeature:*")
        assert len(rows) == 4  # the unindexed hour was scanned
        assert fmt.unindexed_splits > 0


class TestBlockIndexRoundTrip:
    """to_bytes/from_bytes is exact, including non-BMP code points."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        postings=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.sets(st.tuples(st.text(min_size=1, max_size=8),
                              st.integers(0, 9)), max_size=4),
            max_size=5),
        covered=st.dictionaries(st.text(min_size=1, max_size=8),
                                st.integers(0, 9), max_size=4),
        total=st.integers(0, 50),
    )
    @example(postings={"\U0001f426:tweet": {("/logs/\U0001d54b", 3)}},
             covered={"/logs/\U0001d54b": 4}, total=4)
    def test_roundtrip(self, postings, covered, total):
        index = BlockIndex(postings=postings, total_splits=total,
                           covered=covered)
        loaded = BlockIndex.from_bytes(index.to_bytes())
        assert loaded.postings == postings
        assert loaded.covered == covered
        assert loaded.total_splits == total

    def test_legacy_payload_has_empty_coverage(self):
        """Pre-coverage payloads deserialize stale-safe: prune nothing."""
        legacy = (b'{"postings": {"a": [["/f", 0]]}, "total_splits": 1}')
        index = BlockIndex.from_bytes(legacy)
        assert index.covered == {}
        assert not index.covers("/f", 0)


class TestCrashSafety:
    """A crashed build leaves no half-written, consultable partition."""

    SITES = ["pre_postings", "pre_manifest", "pre_commit", "pre_rename"]

    @pytest.mark.parametrize("site", SITES)
    def test_first_build_crash_leaves_nothing(self, site):
        fs = _mini_world(hours=(3,))
        directory = _hour(3).path()
        plan = FaultPlan()
        plan.add(f"elephanttwin.build.{site}", KIND_CRASH, max_fires=1)
        set_default_injector(FaultInjector(plan))
        try:
            with pytest.raises(InjectedCrash):
                build_hour_index(fs, directory)
        finally:
            set_default_injector(None)
        assert load_hour_partition(fs, directory) is None
        assert partition_status(fs, directory) == STATUS_MISSING
        # Re-running converges to a committed, fresh partition.
        partition = build_hour_index(fs, directory)
        assert partition is not None
        assert partition_status(fs, directory) == STATUS_FRESH

    def test_pre_commit_crash_keeps_old_partition(self):
        """Before the old partition is dropped, readers keep seeing it."""
        fs = _mini_world(hours=(3,))
        directory = _hour(3).path()
        first = build_hour_index(fs, directory)
        plan = FaultPlan()
        plan.add("elephanttwin.build.pre_commit", KIND_CRASH, max_fires=1)
        set_default_injector(FaultInjector(plan))
        try:
            with pytest.raises(InjectedCrash):
                build_hour_index(fs, directory)
        finally:
            set_default_injector(None)
        survivor = load_hour_partition(fs, directory)
        assert survivor is not None
        assert survivor.manifest.files == first.manifest.files

    def test_pre_rename_crash_degrades_to_must_scan(self):
        """Between drop and rename there is no partition -- queries scan
        everything rather than trusting the staged tmp files."""
        fs = _mini_world(hours=(3,))
        directory = _hour(3).path()
        build_hour_index(fs, directory)
        plan = FaultPlan()
        plan.add("elephanttwin.build.pre_rename", KIND_CRASH, max_fires=1)
        set_default_injector(FaultInjector(plan))
        try:
            with pytest.raises(InjectedCrash):
                build_hour_index(fs, directory)
        finally:
            set_default_injector(None)
        assert load_hour_partition(fs, directory) is None
        loader = ClientEventsLoader(fs, *MDATE)
        assert loader.indexed_input_format(RARE_PATTERN) is None
        # The staged tmp survives on disk but is invisible to readers.
        assert fs.glob_files(f"{directory}/_index.tmp")
        assert not fs.is_file(f"{hour_index_dir(directory)}/manifest.json")


class TestIncrementalMaintenance:
    def test_fresh_hours_are_skipped(self):
        fs = _mini_world(hours=(3, 4))
        first = build_day_indexes(fs, *MDATE)
        assert first.hours_built == 2
        again = build_day_indexes(fs, *MDATE)
        assert again.hours_built == 0
        assert len(again.skipped_fresh) == 2

    def test_only_changed_hour_rebuilds(self):
        fs = _mini_world(hours=(3, 4))
        build_day_indexes(fs, *MDATE)
        base = millis_for_hour(_hour(4))
        fs.create(f"{_hour(4).path()}/late-00000",
                  _FMT.encode([_event(RARE, user=7, ts=base)]),
                  codec="zlib")
        statuses = dict(index_status(fs, *MDATE))
        assert statuses[_hour(3).path()] == STATUS_FRESH
        assert statuses[_hour(4).path()] == STATUS_STALE
        rebuilt = build_day_indexes(fs, *MDATE)
        assert rebuilt.built == [_hour(4).path()]
        assert all(status == STATUS_FRESH
                   for __, status in index_status(fs, *MDATE))

    def test_force_rebuilds_everything(self):
        fs = _mini_world(hours=(3, 4))
        build_day_indexes(fs, *MDATE)
        forced = build_day_indexes(fs, *MDATE, force=True)
        assert forced.hours_built == 2

    def test_status_missing_before_any_build(self):
        fs = _mini_world(hours=(3,))
        assert index_status(fs, *MDATE) == [(_hour(3).path(),
                                             STATUS_MISSING)]


class TestExecutorPushdown:
    """load(...).filter_events(...) plans use the index automatically."""

    def test_same_rows_fewer_map_tasks(self):
        fs = _mini_world(hours=(3, 4, 5), events_per_hour=60)
        build_day_indexes(fs, *MDATE)
        t_full, t_fast = JobTracker(), JobTracker()
        matcher = EventPattern(RARE_PATTERN)
        full = (PigServer(t_full).load(ClientEventsLoader(fs, *MDATE))
                .filter(lambda e: matcher.matches(e.event_name)).dump())
        fast = (PigServer(t_fast).load(ClientEventsLoader(fs, *MDATE))
                .filter_events(RARE_PATTERN).dump())
        assert sorted(e.to_bytes() for e in full) == \
            sorted(e.to_bytes() for e in fast)
        assert t_fast.total_map_tasks() < t_full.total_map_tasks()

    def test_no_partitions_means_plain_scan(self):
        fs = _mini_world(hours=(3,))
        rows = (PigServer(JobTracker())
                .load(ClientEventsLoader(fs, *MDATE))
                .filter_events(RARE_PATTERN).dump())
        matcher = EventPattern(RARE_PATTERN)
        expected = [r for r in
                    PigServer().load(ClientEventsLoader(fs, *MDATE)).dump()
                    if matcher.matches(r.event_name)]
        assert len(rows) == len(expected) > 0

    def test_user_field_pushdown(self):
        from repro.analytics.counting import events_for_user

        fs = _mini_world(hours=(3, 4))
        build_day_indexes(fs, *MDATE)
        t_user = JobTracker()
        rows = events_for_user(fs, MDATE, 2, tracker=t_user)
        assert rows
        assert all(r.user_id == 2 for r in rows)
        expected = [r for r in
                    PigServer().load(ClientEventsLoader(fs, *MDATE)).dump()
                    if r.user_id == 2]
        assert sorted(r.to_bytes() for r in rows) == \
            sorted(r.to_bytes() for r in expected)

    def test_count_events_selective_matches_raw(self):
        from repro.analytics.counting import (
            count_events_raw,
            count_events_selective,
        )

        fs = _mini_world(hours=(3, 4))
        build_day_indexes(fs, *MDATE)
        selective = count_events_selective(fs, MDATE, RARE_PATTERN)
        raw = count_events_raw(fs, MDATE, RARE_PATTERN)
        assert selective == raw > 0


class TestBuildBackends:
    """The build is a real MR job: the processes backend gives identical
    partitions."""

    def test_serial_processes_parity(self):
        # Uncompressed, so the hour has more splits than run inline.
        serial_fs = _mini_world(codec="none", hours=(3, 4))
        processes_fs = _mini_world(codec="none", hours=(3, 4))
        directory = _hour(3).path()
        a = build_hour_index(serial_fs, directory, backend="serial")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fallback to serial
            b = build_hour_index(processes_fs, directory,
                                 backend="processes", max_workers=2)
        assert a.manifest.files == b.manifest.files
        assert a.fields.keys() == b.fields.keys()
        for name in a.fields:
            assert a.fields[name].postings == b.fields[name].postings

    def test_multi_field_partitions(self):
        fs = _mini_world(hours=(3,))
        partition = build_hour_index(fs, _hour(3).path())
        assert set(partition.fields) == {"event", "user"}
        assert set(partition.manifest.fields) == {"event", "user"}
        users = partition.fields["user"]
        assert set(users.terms()) == {"0", "1", "2", "3", "4"}


class TestPipelineIntegration:
    def test_oink_index_job_builds_partitions(self):
        """The daily ``index_build`` Oink job indexes what the mover
        published, leaving every partition fresh."""
        from repro.clock import LogicalClock
        from repro.core.builder import SessionSequenceBuilder
        from repro.hdfs.layout import staging_path
        from repro.logmover.mover import LogMover
        from repro.oink.pipelines import register_standard_pipeline
        from repro.oink.scheduler import Oink
        from repro.scribe.aggregator import encode_messages

        pdate = (2012, 1, 1)
        staging, warehouse = HDFS(), HDFS()
        for h in (3, 4):
            hour = LogHour(CLIENT_EVENTS_CATEGORY, *pdate, h)
            base = millis_for_hour(hour)
            messages = [
                _event(RARE if i % 10 == 0 else COMMON, user=i % 4,
                       ts=base + i * 1000).to_bytes()
                for i in range(30)
            ]
            staging.create(f"{staging_path('dc1', hour)}/part-00000",
                           encode_messages(messages), codec="zlib")
        clock = LogicalClock()
        oink = Oink(clock)
        mover = LogMover({"dc1": staging}, warehouse)
        state = register_standard_pipeline(
            oink, mover, SessionSequenceBuilder(warehouse),
            build_indexes=True)
        clock.advance_to(26 * 3600 * 1000)
        oink.run_pending()
        assert pdate in state.indexes
        assert state.indexes[pdate].hours_built == 2
        assert all(status == STATUS_FRESH
                   for __, status in index_status(warehouse, *pdate))


class TestCLI:
    def test_index_query_smoke(self, capsys):
        from repro.cli import main

        assert main(["index", "query", "--users", "30",
                     "--pattern", RARE_PATTERN]) == 0
        out = capsys.readouterr().out
        assert "unindexed plan agrees: True" in out

    def test_index_status_smoke(self, capsys):
        from repro.cli import main

        assert main(["index", "status", "--users", "30"]) == 0
        assert "missing" in capsys.readouterr().out
