"""Incremental sessionization + continuously-updated rollups.

Covers the seal-driven incremental path (`repro.oink.incremental`), the
rollup atomic-commit and loading fixes, the indexed `RollupResult.count`,
the midnight double-count regression, and the streaming wiring of
`register_standard_pipeline`.
"""

import json

import pytest

from repro.clock import (
    LogicalClock,
    MILLIS_PER_DAY,
    MILLIS_PER_HOUR,
    MILLIS_PER_MINUTE,
)
from repro.core.builder import SessionSequenceBuilder, write_day_events
from repro.core.event import ClientEvent
from repro.core.sessionizer import Sessionizer
from repro.faults.injector import (
    KIND_CRASH,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    set_default_injector,
)
from repro.hdfs.layout import LogHour, hour_for_millis
from repro.hdfs.namenode import HDFS
from repro.logmover.streaming import PollResult
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.oink.incremental import (
    IncrementalPipeline,
    IncrementalRollup,
    IncrementalSessionizer,
    date_of_millis,
)
from repro.oink.rollups import (
    ROLLUP_LEVELS,
    MissingRollupError,
    RollupResult,
    load_rollups,
    materialize_rollups,
    rollup_day_dir,
    rollup_tables,
)
from repro.scribe.aggregator import encode_messages

CATEGORY = "client_events"
GAP_MS = 10 * MILLIS_PER_MINUTE
MIN = MILLIS_PER_MINUTE

NAMES = (
    "web:home:main:stream:tweet:impression",
    "web:home:main:stream:tweet:favorite",
    "iphone:profile:header:card:avatar:click",
)


@pytest.fixture(autouse=True)
def _fresh_registry():
    old = set_default_registry(MetricsRegistry())
    yield
    set_default_registry(old)


@pytest.fixture(autouse=True)
def _clean_injector():
    yield
    set_default_injector(None)


_counter = [0]


def ev(ts, user=1, sid="s1", name=NAMES[0], country="us", logged_in=True):
    _counter[0] += 1
    return ClientEvent.make(name, user_id=user, session_id=sid,
                            ip="10.0.0.1", timestamp=ts,
                            details={"n": str(_counter[0])},
                            country=country, logged_in=logged_in)


def land_hour(warehouse, hour, events, part="part-00000"):
    """Write events into one warehouse hour dir, mover-style."""
    warehouse.create(f"{hour.path()}/{part}",
                     encode_messages([e.to_bytes() for e in events]),
                     codec="zlib")


def poll_result(now_ms, watermark_ms, sealed=()):
    return PollResult(category=CATEGORY, now_ms=now_ms,
                      watermark_ms=watermark_ms, sealed=list(sealed))


def arm_crash(site):
    plan = FaultPlan()
    plan.add(site, KIND_CRASH, max_fires=1)
    set_default_injector(FaultInjector(plan, clock=LogicalClock()))


# -- the incremental sessionizer -------------------------------------------
class TestIncrementalSessionizer:
    def test_closes_only_after_watermark_passes_horizon(self):
        s = IncrementalSessionizer(inactivity_gap_ms=GAP_MS)
        s.ingest([ev(0), ev(4 * MIN)])
        assert s.advance(4 * MIN + GAP_MS - 1) == []  # horizon not passed
        assert s.open_count() == 1
        closed = s.advance(4 * MIN + GAP_MS)
        assert len(closed) == 1
        assert [e.timestamp for e in closed[0].session.events] == [0, 4 * MIN]
        assert s.open_count() == 0

    def test_session_spanning_hour_boundary_closes_once(self):
        s = IncrementalSessionizer(inactivity_gap_ms=GAP_MS)
        s.ingest([ev(57 * MIN), ev(59 * MIN)])  # hour 0 events
        # Hour 0 seals (watermark just past the hour): still open.
        assert s.advance(62 * MIN) == []
        s.ingest([ev(63 * MIN)])  # hour 1 continuation, within the gap
        closed = s.advance(80 * MIN)
        assert len(closed) == 1
        assert len(closed[0].session.events) == 3
        assert s.closed_total == 1

    def test_late_data_reopens_closed_session(self):
        s = IncrementalSessionizer(inactivity_gap_ms=GAP_MS)
        s.ingest([ev(0), ev(4 * MIN)])
        s.advance(30 * MIN)
        assert s.closed_total == 1
        s.ingest([ev(6 * MIN)])  # late, within the gap of the closed run
        closed = s.advance(30 * MIN)
        assert s.reopened_total == 1
        assert len(closed) == 1
        assert len(closed[0].session.events) == 3
        # The retracted emission is gone: one standing closed session.
        assert len(s.closed_sessions()) == 1

    def test_late_bridge_merges_two_closed_sessions(self):
        s = IncrementalSessionizer(inactivity_gap_ms=GAP_MS)
        s.ingest([ev(0), ev(18 * MIN)])  # two runs: 18min > the 10min gap
        s.advance(40 * MIN)
        assert s.closed_total == 2
        # A late event 9min from both runs bridges them into one session.
        s.ingest([ev(9 * MIN)])
        s.advance(40 * MIN)
        assert s.reopened_total == 2
        standing = s.closed_sessions()
        assert len(standing) == 1
        assert len(standing[0].session.events) == 3

    def test_duplicate_ingest_is_dropped(self):
        s = IncrementalSessionizer(inactivity_gap_ms=GAP_MS)
        event = ev(0)
        assert s.ingest([event, event]) == 1
        assert s.ingest([ClientEvent.from_bytes(event.to_bytes())]) == 0
        closed = s.finish()
        assert len(closed[0].session.events) == 1

    def test_identity_is_encoded_once_at_ingest_and_never_again(
            self, monkeypatch):
        """Pinned by call count, not by time: ``ingest`` encodes each
        offered event once; closing, re-opening, retracting and
        finishing work from the bytes it kept."""
        a, b, b_twin, c = ev(0), ev(4 * MIN), ev(4 * MIN), ev(30 * MIN)
        late = ev(6 * MIN)
        copy = ClientEvent.from_bytes(a.to_bytes())
        encoded = []
        to_bytes = ClientEvent.to_bytes
        monkeypatch.setattr(
            ClientEvent, "to_bytes",
            lambda self, *args: encoded.append(self) or to_bytes(self, *args))

        s = IncrementalSessionizer(inactivity_gap_ms=GAP_MS)
        offered = [a, b, b_twin, c, a, copy]
        assert s.ingest(offered) == 4  # the duplicate and the copy dropped
        assert [id(e) for e in encoded] == [id(e) for e in offered]

        del encoded[:]
        assert s.advance(4 * MIN) == []
        assert len(s.advance(20 * MIN)) == 1  # closes [a, b, b_twin]
        assert s.advance(25 * MIN) == []
        assert encoded == []

        assert s.ingest([late]) == 1  # within the gap of the closed run
        assert [id(e) for e in encoded] == [id(late)]

        del encoded[:]
        assert len(s.advance(25 * MIN)) == 1  # retracted and re-closed
        assert s.reopened_total == 1
        assert len(s.finish()) == 1  # closes [c]
        assert encoded == []

        monkeypatch.undo()
        standing = sorted(s.closed_sessions(), key=lambda c: c.session.start)
        batch = Sessionizer(GAP_MS).sessionize([a, b, b_twin, c, late])
        assert [c.session for c in standing] == batch
        assert [e.timestamp for e in standing[0].session.events] == [
            0, 4 * MIN, 4 * MIN, 6 * MIN]
        assert (s.opened_total, s.closed_total) == (2, 3)

    def test_midnight_session_attributed_to_exactly_one_day(self):
        s = IncrementalSessionizer(inactivity_gap_ms=GAP_MS)
        s.ingest([ev(MILLIS_PER_DAY - 5 * MIN), ev(MILLIS_PER_DAY + 3 * MIN)])
        closed = s.finish()
        assert len(closed) == 1
        assert closed[0].date == (2012, 1, 1)  # the day it *started*
        by_day = s.closed_by_day()
        assert list(by_day) == [(2012, 1, 1)]
        assert sum(len(rows) for rows in by_day.values()) == 1

    def test_counters_and_gauge_are_recorded(self):
        from repro.obs.metrics import get_default_registry

        s = IncrementalSessionizer(inactivity_gap_ms=GAP_MS)
        s.ingest([ev(0)])
        s.advance(5 * MIN)
        registry = get_default_registry()
        assert registry.total("incremental_sessions_open_total") == 1
        assert registry.total("incremental_open_sessions") == 1
        s.finish()
        assert registry.total("incremental_sessions_closed_total") == 1
        assert registry.total("incremental_open_sessions") == 0


class TestDateOfMillis:
    def test_maps_epoch_and_day_boundaries(self):
        assert date_of_millis(0) == (2012, 1, 1)
        assert date_of_millis(MILLIS_PER_DAY - 1) == (2012, 1, 1)
        assert date_of_millis(MILLIS_PER_DAY) == (2012, 1, 2)


# -- the incremental rollup ------------------------------------------------
class TestIncrementalRollup:
    HOUR0 = LogHour(CATEGORY, 2012, 1, 1, 0)

    def test_fold_materializes_and_correction_retracts(self):
        warehouse = HDFS()
        rollup = IncrementalRollup(warehouse, category=CATEGORY)
        first = [ev(1000), ev(2000)]
        delta = rollup.fold_hour(self.HOUR0, first, now_ms=62 * MIN)
        assert delta is not None and not delta.correction
        loaded = load_rollups(warehouse, 2012, 1, 1)
        key5 = ("web", "home", "main", "stream", "tweet", "impression")
        assert loaded.count(5, key5) == 2
        # Re-seal with one more event: a signed correction delta.
        late = ev(1500, name=NAMES[1])
        delta = rollup.fold_hour(self.HOUR0, first + [late],
                                 now_ms=90 * MIN)
        assert delta is not None and delta.correction
        loaded = load_rollups(warehouse, 2012, 1, 1)
        assert loaded.count(5, key5) == 2
        assert loaded.count(
            5, ("web", "home", "main", "stream", "tweet", "favorite")) == 1
        # Retraction: events counted before but absent now are removed
        # and zero-count keys pruned from the tables entirely.
        rollup.fold_hour(self.HOUR0, [late], now_ms=95 * MIN)
        loaded = load_rollups(warehouse, 2012, 1, 1)
        assert loaded.count(5, key5) == 0
        assert all(key5 != key[0] for key in loaded.tables[5])

    def test_identical_refold_is_a_noop(self):
        warehouse = HDFS()
        rollup = IncrementalRollup(warehouse, category=CATEGORY)
        events = [ev(1000)]
        assert rollup.fold_hour(self.HOUR0, events, now_ms=0) is not None
        assert rollup.fold_hour(self.HOUR0, list(events),
                                now_ms=MIN) is None
        assert rollup.deltas_applied == 1
        assert rollup.corrections == 0

    def test_day_files_byte_identical_to_batch_materialization(self):
        warehouse = HDFS()
        rollup = IncrementalRollup(warehouse, category=CATEGORY)
        h0 = self.HOUR0
        h1 = LogHour(CATEGORY, 2012, 1, 1, 1)
        hour0_events = [ev(1000, name=NAMES[i % 3], country=c)
                        for i, c in enumerate(("us", "jp", "de"))]
        hour1_events = [ev(61 * MIN, user=7, sid="s9", logged_in=False)]
        rollup.fold_hour(h0, hour0_events, now_ms=62 * MIN)
        rollup.fold_hour(h1, hour1_events, now_ms=122 * MIN)
        batch_fs = HDFS()
        materialize_rollups(
            batch_fs, RollupResult(
                date=(2012, 1, 1),
                tables=rollup_tables(hour0_events + hour1_events)))
        for level in ROLLUP_LEVELS:
            path = f"{rollup_day_dir(2012, 1, 1)}/level-{level}.json"
            assert warehouse.open_bytes(path) == batch_fs.open_bytes(path)

    def test_correction_lag_metric(self):
        from repro.obs.metrics import get_default_registry

        warehouse = HDFS()
        rollup = IncrementalRollup(warehouse, category=CATEGORY)
        rollup.fold_hour(self.HOUR0, [ev(1000)], now_ms=62 * MIN)
        rollup.fold_hour(self.HOUR0, [ev(1000), ev(2000)],
                         now_ms=100 * MIN)
        histogram = get_default_registry().merged_histogram(
            "rollup_correction_lag_ms")
        assert histogram.count == 1
        # Lag measured from the corrected hour's close (60min).
        assert histogram.values() == [40 * MIN]
        assert get_default_registry().total(
            "rollup_deltas_applied_total") == 2


# -- the pipeline facade ---------------------------------------------------
class TestIncrementalPipeline:
    def test_observe_poll_folds_seals_and_closes_sessions(self):
        warehouse = HDFS()
        pipeline = IncrementalPipeline(warehouse, category=CATEGORY,
                                       inactivity_gap_ms=GAP_MS)
        hour0 = hour_for_millis(CATEGORY, 0)
        land_hour(warehouse, hour0, [ev(40 * MIN), ev(44 * MIN)])
        pipeline.observe_poll(poll_result(62 * MIN, 60 * MIN,
                                          sealed=[hour0]))
        # Watermark 60min passed 44min + 10min: the session closed and
        # the day's rollups are already materialized, mid-day.
        assert pipeline.sessionizer.closed_total == 1
        assert load_rollups(warehouse, 2012, 1, 1).count(
            1, ("web", "*", "*", "*", "*", "impression")) == 2

    def test_reseal_ingests_only_new_events(self):
        warehouse = HDFS()
        pipeline = IncrementalPipeline(warehouse, category=CATEGORY,
                                       inactivity_gap_ms=GAP_MS)
        hour0 = hour_for_millis(CATEGORY, 0)
        on_time = [ev(40 * MIN), ev(44 * MIN)]
        land_hour(warehouse, hour0, on_time)
        pipeline.observe_poll(poll_result(62 * MIN, 60 * MIN,
                                          sealed=[hour0]))
        # Late data re-opens and re-seals the hour; the whole hour is
        # re-read but previously-seen payloads are not re-ingested.
        land_hour(warehouse, hour0, [ev(46 * MIN)], part="batch-00007")
        pipeline.observe_poll(poll_result(80 * MIN, 78 * MIN,
                                          sealed=[hour0]))
        assert pipeline.sessionizer.reopened_total == 1
        standing = pipeline.sessionizer.closed_sessions()
        assert len(standing) == 1
        assert len(standing[0].session.events) == 3
        assert pipeline.rollup.corrections == 1

    def test_undecodable_hour_is_skipped_not_fatal(self):
        warehouse = HDFS()
        pipeline = IncrementalPipeline(warehouse, category=CATEGORY)
        hour0 = hour_for_millis(CATEGORY, 0)
        warehouse.create(f"{hour0.path()}/part-00000",
                         encode_messages([b"not a client event"]),
                         codec="zlib")
        pipeline.observe_poll(poll_result(62 * MIN, 60 * MIN,
                                          sealed=[hour0]))
        assert pipeline.hours_processed == 0
        assert pipeline.rollup.days() == []


# -- streaming wiring of the standard pipeline -----------------------------
class TestStandardPipelineStreamingWiring:
    def test_streaming_mover_replaces_daily_rollup_job(self):
        from repro.logmover.streaming import StreamingMover
        from repro.oink.pipelines import register_standard_pipeline
        from repro.oink.scheduler import Oink
        from repro.scribe.message import encode_envelope

        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        mover = StreamingMover({"dc": staging}, warehouse, clock,
                               batch_interval_ms=5 * MIN,
                               watermark_delay_ms=2 * MIN)
        oink = Oink(clock)
        builder = SessionSequenceBuilder(warehouse,
                                         inactivity_gap_ms=GAP_MS)
        state = register_standard_pipeline(oink, mover, builder,
                                           category=CATEGORY)
        assert state.incremental is not None
        hour0 = hour_for_millis(CATEGORY, 0)
        events = [ev(40 * MIN, user=5, sid="w1"),
                  ev(44 * MIN, user=5, sid="w1")]
        staging.create(
            f"/staging/dc/{CATEGORY}/2012/01/01/00/p1",
            encode_messages([encode_envelope("h1", i, e.to_bytes())
                             for i, e in enumerate(events)]),
            codec="zlib")
        # Two hours in: the hour is sealed and the rollups are already
        # materialized + recorded -- no daily job involved.
        oink.run_until(2 * MILLIS_PER_HOUR, step_ms=5 * MIN)
        assert hour0 in state.moved_hours
        assert (2012, 1, 1) in state.rollups
        assert state.rollups[(2012, 1, 1)].count(
            1, ("web", "*", "*", "*", "*", "impression")) == 2
        assert state.incremental.sessionizer.closed_total == 1
        # The daily rollups job was never registered.
        assert not oink.traces.successes("rollups")
        assert load_rollups(warehouse, 2012, 1, 1).tables[1]


# -- satellite: atomic day commit ------------------------------------------
class TestRollupAtomicCommit:
    def _result(self, version):
        events = [ev(1000 + i, name=NAMES[version % 3])
                  for i in range(version + 1)]
        return RollupResult(date=(2012, 1, 1),
                            tables=rollup_tables(events))

    @pytest.mark.parametrize("site", ["oink.rollups.pre_levels",
                                      "oink.rollups.pre_commit"])
    def test_crash_before_commit_leaves_previous_day_intact(self, site):
        warehouse = HDFS()
        materialize_rollups(warehouse, self._result(0))
        before = {level: warehouse.open_bytes(
            f"{rollup_day_dir(2012, 1, 1)}/level-{level}.json")
            for level in ROLLUP_LEVELS}
        arm_crash(site)
        with pytest.raises(InjectedCrash):
            materialize_rollups(warehouse, self._result(1))
        # The old day is fully intact -- not a mix of old and new levels.
        for level in ROLLUP_LEVELS:
            path = f"{rollup_day_dir(2012, 1, 1)}/level-{level}.json"
            assert warehouse.open_bytes(path) == before[level]
        # The retry (crash budget exhausted) repairs to the new day.
        materialize_rollups(warehouse, self._result(1))
        assert load_rollups(warehouse, 2012, 1, 1) == self._result(1)

    def test_crash_in_commit_window_leaves_day_missing_never_mixed(self):
        warehouse = HDFS()
        materialize_rollups(warehouse, self._result(0))
        arm_crash("oink.rollups.pre_rename")
        with pytest.raises(InjectedCrash):
            materialize_rollups(warehouse, self._result(1))
        # Mid-commit: the day reads as *missing*, never half-new.
        with pytest.raises(MissingRollupError):
            load_rollups(warehouse, 2012, 1, 1)
        materialize_rollups(warehouse, self._result(1))
        assert load_rollups(warehouse, 2012, 1, 1) == self._result(1)

    def test_stale_tmp_from_a_crash_is_replaced_on_retry(self):
        warehouse = HDFS()
        arm_crash("oink.rollups.pre_commit")
        with pytest.raises(InjectedCrash):
            materialize_rollups(warehouse, self._result(0))
        assert warehouse.is_dir(f"{rollup_day_dir(2012, 1, 1)}.tmp")
        materialize_rollups(warehouse, self._result(1))
        assert not warehouse.exists(f"{rollup_day_dir(2012, 1, 1)}.tmp")
        assert load_rollups(warehouse, 2012, 1, 1) == self._result(1)


# -- satellite: missing/partial day loading --------------------------------
class TestMissingRollups:
    def test_missing_day_raises_clear_error(self):
        with pytest.raises(MissingRollupError) as excinfo:
            load_rollups(HDFS(), 2012, 3, 10)
        assert "2012-03-10" in str(excinfo.value)
        assert excinfo.value.date == (2012, 3, 10)

    def test_partial_day_raises_clear_error(self):
        warehouse = HDFS()
        # Pre-atomic-commit debris: only one level file present.
        warehouse.create(f"{rollup_day_dir(2012, 3, 10)}/level-5.json",
                         json.dumps([]).encode(), codec="zlib")
        with pytest.raises(MissingRollupError) as excinfo:
            load_rollups(warehouse, 2012, 3, 10)
        assert "partially materialized" in str(excinfo.value)

    def test_dashboard_panel_renders_no_data_instead_of_crashing(self):
        from repro.analytics.dashboard import format_rollup_panel

        panel = format_rollup_panel(HDFS(), (2012, 3, 10))
        assert "no data" in panel
        assert "2012-03-10" in panel

    def test_dashboard_panel_renders_counts_when_materialized(self):
        from repro.analytics.dashboard import format_rollup_panel

        warehouse = HDFS()
        materialize_rollups(warehouse, RollupResult(
            date=(2012, 3, 10), tables=rollup_tables([ev(0), ev(100)])))
        panel = format_rollup_panel(warehouse, (2012, 3, 10))
        assert "no data" not in panel
        assert "impression" in panel


# -- satellite: indexed RollupResult.count ---------------------------------
def _linear_count(result, level, key, country="*", status="*"):
    """The pre-index reference implementation: full-table scan."""
    total = 0
    for (name_key, entry_country, entry_status), count in \
            result.tables[level].items():
        if name_key != tuple(key):
            continue
        if country != "*" and entry_country != country:
            continue
        if status != "*" and entry_status != status:
            continue
        total += count
    return total


class TestIndexedCount:
    def _result(self):
        events = [ev(i, name=NAMES[i % 3],
                     country=("us", "jp", "de")[i % 3],
                     logged_in=bool(i % 2)) for i in range(60)]
        return RollupResult(date=(2012, 1, 1),
                            tables=rollup_tables(events))

    def test_parity_with_linear_scan(self):
        result = self._result()
        queries = []
        for level in ROLLUP_LEVELS:
            for (name_key, country, status) in result.tables[level]:
                queries.extend([
                    (level, name_key, "*", "*"),
                    (level, name_key, country, "*"),
                    (level, name_key, "*", status),
                    (level, name_key, country, status),
                ])
            queries.append((level, ("no", "such", "*", "*", "*", "key"),
                            "*", "*"))
        for level, key, country, status in queries:
            assert result.count(level, key, country, status) == \
                _linear_count(result, level, key, country, status)

    def test_index_rebuilds_when_keys_change(self):
        result = self._result()
        key = ("web", "*", "*", "*", "*", "impression")
        before = result.count(1, key)
        result.tables[1][(key, "br", "logged_in")] = 7
        assert result.count(1, key) == before + 7  # size change -> rebuild

    def test_in_place_mutation_needs_explicit_invalidation(self):
        result = self._result()
        key = ("web", "*", "*", "*", "*", "impression")
        entry = next(k for k in result.tables[1] if k[0] == key)
        before = result.count(1, key)
        result.tables[1][entry] += 5
        result.invalidate_index()
        assert result.count(1, key) == before + 5


# -- satellite: the midnight double-count bug ------------------------------
class TestMidnightDoubleCount:
    def test_per_day_batch_builds_double_count_spanning_session(self):
        warehouse = HDFS()
        # One genuine session straddling the day-1/day-2 midnight.
        day1_tail = [ev(2 * MILLIS_PER_DAY - 4 * MIN, user=3, sid="mid"),
                     ev(2 * MILLIS_PER_DAY - 2 * MIN, user=3, sid="mid")]
        day2_head = [ev(2 * MILLIS_PER_DAY + 2 * MIN, user=3, sid="mid")]
        write_day_events(warehouse, day1_tail, 2012, 1, 2)
        write_day_events(warehouse, day2_head, 2012, 1, 3)
        builder = SessionSequenceBuilder(warehouse,
                                         inactivity_gap_ms=GAP_MS)
        builder.run(2012, 1, 2)
        builder.run(2012, 1, 3)
        per_day = (len(list(builder.iter_sequences(2012, 1, 2)))
                   + len(list(builder.iter_sequences(2012, 1, 3))))
        truth = len(Sessionizer(GAP_MS).sessionize(day1_tail + day2_head))
        assert truth == 1
        # The documented bug: each per-day build sees its half of the
        # run as a session of its own, so the user is counted twice.
        assert per_day == 2

    def test_incremental_attributes_spanning_session_once(self):
        warehouse = HDFS()
        pipeline = IncrementalPipeline(warehouse, category=CATEGORY,
                                       inactivity_gap_ms=GAP_MS)
        h23 = LogHour(CATEGORY, 2012, 1, 2, 23)
        h00 = LogHour(CATEGORY, 2012, 1, 3, 0)
        day2 = 2 * MILLIS_PER_DAY
        land_hour(warehouse, h23, [ev(day2 - 4 * MIN, user=3, sid="mid"),
                                   ev(day2 - 2 * MIN, user=3, sid="mid")])
        land_hour(warehouse, h00, [ev(day2 + 2 * MIN, user=3, sid="mid")])
        pipeline.observe_poll(poll_result(day2 + 2 * MIN, day2,
                                          sealed=[h23]))
        # Day 2's last hour sealed but the session is NOT closed yet --
        # its inactivity horizon reaches into day 3.
        assert pipeline.sessionizer.closed_total == 0
        pipeline.observe_poll(poll_result(day2 + 62 * MIN, day2 + HOUR,
                                          sealed=[h00]))
        closed = pipeline.sessionizer.closed_sessions()
        assert len(closed) == 1
        assert len(closed[0].session.events) == 3
        # Attributed to exactly one day: the day the session started.
        assert closed[0].date == (2012, 1, 2)
        assert list(pipeline.sessionizer.closed_by_day()) == [(2012, 1, 2)]


HOUR = MILLIS_PER_HOUR


# -- satellite: property tests ---------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

component = st.text(
    alphabet=st.sampled_from("ab*é日"), min_size=1, max_size=4)
name_key = st.tuples(component, component, component,
                     component, component, component)
country = st.text(alphabet=st.sampled_from("uüé日jp"), min_size=1,
                  max_size=3)
status = st.sampled_from(["logged_in", "logged_out"])
table = st.dictionaries(st.tuples(name_key, country, status),
                        st.integers(min_value=1, max_value=10_000),
                        max_size=12)


class TestRollupRoundTripProperties:
    @given(tables=st.fixed_dictionaries(
        {level: table for level in ROLLUP_LEVELS}))
    @settings(max_examples=40, deadline=None)
    def test_materialize_load_round_trip(self, tables):
        from collections import Counter

        warehouse = HDFS()
        result = RollupResult(
            date=(2012, 3, 10),
            tables={level: Counter(t) for level, t in tables.items()})
        materialize_rollups(warehouse, result)
        loaded = load_rollups(warehouse, 2012, 3, 10)
        assert loaded.tables == result.tables
        # Spot-check the indexed lookup against the source counts.
        for level, t in tables.items():
            for (key, entry_country, entry_status), count in t.items():
                assert loaded.count(level, key, entry_country,
                                    entry_status) == count


class TestSessionizerProperties:
    @given(st.lists(
        st.tuples(st.integers(min_value=1, max_value=3),      # user
                  st.sampled_from(["a", "b"]),                # session id
                  st.integers(min_value=0, max_value=6 * HOUR)),  # ts
        max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_splitting_never_reorders_or_drops_events(self, rows):
        events = [ev(ts, user=user, sid=sid) for user, sid, ts in rows]
        sessions = Sessionizer(GAP_MS).sessionize(events)
        # No event dropped or invented.
        flattened = [e.to_bytes() for s in sessions for e in s.events]
        assert sorted(flattened) == sorted(e.to_bytes() for e in events)
        for session in sessions:
            stamps = [e.timestamp for e in session.events]
            # Time-ordered within a session, splits only at gap breaks.
            assert stamps == sorted(stamps)
            assert all(b - a <= GAP_MS
                       for a, b in zip(stamps, stamps[1:]))
        # Incremental agreement: the same events fed incrementally give
        # the same multiset of sessions once everything closes.
        incremental = IncrementalSessionizer(inactivity_gap_ms=GAP_MS)
        incremental.ingest(events)
        incremental.finish()
        incr = sorted((c.session.user_id, c.session.session_id,
                       tuple(e.to_bytes() for e in c.session.events))
                      for c in incremental.closed_sessions())
        batch = sorted((s.user_id, s.session_id,
                        tuple(e.to_bytes() for e in s.events))
                       for s in sessions)
        assert incr == batch
