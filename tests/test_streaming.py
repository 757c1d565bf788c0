"""Streaming mover tests: micro-batches, watermarks, seals, late data."""

import pytest

from repro.clock import (
    LogicalClock,
    MILLIS_PER_HOUR,
    MILLIS_PER_MINUTE,
)
from repro.core.event import ClientEvent
from repro.faults.injector import (
    KIND_CRASH,
    KIND_UNAVAILABLE,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    set_default_injector,
)
from repro.hdfs.layout import (
    LOGS_ROOT,
    data_files,
    hour_for_millis,
    staging_path,
)
from repro.hdfs.namenode import HDFS
from repro.logmover.landing import INCOMING_ROOT
from repro.logmover.streaming import StreamingMover
from repro.obs import names as obs_names
from repro.obs.metrics import (
    MetricsRegistry,
    get_default_registry,
    set_default_registry,
)
from repro.scribe.aggregator import decode_messages, encode_messages
from repro.scribe.message import encode_envelope
from repro.warehouse.segment import STATUS_FRESH, segment_status

CATEGORY = "client_events"
HOUR0 = hour_for_millis(CATEGORY, 0)
HOUR1 = hour_for_millis(CATEGORY, MILLIS_PER_HOUR)

#: One minute of batch cadence and two of watermark delay keep the
#: arithmetic in every test readable: an hour seals at hour_end + 2min.
BATCH_MS = MILLIS_PER_MINUTE
DELAY_MS = 2 * MILLIS_PER_MINUTE


@pytest.fixture(autouse=True)
def _fresh_registry():
    old = set_default_registry(MetricsRegistry())
    yield
    set_default_registry(old)


@pytest.fixture(autouse=True)
def _clean_injector():
    yield
    set_default_injector(None)


def _stage(staging, datacenter, hour, part, frames, codec="zlib"):
    staging.create(f"{staging_path(datacenter, hour)}/{part}",
                   encode_messages(frames), codec=codec)


def _hour_messages(warehouse, hour):
    out = []
    for path in data_files(warehouse, hour.path(root=LOGS_ROOT)):
        out.extend(decode_messages(warehouse.open_bytes(path)))
    return sorted(out)


def _hour_files(warehouse, hour):
    return sorted(p.rsplit("/", 1)[-1]
                  for p in data_files(warehouse, hour.path(root=LOGS_ROOT)))


def _mover(staging_map, warehouse, clock, **kwargs):
    kwargs.setdefault("batch_interval_ms", BATCH_MS)
    kwargs.setdefault("watermark_delay_ms", DELAY_MS)
    return StreamingMover(staging_map, warehouse, clock, **kwargs)


class TestMicroBatches:
    def test_batch_queryable_before_hour_closes(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(5 * MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock)
        _stage(staging, "dc", HOUR0, "p1",
               [encode_envelope("h1", 0, b"a"), encode_envelope("h1", 1, b"b")])
        result = mover.poll(CATEGORY)
        assert result.messages_landed == 2
        # Queryable now, mid-hour, as a batch file -- not sealed yet.
        assert _hour_messages(warehouse, HOUR0) == [b"a", b"b"]
        assert _hour_files(warehouse, HOUR0) == ["batch-00000"]
        assert not mover.sealed(HOUR0)
        # Staged inputs were consumed.
        assert staging.glob_files(staging_path("dc", HOUR0)) == []

    def test_batch_interval_gates_landing(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock)
        _stage(staging, "dc", HOUR0, "p1", [b"a"])
        assert mover.poll(CATEGORY).messages_landed == 1
        _stage(staging, "dc", HOUR0, "p2", [b"b"])
        # Within the same interval nothing lands...
        assert mover.poll(CATEGORY).messages_landed == 0
        # ...unless forced...
        assert mover.poll(CATEGORY, force=True).messages_landed == 1
        _stage(staging, "dc", HOUR0, "p3", [b"c"])
        # ...or the interval has elapsed.
        clock.advance(BATCH_MS)
        assert mover.poll(CATEGORY).messages_landed == 1

    def test_committed_identities_dedup_within_and_across_batches(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock)
        _stage(staging, "dc", HOUR0, "p1", [encode_envelope("h1", 0, b"a")])
        mover.poll(CATEGORY)
        # A late resend of a *committed* identity must be suppressed:
        # unlike an hourly re-move, the committed batch's inputs are
        # already deleted, so re-landing would duplicate the payload.
        _stage(staging, "dc", HOUR0, "p2", [encode_envelope("h1", 0, b"a"),
                                            encode_envelope("h1", 1, b"b")])
        batch = mover.poll(CATEGORY, force=True).batches[0]
        assert batch.messages_landed == 1
        assert batch.duplicates_skipped == 1
        assert _hour_messages(warehouse, HOUR0) == [b"a", b"b"]
        assert mover.landed_identities(HOUR0) == {("h1", 0), ("h1", 1)}

    def test_moves_one_cumulative_result_per_hour(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock)
        _stage(staging, "dc", HOUR0, "p1", [b"a"])
        mover.poll(CATEGORY)
        _stage(staging, "dc", HOUR0, "p2", [b"b", b"c"])
        mover.poll(CATEGORY, force=True)
        assert len(mover.moves) == 1
        assert mover.moves[0].messages_moved == 3
        assert mover.moves[0].input_files == 2


class TestWatermarks:
    def test_watermark_trails_live_datacenters_by_delay(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(10 * MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock)
        mover.poll(CATEGORY)
        assert mover.watermark(CATEGORY) == clock.now() - DELAY_MS

    def test_watermark_lag_gauge(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(10 * MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock)
        mover.poll(CATEGORY)
        from repro.obs.metrics import get_default_registry
        assert get_default_registry().total(
            obs_names.STREAMING_WATERMARK_LAG) == DELAY_MS

    def test_unreachable_datacenter_freezes_watermark_and_blocks_seal(self):
        s1 = HDFS(name="staging-dc1")
        s2 = HDFS(name="staging-dc2")
        warehouse = HDFS()
        clock = LogicalClock()
        clock.advance(5 * MILLIS_PER_MINUTE)
        mover = _mover({"dc1": s1, "dc2": s2}, warehouse, clock)
        _stage(s1, "dc1", HOUR0, "p1", [b"a"])
        mover.poll(CATEGORY)
        frozen_at = mover.watermark(CATEGORY)
        # dc2's staging cluster goes dark until well past the hour.
        plan = FaultPlan()
        plan.add("hdfs.staging-dc2.write", KIND_UNAVAILABLE,
                 start_ms=6 * MILLIS_PER_MINUTE,
                 end_ms=MILLIS_PER_HOUR + 10 * MILLIS_PER_MINUTE)
        set_default_injector(FaultInjector(plan, clock=clock))
        clock.advance(MILLIS_PER_HOUR)  # now = hour 1 + 5min
        result = mover.poll(CATEGORY, force=True)
        # dc2 froze at its last live progress, so the hour cannot seal.
        assert result.watermark_ms == frozen_at
        assert result.sealed == []
        assert not mover.sealed(HOUR0)
        # Outage ends; the next poll advances the watermark and seals.
        clock.advance(6 * MILLIS_PER_MINUTE)
        result = mover.poll(CATEGORY, force=True)
        assert result.sealed == [HOUR0]

    def test_never_seen_datacenter_holds_watermark_at_zero(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        mover = StreamingMover({"dc": staging}, warehouse, clock,
                               producers={CATEGORY: ["dc", "dc-other"]})
        assert mover.watermark(CATEGORY) == 0


class TestSealing:
    def test_seal_merges_batches_into_part_files(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock)
        _stage(staging, "dc", HOUR0, "p1", [encode_envelope("h1", 0, b"a")])
        mover.poll(CATEGORY)
        _stage(staging, "dc", HOUR0, "p2", [encode_envelope("h1", 1, b"b")])
        mover.poll(CATEGORY, force=True)
        assert _hour_files(warehouse, HOUR0) == ["batch-00000",
                                                 "batch-00001"]
        clock.advance(MILLIS_PER_HOUR + DELAY_MS)
        result = mover.poll(CATEGORY, force=True)
        assert result.sealed == [HOUR0]
        assert mover.sealed(HOUR0)
        assert _hour_files(warehouse, HOUR0) == ["part-00000"]
        assert _hour_messages(warehouse, HOUR0) == [b"a", b"b"]
        from repro.obs.metrics import get_default_registry
        registry = get_default_registry()
        assert registry.total(obs_names.STREAMING_HOURS_SEALED) == 1
        assert registry.total(obs_names.MOVER_HOURS_MOVED) == 1
        # One part file written, counted like an hourly move's.
        assert registry.total(obs_names.MOVER_FILES_WRITTEN) == 1

    def test_hour_without_batches_never_seals(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        mover = _mover({"dc": staging}, warehouse, clock)
        clock.advance(2 * MILLIS_PER_HOUR)
        result = mover.poll(CATEGORY)
        assert result.sealed == []
        assert mover.hours_sealed() == []

    def test_run_until_sealed_drains_everything(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock)
        _stage(staging, "dc", HOUR0, "p1", [b"a"])
        _stage(staging, "dc", HOUR1, "p1", [b"b"])
        mover.run_until_sealed(CATEGORY)
        assert mover.sealed(HOUR0) and mover.sealed(HOUR1)
        assert mover.unsealed_hours() == []
        assert _hour_messages(warehouse, HOUR0) == [b"a"]
        assert _hour_messages(warehouse, HOUR1) == [b"b"]

    def test_columnar_category_with_undecodable_payloads_skips_segment(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock,
                       columnar_categories=[CATEGORY])
        _stage(staging, "dc", HOUR0, "p1", [b"not-a-client-event"])
        mover.run_until_sealed(CATEGORY)
        # The raw hour sealed fine; the segment build was skipped.
        assert mover.sealed(HOUR0)
        assert _hour_messages(warehouse, HOUR0) == [b"not-a-client-event"]


class TestLateData:
    def _sealed_hour(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock)
        _stage(staging, "dc", HOUR0, "p1", [encode_envelope("h1", 0, b"a")])
        mover.poll(CATEGORY)
        clock.advance(MILLIS_PER_HOUR + DELAY_MS)
        mover.poll(CATEGORY, force=True)
        assert mover.sealed(HOUR0)
        return staging, warehouse, clock, mover

    def test_late_arrival_reopens_sealed_hour(self):
        staging, warehouse, clock, mover = self._sealed_hour()
        # A WAL replay resends a committed identity plus a new one.
        _stage(staging, "dc", HOUR0, "late",
               [encode_envelope("h1", 0, b"a"), encode_envelope("h1", 1, b"b")])
        result = mover.poll(CATEGORY, force=True)
        batch = result.batches[0]
        assert batch.reopened
        assert batch.messages_landed == 1  # only the genuinely new entry
        assert batch.duplicates_skipped == 1
        assert mover.late_reopens() == 1
        from repro.obs.metrics import get_default_registry
        assert get_default_registry().total(
            obs_names.STREAMING_LATE_REOPENS) == 1
        # The seal and the re-seal each wrote one part file.
        assert get_default_registry().total(
            obs_names.MOVER_FILES_WRITTEN) == 2
        # The same poll re-seals (the watermark is already past), and the
        # union lands exactly once.
        assert mover.sealed(HOUR0)
        assert _hour_messages(warehouse, HOUR0) == [b"a", b"b"]

    def test_pure_duplicate_late_arrival_does_not_reopen(self):
        staging, warehouse, clock, mover = self._sealed_hour()
        _stage(staging, "dc", HOUR0, "late", [encode_envelope("h1", 0, b"a")])
        result = mover.poll(CATEGORY, force=True)
        assert result.batches[0].messages_landed == 0
        assert result.batches[0].duplicates_skipped == 1
        assert not result.batches[0].reopened
        assert mover.late_reopens() == 0
        assert mover.sealed(HOUR0)
        assert _hour_messages(warehouse, HOUR0) == [b"a"]


class TestDeliveryTracing:
    def test_streaming_traces_cover_every_hop(self):
        """Entries landed by a micro-batch trace daemon → warehouse like
        hourly ones, and feed the delivery-latency histogram."""
        from repro.analytics.dashboard import pipeline_health
        from repro.obs.trace import Tracer, set_default_tracer
        from repro.scribe.cluster import ScribeDeployment
        from repro.scribe.message import LogEntry

        tracer = Tracer(enabled=True)
        old_tracer = set_default_tracer(tracer)
        try:
            deployment = ScribeDeployment(["east", "west"], num_hosts=1,
                                          num_aggregators=1, seed=3)
            for i in range(6):
                datacenter = deployment.datacenters[("east", "west")[i % 2]]
                datacenter.log_from(0, LogEntry(CATEGORY, b"m%d" % i))
                deployment.clock.advance(1000)
            deployment.flush_all()
            mover = _mover({name: dc.staging for name, dc in
                            deployment.datacenters.items()},
                           deployment.warehouse, deployment.clock)
            assert mover.poll(CATEGORY).messages_landed == 6
        finally:
            set_default_tracer(old_tracer)
        assert len(tracer.trace_ids()) == 6
        for trace_id in tracer.trace_ids():
            assert tracer.hops(trace_id) == list(obs_names.PIPELINE_HOPS)
            land = tracer.spans(trace_id)[-1]
            assert land.attrs["directory"].endswith("/batch-00000")
        assert pipeline_health().latency_count == 6


class TestCrashConvergence:
    def _arm(self, site):
        plan = FaultPlan()
        plan.add(site, KIND_CRASH, max_fires=1)
        set_default_injector(FaultInjector(plan))

    def _poll_through_crash(self, mover):
        with pytest.raises(InjectedCrash):
            mover.poll(CATEGORY, force=True)
        return mover.poll(CATEGORY, force=True)

    def test_crash_before_batch_rename_converges(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock)
        _stage(staging, "dc", HOUR0, "p1", [encode_envelope("h1", 0, b"a")])
        self._arm(f"logmover.{CATEGORY}.batch.pre_rename")
        self._poll_through_crash(mover)
        assert _hour_messages(warehouse, HOUR0) == [b"a"]
        assert staging.glob_files(staging_path("dc", HOUR0)) == []
        assert mover.moves[0].messages_moved == 1

    def test_crash_before_batch_cleanup_dedups_not_relands(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock)
        _stage(staging, "dc", HOUR0, "p1", [encode_envelope("h1", 0, b"a")])
        self._arm(f"logmover.{CATEGORY}.batch.pre_cleanup")
        result = self._poll_through_crash(mover)
        # The batch published before the crash; the retry must clean up
        # the staged input without landing the payload twice.
        assert result.batches[0].messages_landed == 0
        assert result.batches[0].duplicates_skipped == 1
        assert _hour_messages(warehouse, HOUR0) == [b"a"]
        assert staging.glob_files(staging_path("dc", HOUR0)) == []
        assert mover.moves[0].messages_moved == 1

    def _two_batches_due_to_seal(self):
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock)
        _stage(staging, "dc", HOUR0, "p1", [encode_envelope("h1", 0, b"a")])
        mover.poll(CATEGORY)
        clock.advance(BATCH_MS)
        _stage(staging, "dc", HOUR0, "p2", [encode_envelope("h1", 1, b"b")])
        mover.poll(CATEGORY)
        assert _hour_files(warehouse, HOUR0) == ["batch-00000",
                                                 "batch-00001"]
        clock.advance(MILLIS_PER_HOUR + DELAY_MS)
        return mover, warehouse

    def test_crash_before_seal_commit_keeps_the_batches(self):
        mover, warehouse = self._two_batches_due_to_seal()
        self._arm(f"logmover.{CATEGORY}.seal.pre_commit")
        with pytest.raises(InjectedCrash):
            mover.poll(CATEGORY, force=True)
        # Before the delete: the published batches still serve the hour.
        assert _hour_files(warehouse, HOUR0) == ["batch-00000",
                                                 "batch-00001"]
        mover.poll(CATEGORY, force=True)
        assert mover.sealed(HOUR0)
        assert _hour_files(warehouse, HOUR0) == ["part-00000"]
        assert _hour_messages(warehouse, HOUR0) == [b"a", b"b"]

    def test_crash_before_seal_rename_converges(self):
        mover, warehouse = self._two_batches_due_to_seal()
        self._arm(f"logmover.{CATEGORY}.seal.pre_rename")
        with pytest.raises(InjectedCrash):
            mover.poll(CATEGORY, force=True)
        # Between the delete and the rename: the hour directory is gone
        # and only the merged /_incoming copy holds the hour.
        assert not warehouse.is_dir(HOUR0.path(root=LOGS_ROOT))
        assert warehouse.is_dir(HOUR0.path(root=INCOMING_ROOT))
        # The next poll finishes that commit instead of rebuilding.
        mover.poll(CATEGORY, force=True)
        assert mover.sealed(HOUR0)
        assert not warehouse.is_dir(HOUR0.path(root=INCOMING_ROOT))
        assert _hour_files(warehouse, HOUR0) == ["part-00000"]
        assert _hour_messages(warehouse, HOUR0) == [b"a", b"b"]

    @pytest.mark.parametrize("site", [None, "seal.pre_commit",
                                      "seal.pre_rename"])
    def test_crashed_seal_ends_like_an_uninterrupted_one(self, site):
        # A columnar category: the seal's post-commit steps (the hour's
        # result, the files-written count, the segment) must also run
        # when a later poll finishes the commit a crash interrupted.
        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        clock.advance(MILLIS_PER_MINUTE)
        mover = _mover({"dc": staging}, warehouse, clock,
                       columnar_categories=[CATEGORY])
        for seq in range(2):
            event = ClientEvent.make(
                "web:home:timeline:stream:tweet:click", user_id=7,
                session_id="s", ip="10.0.0.1", timestamp=1000 * seq)
            _stage(staging, "dc", HOUR0, f"p{seq}",
                   [encode_envelope("h1", seq, event.to_bytes())])
            mover.poll(CATEGORY)
            clock.advance(BATCH_MS)
        clock.advance(MILLIS_PER_HOUR + DELAY_MS)
        if site is not None:
            self._arm(f"logmover.{CATEGORY}.{site}")
            with pytest.raises(InjectedCrash):
                mover.poll(CATEGORY, force=True)
        mover.poll(CATEGORY, force=True)
        assert mover.sealed(HOUR0)
        assert mover.moves[0].output_files == 1
        assert mover.moves[0].moved_at_ms == clock.now()
        assert segment_status(warehouse, HOUR0.path(root=LOGS_ROOT)) == \
            STATUS_FRESH
        assert get_default_registry().total(
            obs_names.MOVER_FILES_WRITTEN) == 1


class TestOinkWiring:
    def test_pipeline_polls_at_batch_cadence_and_records_seals(self):
        from repro.core.builder import SessionSequenceBuilder
        from repro.oink.pipelines import register_standard_pipeline
        from repro.oink.scheduler import Oink

        staging, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        mover = _mover({"dc": staging}, warehouse, clock,
                       batch_interval_ms=5 * MILLIS_PER_MINUTE)
        oink = Oink(clock)
        state = register_standard_pipeline(
            oink, mover, SessionSequenceBuilder(warehouse),
            category=CATEGORY)
        # An hourly consumer depending on the minute-cadence mover job:
        # its hour-H instance maps to the mover instance at H:00, so the
        # dependency resolves exactly as with the hourly mover.
        consumed = []
        oink.hourly("consumer", consumed.append, depends_on=["log_mover"])
        _stage(staging, "dc", HOUR0, "p1", [b"a"])
        oink.run_until(MILLIS_PER_HOUR + 10 * MILLIS_PER_MINUTE,
                       step_ms=5 * MILLIS_PER_MINUTE)
        # The mover job ran at micro-batch cadence, not hourly.
        assert len(oink.traces.successes("log_mover")) > 12
        assert state.polls
        assert HOUR0 in state.moved_hours
        assert mover.sealed(HOUR0)
        assert consumed == [0]
