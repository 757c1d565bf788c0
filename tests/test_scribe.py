"""Scribe tests: messages, discovery, aggregators, daemons, failover."""

import collections
import dataclasses

import pytest

from repro.clock import MILLIS_PER_HOUR, LogicalClock
from repro.hdfs.layout import STAGING_ROOT, hour_for_millis, staging_path
from repro.hdfs.namenode import HDFS
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.scribe import aggregator as aggregator_module
from repro.scribe.aggregator import (
    AggregatorDownError,
    ScribeAggregator,
    decode_messages,
    encode_messages,
)
from repro.scribe.cluster import Datacenter, ScribeDeployment
from repro.scribe.daemon import ScribeDaemon
from repro.scribe.discovery import (
    AggregatorDiscovery,
    register_aggregator,
    registration_path,
)
from repro.scribe.message import (
    ENVELOPE_MAGIC,
    CategoryConfig,
    CategoryRegistry,
    InvalidCategoryError,
    LogEntry,
    decode_envelope,
    encode_envelope,
)
from repro.scribe.zookeeper import ZooKeeper
from repro.thriftlike.types import ProtocolError


class TestLogEntry:
    def test_valid_entry(self):
        entry = LogEntry("client_events", b"payload")
        assert entry.size == len("client_events") + len(b"payload")

    @pytest.mark.parametrize("bad", ["Has Space", "UPPER", "semi;colon", ""])
    def test_invalid_category(self, bad):
        with pytest.raises(InvalidCategoryError):
            LogEntry(bad, b"x")

    def test_message_must_be_bytes(self):
        with pytest.raises(TypeError):
            LogEntry("ok", "not bytes")

    def test_stamped_copies_every_field_and_leaves_the_original(self):
        entry = LogEntry("ok", b"payload")
        copy = entry.stamped("t1", "east-host-0000", 7)
        assert {f.name: getattr(copy, f.name)
                for f in dataclasses.fields(LogEntry)} == {
            "category": "ok", "message": b"payload", "trace_id": "t1",
            "origin": "east-host-0000", "seq": 7}
        assert copy == entry and copy is not entry
        assert (entry.trace_id, entry.origin, entry.seq) == (None, None, None)


class TestCategoryRegistry:
    def test_default_config_on_demand(self):
        registry = CategoryRegistry(default_codec="none")
        config = registry.get("newcat")
        assert config.codec == "none"
        assert "newcat" in registry.categories()

    def test_registered_config_wins(self):
        registry = CategoryRegistry()
        registry.register(CategoryConfig("special", codec="bz2",
                                         max_file_records=5))
        assert registry.get("special").max_file_records == 5

    def test_invalid_max_file_records(self):
        with pytest.raises(ValueError):
            CategoryConfig("c", max_file_records=0)


class TestMessageFraming:
    def test_roundtrip(self):
        messages = [b"a", b"bb", b""]
        # empty messages are encodable (mover checks reject them later)
        assert decode_messages(encode_messages(messages)) == messages


class TestEnvelope:
    def test_roundtrip_and_legacy_frames(self):
        wire = encode_envelope("dc1-host-07", 300, b"\x00payload")
        assert decode_envelope(wire) == ("dc1-host-07", 300, b"\x00payload")
        assert decode_envelope(encode_envelope("h", 0, b"")) == ("h", 0, b"")
        # No magic: delivered verbatim, whatever the bytes look like.
        assert decode_envelope(b"plain") == (None, None, b"plain")
        assert decode_envelope(ENVELOPE_MAGIC[:-1]) == (
            None, None, ENVELOPE_MAGIC[:-1])

    @pytest.mark.parametrize("tail", [
        b"",            # ends before the origin length
        b"\x85",        # ends inside the origin length varint
        b"\x05ab",      # origin shorter than its length, nothing after
        b"\x02ab",      # whole origin, no seq
        b"\x02ab\x80",  # ends inside the seq varint
    ])
    def test_truncated_envelope_is_a_protocol_error(self, tail):
        with pytest.raises(ProtocolError, match="envelope"):
            decode_envelope(ENVELOPE_MAGIC + tail)

    def test_short_origin_is_not_passed_off_as_whole(self):
        """Origin length says 5, three bytes follow: the parent returned
        the three as the origin whenever a seq byte happened to be next."""
        with pytest.raises(ProtocolError, match="envelope"):
            decode_envelope(ENVELOPE_MAGIC + b"\x05abc")

    def test_every_prefix_of_an_envelope_header_is_rejected(self):
        wire = encode_envelope("origin-host", 2 ** 40, b"")
        for cut in range(len(ENVELOPE_MAGIC), len(wire)):
            with pytest.raises(ProtocolError, match="envelope"):
                decode_envelope(wire[:cut])


class TestDiscovery:
    def test_register_and_list(self):
        zk = ZooKeeper()
        register_aggregator(zk, "dc1", "agg-a")
        register_aggregator(zk, "dc1", "agg-b")
        discovery = AggregatorDiscovery(zk, "dc1", seed=1)
        assert discovery.live_aggregators() == ["agg-a", "agg-b"]

    def test_pick_with_no_aggregators(self):
        zk = ZooKeeper()
        discovery = AggregatorDiscovery(zk, "empty-dc")
        assert discovery.pick() is None

    def test_session_close_removes_registration(self):
        zk = ZooKeeper()
        session = register_aggregator(zk, "dc1", "agg-a")
        discovery = AggregatorDiscovery(zk, "dc1")
        assert discovery.live_aggregators() == ["agg-a"]
        session.close()
        assert discovery.live_aggregators() == []

    def test_pick_excludes_failed(self):
        zk = ZooKeeper()
        register_aggregator(zk, "dc1", "agg-a")
        register_aggregator(zk, "dc1", "agg-b")
        discovery = AggregatorDiscovery(zk, "dc1", seed=0)
        for __ in range(20):
            assert discovery.pick(exclude="agg-a") == "agg-b"

    def test_exclude_ignored_when_sole_survivor(self):
        zk = ZooKeeper()
        register_aggregator(zk, "dc1", "agg-a")
        discovery = AggregatorDiscovery(zk, "dc1")
        assert discovery.pick(exclude="agg-a") == "agg-a"

    def test_registration_path_shape(self):
        assert registration_path("dc9") == "/scribe/aggregators/dc9"


def _make_aggregator(durable=False):
    zk = ZooKeeper()
    clock = LogicalClock()
    staging = HDFS()
    aggregator = ScribeAggregator("agg-1", "dc1", zk, staging, clock,
                                  durable=durable)
    aggregator.start()
    return aggregator, staging, clock, zk


class TestAggregator:
    def test_receive_and_flush_writes_staging(self):
        aggregator, staging, clock, __ = _make_aggregator()
        for i in range(10):
            aggregator.receive(LogEntry("cat", b"m%d" % i))
        aggregator.flush()
        hour = hour_for_millis("cat", clock.now())
        files = staging.glob_files(staging_path("dc1", hour))
        assert len(files) == 1
        messages = decode_messages(staging.open_bytes(files[0]))
        assert messages == [b"m%d" % i for i in range(10)]

    def test_max_file_records_triggers_roll(self):
        zk, clock, staging = ZooKeeper(), LogicalClock(), HDFS()
        categories = CategoryRegistry()
        categories.register(CategoryConfig("cat", max_file_records=3))
        aggregator = ScribeAggregator("a", "dc1", zk, staging, clock,
                                      categories=categories)
        aggregator.start()
        for i in range(7):
            aggregator.receive(LogEntry("cat", b"x"))
        # two files rolled automatically (3+3), one message pending
        assert aggregator.stats.files_written == 2
        aggregator.flush()
        assert aggregator.stats.files_written == 3

    def test_crashed_aggregator_rejects(self):
        aggregator, *_ = _make_aggregator()
        aggregator.crash()
        with pytest.raises(AggregatorDownError):
            aggregator.receive(LogEntry("cat", b"x"))

    def test_crash_loses_pending_without_wal(self):
        aggregator, staging, clock, __ = _make_aggregator(durable=False)
        aggregator.receive(LogEntry("cat", b"x"))
        aggregator.crash()
        assert aggregator.stats.lost_in_crash == 1
        aggregator.start()
        aggregator.flush()
        assert aggregator.stats.written == 0

    def test_durable_aggregator_replays_wal(self):
        aggregator, staging, clock, __ = _make_aggregator(durable=True)
        for i in range(5):
            aggregator.receive(LogEntry("cat", b"m%d" % i))
        aggregator.crash()
        assert aggregator.stats.lost_in_crash == 0
        aggregator.start()
        aggregator.flush()
        assert aggregator.stats.written == 5

    def test_hdfs_outage_buffers_on_disk(self):
        aggregator, staging, clock, __ = _make_aggregator()
        staging.set_available(False)
        aggregator.receive(LogEntry("cat", b"x"))
        aggregator.flush()
        assert aggregator.disk_buffered_files == 1
        assert aggregator.stats.buffered_on_disk == 1
        staging.set_available(True)
        assert aggregator.retry_disk_buffer() == 1
        assert aggregator.disk_buffered_files == 0
        assert aggregator.stats.written == 1
        assert aggregator.stats.buffered_on_disk == 0

    def test_shutdown_flushes(self):
        aggregator, staging, clock, zk = _make_aggregator()
        aggregator.receive(LogEntry("cat", b"x"))
        aggregator.shutdown()
        assert aggregator.stats.written == 1
        assert not aggregator.alive
        assert zk.session_count() == 0

    def test_messages_bucketed_by_hour(self):
        aggregator, staging, clock, __ = _make_aggregator()
        aggregator.receive(LogEntry("cat", b"hour0"))
        clock.advance(60 * 60 * 1000)
        aggregator.receive(LogEntry("cat", b"hour1"))
        aggregator.flush()
        hour0 = hour_for_millis("cat", 0)
        hour1 = hour_for_millis("cat", clock.now())
        assert staging.glob_files(staging_path("dc1", hour0))
        assert staging.glob_files(staging_path("dc1", hour1))


class TestDaemonFailover:
    def _datacenter(self, **kwargs):
        zk = ZooKeeper()
        clock = LogicalClock()
        return Datacenter("dc1", zk, clock, num_hosts=2, num_aggregators=2,
                          **kwargs), zk

    def test_normal_delivery(self):
        dc, __ = self._datacenter()
        for i in range(50):
            dc.log_from(i, LogEntry("cat", b"m%d" % i), wrap=True)
        dc.flush()
        assert dc.total_written() == 50

    def test_failover_to_live_aggregator(self):
        dc, __ = self._datacenter()
        dc.log_from(0, LogEntry("cat", b"before"))
        victim = dc.daemons[0].connected_to
        dc.crash_aggregator(victim)
        dc.log_from(0, LogEntry("cat", b"after"))
        dc.flush()
        assert dc.daemons[0].connected_to != victim
        assert dc.daemons[0].stats.failovers >= 1
        # the 'after' message was delivered despite the crash
        survivor = dc.daemons[0].connected_to
        assert dc.aggregators[survivor].stats.received >= 1

    def test_buffering_when_all_aggregators_down(self):
        dc, __ = self._datacenter()
        for name in list(dc.aggregators):
            dc.crash_aggregator(name)
        for i in range(5):
            dc.log_from(0, LogEntry("cat", b"x"))
        assert dc.daemons[0].buffered == 5
        dc.restart_aggregator(next(iter(dc.aggregators)))
        flushed = dc.daemons[0].flush()
        assert flushed == 5
        assert dc.daemons[0].buffered == 0
        assert dc.daemons[0].stats.resent == 5

    def test_bounded_buffer_drops_oldest(self):
        zk = ZooKeeper()
        discovery = AggregatorDiscovery(zk, "dcx")
        daemon = ScribeDaemon("h", discovery, resolve=lambda n: None,
                              max_buffer=3)
        for i in range(5):
            daemon.log(LogEntry("cat", b"m%d" % i))
        assert daemon.buffered == 3

    def test_live_aggregator_names(self):
        dc, __ = self._datacenter()
        name = next(iter(dc.aggregators))
        dc.crash_aggregator(name)
        assert name not in dc.live_aggregator_names()


class TestDeployment:
    def test_multi_datacenter_conservation(self):
        deployment = ScribeDeployment(["east", "west"], num_hosts=3,
                                      num_aggregators=2, seed=7)
        for i in range(200):
            dc = deployment.datacenters["east" if i % 2 else "west"]
            dc.log_from(i, LogEntry("client_events", b"m%d" % i),
                        wrap=True)
        deployment.flush_all()
        assert deployment.total_accepted() == 200
        assert deployment.total_staged() == 200

    def test_needs_a_datacenter(self):
        with pytest.raises(ValueError):
            ScribeDeployment([])

    def test_durable_deployment_survives_crash(self):
        deployment = ScribeDeployment(["dc"], num_hosts=2,
                                      num_aggregators=2,
                                      durable_aggregators=True, seed=1)
        dc = deployment.datacenters["dc"]
        for i in range(100):
            dc.log_from(i, LogEntry("client_events", b"m%d" % i), wrap=True)
        for name in list(dc.aggregators):
            dc.crash_aggregator(name)
            dc.restart_aggregator(name)
        dc.flush()
        lost = sum(a.stats.lost_in_crash for a in dc.aggregators.values())
        assert lost == 0
        assert dc.total_written() == 100


class TestDiscoveryWatchCache:
    def test_steady_state_uses_cache(self):
        zk = ZooKeeper()
        register_aggregator(zk, "dc1", "agg-a")
        discovery = AggregatorDiscovery(zk, "dc1", seed=0)
        for __ in range(10):
            discovery.pick()
        assert discovery.zk_reads == 1  # one read, then the cache

    def test_crash_invalidates_cache(self):
        zk = ZooKeeper()
        session = register_aggregator(zk, "dc1", "agg-a")
        register_aggregator(zk, "dc1", "agg-b")
        discovery = AggregatorDiscovery(zk, "dc1", seed=0)
        assert discovery.live_aggregators() == ["agg-a", "agg-b"]
        session.close()  # ephemeral node vanishes -> watch fires
        assert discovery.live_aggregators() == ["agg-b"]
        assert discovery.zk_reads == 2

    def test_new_registration_seen(self):
        zk = ZooKeeper()
        register_aggregator(zk, "dc1", "agg-a")
        discovery = AggregatorDiscovery(zk, "dc1", seed=0)
        discovery.live_aggregators()
        register_aggregator(zk, "dc1", "agg-b")
        assert "agg-b" in discovery.live_aggregators()

    def test_empty_root_not_cached(self):
        zk = ZooKeeper()
        discovery = AggregatorDiscovery(zk, "dc-new", seed=0)
        assert discovery.live_aggregators() == []
        register_aggregator(zk, "dc-new", "agg-a")
        assert discovery.live_aggregators() == ["agg-a"]


class TestLoadBalancing:
    def test_traffic_spreads_across_aggregators(self):
        """§2: the ZooKeeper listing "mechanism is used for balancing
        load across aggregators" -- random picks over the ephemeral
        children spread daemons' traffic roughly evenly."""
        zk = ZooKeeper()
        clock = LogicalClock()
        dc = Datacenter("dc", zk, clock, num_hosts=40, num_aggregators=4,
                        seed=3)
        for i in range(400):
            dc.log_from(i, LogEntry("cat", b"m%d" % i), wrap=True)
        received = sorted(a.stats.received for a in dc.aggregators.values())
        assert sum(received) == 400
        # no aggregator is starved or hot-spotted
        assert received[0] > 400 / 4 * 0.4
        assert received[-1] < 400 / 4 * 2.0


COST_CATEGORIES = ("cost_a", "cost_b")
COST_ENTRIES = 2_000
COST_HOURS = 2


def _cost_entries():
    return [LogEntry(COST_CATEGORIES[n % 2], b"c%05d" % n)
            for n in range(COST_ENTRIES)]


def _log_through_fresh_deployment(entries, host_offset=0):
    """Log ``entries`` over two hours from 2 hosts; returns the deployment
    (not yet flushed)."""
    deployment = ScribeDeployment(["east"], num_hosts=2, num_aggregators=2,
                                  seed=3)
    east = deployment.datacenters["east"]
    step_ms = COST_HOURS * MILLIS_PER_HOUR // len(entries)
    for n, entry in enumerate(entries):
        deployment.clock.advance_to(n * step_ms)
        east.log_from((n // 2 + host_offset) % 2, entry)
    return deployment


def _staged_files(deployment):
    deployment.flush_all()
    return [(path, dc.staging.open_bytes(path))
            for dc in deployment.datacenters.values()
            for path in sorted(dc.staging.glob_files(STAGING_ROOT))]


class TestPerMessageCost:
    """One accepted message pays for the message only: counted by calls,
    so the bound holds on any host."""

    @pytest.fixture(autouse=True)
    def fresh_registry(self):
        registry = MetricsRegistry()
        old = set_default_registry(registry)
        yield registry
        set_default_registry(old)

    def test_log_calls_are_bounded_per_series_and_per_hour(
            self, monkeypatch, fresh_registry):
        entries = _cost_entries()
        resolved = collections.Counter()
        resolve = MetricsRegistry._resolve

        def counting_resolve(registry, name, labels, cls):
            resolved[(cls.kind, name, tuple(sorted(
                (k, str(v)) for k, v in labels.items())))] += 1
            return resolve(registry, name, labels, cls)

        replaced, hours_built, validated = [], [], []
        real_replace = dataclasses.replace
        real_hour_for_millis = aggregator_module.hour_for_millis
        real_post_init = LogEntry.__post_init__

        def counting_post_init(entry):
            validated.append(entry)
            real_post_init(entry)

        monkeypatch.setattr(MetricsRegistry, "_resolve", counting_resolve)
        monkeypatch.setattr(dataclasses, "replace", lambda *a, **k: (
            replaced.append(a), real_replace(*a, **k))[1])
        monkeypatch.setattr(aggregator_module, "hour_for_millis",
                            lambda *a: (hours_built.append(a),
                                        real_hour_for_millis(*a))[1])
        monkeypatch.setattr(LogEntry, "__post_init__", counting_post_init)

        deployment = _log_through_fresh_deployment(entries)
        aggregators = deployment.datacenters["east"].aggregators
        # The running pending count agrees with what has not rolled yet.
        assert sum(a.pending_messages for a in aggregators.values()) == (
            deployment.total_accepted() - deployment.total_staged())
        deployment.flush_all()
        assert [a.pending_messages for a in aggregators.values()] == [0, 0]

        assert deployment.total_staged() == COST_ENTRIES
        assert resolved and max(resolved.values()) == 1
        assert len(resolved) <= len(fresh_registry)
        assert replaced == [] and validated == []
        assert 0 < len(hours_built) <= (
            len(aggregators) * len(COST_CATEGORIES) * COST_HOURS)

    def test_relogging_the_same_entries_stages_identical_bytes(self):
        """The harness re-logs the same objects every round: stamping
        must copy, never write delivery metadata into the caller's
        entry (a first pass from the other host would then leak its
        origin into every later run)."""
        entries = _cost_entries()
        _log_through_fresh_deployment(entries, host_offset=1)
        first = _staged_files(_log_through_fresh_deployment(entries))
        second = _staged_files(_log_through_fresh_deployment(entries))
        assert first and first == second
        copies = [LogEntry(e.category, e.message) for e in entries]
        assert first == _staged_files(_log_through_fresh_deployment(copies))
        assert all(e.origin is None and e.seq is None and e.trace_id is None
                   for e in entries)
