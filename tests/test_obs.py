"""Observability layer: registry semantics, exposition, pipeline tracing."""

import hashlib
import json

import pytest

from repro.analytics.dashboard import format_pipeline_health, pipeline_health
from repro.clock import MILLIS_PER_HOUR
from repro.hdfs.layout import hour_for_millis
from repro.logmover.mover import LogMover
from repro.logmover.sharded import ShardedLogMover
from repro.mapreduce.engine import run_job
from repro.mapreduce.inputformats import InMemoryInputFormat
from repro.mapreduce.job import MapReduceJob
from repro.obs import names
from repro.obs.metrics import (
    MetricTypeError,
    MetricsRegistry,
    get_default_registry,
    set_default_registry,
)
from repro.obs.trace import (
    Tracer,
    get_default_tracer,
    set_default_tracer,
)
from repro.scribe.cluster import ScribeDeployment
from repro.scribe.message import CategoryConfig, LogEntry

CATEGORY = "client_events"


@pytest.fixture
def fresh_obs():
    """A private registry + enabled tracer installed as the defaults."""
    registry = MetricsRegistry()
    tracer = Tracer(enabled=True)
    old_registry = set_default_registry(registry)
    old_tracer = set_default_tracer(tracer)
    yield registry, tracer
    set_default_registry(old_registry)
    set_default_tracer(old_tracer)


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("reqs_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("reqs_total").inc(-1)

    def test_same_labels_same_series(self):
        registry = MetricsRegistry()
        registry.counter("reqs_total", host="a", dc="e").inc()
        # label order must not matter
        registry.counter("reqs_total", dc="e", host="a").inc()
        registry.counter("reqs_total", host="b", dc="e").inc()
        assert registry.counter("reqs_total", host="a", dc="e").value == 2
        assert registry.total("reqs_total") == 3


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.gauge("depth")
        with pytest.raises(MetricTypeError):
            registry.counter("depth")


class TestHistogram:
    def test_percentiles_nearest_rank(self):
        histogram = MetricsRegistry().histogram("lat_ms")
        for value in range(1, 101):
            histogram.observe(value)
        assert histogram.percentile(0.5) == 50
        assert histogram.percentile(0.95) == 95
        assert histogram.percentile(0.99) == 99
        assert histogram.percentile(0.0) == 1
        assert histogram.percentile(1.0) == 100
        assert histogram.count == 100
        assert histogram.sum == 5050

    def test_empty_percentile_is_none(self):
        histogram = MetricsRegistry().histogram("lat_ms")
        assert histogram.percentile(0.5) is None

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("lat_ms").percentile(1.5)

    def test_merged_across_labels(self):
        registry = MetricsRegistry()
        registry.histogram("lat_ms", stage="a").observe(1)
        registry.histogram("lat_ms", stage="b").observe(3)
        merged = registry.merged_histogram("lat_ms")
        assert merged.count == 2
        assert merged.sum == 4

    def test_percentile_does_not_rewrite_history(self):
        """Sorting in place used to reorder ``values()`` and re-add
        ``sum`` in sorted order: 1e16 before a percentile, 1e16 + 2
        after it."""
        histogram = MetricsRegistry().histogram("lat_ms")
        for value in (1e16, 1.0, 1.0):
            histogram.observe(value)
        assert histogram.sum == 1e16
        assert histogram.percentile(0.5) == 1.0
        assert histogram.values() == [1e16, 1.0, 1.0]
        assert histogram.sum == 1e16
        assert histogram.count == 3
        histogram.observe(0.5)
        assert histogram.percentile(0.0) == 0.5
        assert histogram.percentile(1.0) == 1e16


class TestExposition:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", handler="index").inc(3)
        registry.gauge("depth").set(2)
        histogram = registry.histogram("latency_ms", stage="end")
        for value in range(1, 11):
            histogram.observe(value)
        return registry

    def test_text_format_is_stable(self):
        expected = (
            "# TYPE depth gauge\n"
            "depth 2\n"
            "# TYPE latency_ms summary\n"
            'latency_ms{quantile="0.5",stage="end"} 5\n'
            'latency_ms{quantile="0.95",stage="end"} 10\n'
            'latency_ms{quantile="0.99",stage="end"} 10\n'
            'latency_ms_sum{stage="end"} 55\n'
            'latency_ms_count{stage="end"} 10\n'
            "# TYPE requests_total counter\n"
            'requests_total{handler="index"} 3\n'
        )
        assert self._populated().expose() == expected

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", path='a"b\\c\nd').inc()
        line = registry.expose().splitlines()[1]
        assert line == 'c_total{path="a\\"b\\\\c\\nd"} 1'

    def test_snapshot_is_jsonable(self):
        snapshot = self._populated().snapshot()
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped["depth"][0]["value"] == 2
        assert round_tripped["latency_ms"][0]["p50"] == 5
        assert round_tripped["latency_ms"][0]["count"] == 10
        assert round_tripped["requests_total"][0]["labels"] == {
            "handler": "index"}

    def test_empty_registry_exposes_empty(self):
        assert MetricsRegistry().expose() == ""

    def test_histograms_expose_as_summary(self):
        """Quantile series are the Prometheus *summary* type; the old
        ``histogram`` TYPE promised ``_bucket`` series we never emit."""
        text = self._populated().expose()
        assert "# TYPE latency_ms summary\n" in text
        assert "histogram" not in text
        # The JSON snapshot keeps the internal kind name.
        snapshot = self._populated().snapshot()
        assert snapshot["latency_ms"][0]["type"] == "histogram"


#: sha256 of ``expose()`` after :func:`_fixed_ingest_run`, captured at
#: 8fc72cc, before the registry memoised its look-ups.
FIXED_INGEST_EXPOSITION_SHA256 = (
    "4458f3890497832530897aaff5c48c17238f89463b1e6dbc92c103c552096114")
FIXED_INGEST_CATEGORIES = ("ingest_a", "ingest_b", "ingest_d")


def _fixed_ingest_run():
    """480 entries through 2 datacenters onto a 2-shard warehouse, with
    one datacenter's aggregators crashed and restarted (durable WAL
    replay) mid-run; untraced, so the registry holds no histograms."""
    deployment = ScribeDeployment(
        ["east", "west"], num_hosts=2, num_aggregators=2,
        durable_aggregators=True, seed=11, warehouse_shards=2)
    for category in FIXED_INGEST_CATEGORIES:
        deployment.categories.register(
            CategoryConfig(category, max_file_records=25))
    east = deployment.datacenters["east"]
    for n in range(480):
        deployment.clock.advance_to(n * 22_500)
        if n == 200:
            for name in east.live_aggregator_names():
                east.crash_aggregator(name)
        if n == 300:
            for name in sorted(east.aggregators):
                east.restart_aggregator(name)
        datacenter = deployment.datacenters[("east", "west")[n % 2]]
        datacenter.log_from((n // 2) % 2, LogEntry(
            FIXED_INGEST_CATEGORIES[n % 3], b"m%05d" % n))
    deployment.flush_all()
    mover = ShardedLogMover(
        {name: dc.staging for name, dc in deployment.datacenters.items()},
        deployment.warehouse, backend="threads", clock=deployment.clock)
    mover.move_hours([hour_for_millis(c, h * MILLIS_PER_HOUR)
                      for c in FIXED_INGEST_CATEGORIES for h in range(3)],
                     require_complete=False)


class TestLookupMemo:
    """The registry memoises (kind, name, labels in call order) look-ups;
    none of that may change which series a call resolves to."""

    def test_kind_conflict_still_raises_after_memoising(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(MetricTypeError):
            registry.gauge("x")
        with pytest.raises(MetricTypeError):
            registry.histogram("x")

    def test_int_and_unhashable_label_values_resolve(self):
        registry = MetricsRegistry()
        registry.counter("c_total", shard=3).inc()
        registry.counter("c_total", shard="3").inc()
        registry.counter("c_total", shard=3).inc()
        assert registry.counter("c_total", shard="3").value == 3
        tagged = registry.counter("c_total", tags=["a", "b"])
        tagged.inc()
        assert registry.counter("c_total", tags=["a", "b"]) is tagged
        assert registry.counter("c_total", tags="['a', 'b']") is tagged
        # Equal-hashing values that print differently stay apart.
        registry.counter("flag_total", on=1).inc()
        registry.counter("flag_total", on=True).inc(5)
        assert registry.counter("flag_total", on=1).value == 1
        assert registry.counter("flag_total", on="True").value == 5

    def test_label_orders_share_one_series(self):
        registry = MetricsRegistry()
        first = registry.counter("reqs_total", host="a", dc="e")
        assert registry.counter("reqs_total", dc="e", host="a") is first
        assert registry.counter("reqs_total", host="a", dc="e") is first
        assert len(registry) == 1

    def test_swapped_registry_gets_the_next_counts(self):
        mine, theirs = MetricsRegistry(), MetricsRegistry()
        old = set_default_registry(mine)
        try:
            deployment = ScribeDeployment(["east"], num_hosts=1,
                                          num_aggregators=1)
            east = deployment.datacenters["east"]
            east.log_from(0, LogEntry(CATEGORY, b"a"))
            set_default_registry(theirs)
            east.log_from(0, LogEntry(CATEGORY, b"b"))
            east.log_from(0, LogEntry(CATEGORY, b"c"))
        finally:
            set_default_registry(old)
        host = east.daemons[0].host
        assert mine.counter(names.DAEMON_ACCEPTED, host=host).value == 1
        assert theirs.counter(names.DAEMON_ACCEPTED, host=host).value == 2
        assert theirs.total(names.AGGREGATOR_RECEIVED) == 2

    def test_fixed_ingest_exposition_is_unchanged(self):
        registry = MetricsRegistry()
        old = set_default_registry(registry)
        try:
            _fixed_ingest_run()
        finally:
            set_default_registry(old)
        text = registry.expose()
        assert "summary" not in text  # counters and gauges only
        assert hashlib.sha256(text.encode()).hexdigest() \
            == FIXED_INGEST_EXPOSITION_SHA256


class TestDefaults:
    def test_default_registry_swap(self):
        mine = MetricsRegistry()
        old = set_default_registry(mine)
        try:
            assert get_default_registry() is mine
        finally:
            set_default_registry(old)
        assert get_default_registry() is old

    def test_default_tracer_disabled_records_nothing(self):
        tracer = Tracer()
        assert tracer.record("t1", "hop", 0) is None
        tracer.bind_path("/p", ("t1",))
        assert tracer.ids_for_path("/p") == ()
        assert len(tracer) == 0

    def test_tracer_ids_are_deterministic(self):
        tracer = Tracer(enabled=True)
        assert tracer.new_trace_id() == "t00000001"
        assert tracer.new_trace_id() == "t00000002"


class TestTracerBounds:
    def test_max_traces_evicts_oldest(self, fresh_obs):
        registry, __ = fresh_obs
        tracer = Tracer(enabled=True, max_traces=3)
        for i in range(5):
            tracer.record(f"t{i}", "hop", start_ms=i)
        assert len(tracer) == 3
        assert tracer.trace_ids() == ["t2", "t3", "t4"]
        assert registry.counter(names.TRACER_EVICTED,
                                kind="trace").value == 2

    def test_existing_trace_growth_is_not_an_eviction(self, fresh_obs):
        registry, __ = fresh_obs
        tracer = Tracer(enabled=True, max_traces=2)
        tracer.record("t1", "hop_a", start_ms=0)
        tracer.record("t2", "hop_a", start_ms=1)
        # More spans on a known trace must not evict anything.
        tracer.record("t1", "hop_b", start_ms=2)
        assert tracer.trace_ids() == ["t1", "t2"]
        assert tracer.hops("t1") == ["hop_a", "hop_b"]
        assert registry.total(names.TRACER_EVICTED) == 0

    def test_path_bindings_bounded_too(self, fresh_obs):
        registry, __ = fresh_obs
        tracer = Tracer(enabled=True, max_traces=2)
        for i in range(4):
            tracer.bind_path(f"/staging/f{i}", (f"t{i}",))
        assert tracer.ids_for_path("/staging/f0") == ()
        assert tracer.ids_for_path("/staging/f3") == ("t3",)
        assert registry.counter(names.TRACER_EVICTED,
                                kind="path").value == 2

    def test_unbounded_when_disabled_cap(self):
        tracer = Tracer(enabled=True, max_traces=None)
        for i in range(300):
            tracer.record(f"t{i}", "hop", start_ms=i)
        assert len(tracer) == 300

    def test_rejects_non_positive_cap(self):
        with pytest.raises(ValueError):
            Tracer(enabled=True, max_traces=0)


def _run_pipeline_hour(registry, tracer, num_messages=3,
                       advance_ms=1000, mover_delay_ms=MILLIS_PER_HOUR):
    """Deliver a few entries daemon→warehouse; returns (deployment, mover)."""
    deployment = ScribeDeployment(["east"], num_hosts=1, num_aggregators=1,
                                  seed=3)
    datacenter = deployment.datacenters["east"]
    for i in range(num_messages):
        datacenter.log_from(0, LogEntry(CATEGORY, b"m%d" % i))
        deployment.clock.advance(advance_ms)
    deployment.flush_all()
    deployment.clock.advance(mover_delay_ms)
    mover = LogMover({"east": datacenter.staging}, deployment.warehouse,
                     clock=deployment.clock)
    mover.move_hour(hour_for_millis(CATEGORY, 0), require_complete=False)
    return deployment, mover


class TestPipelineTracing:
    def test_entry_trace_covers_every_hop(self, fresh_obs):
        """One entry's spans cover daemon → aggregator → staging → mover
        → warehouse, in pipeline order, under the logical clock."""
        registry, tracer = fresh_obs
        _run_pipeline_hour(registry, tracer, num_messages=3)

        assert len(tracer.trace_ids()) == 3
        first = tracer.trace_ids()[0]
        assert tracer.hops(first) == list(names.PIPELINE_HOPS)

        spans = tracer.spans(first)
        by_name = {span.name: span for span in spans}
        assert by_name[names.SPAN_DAEMON_ENQUEUE].attrs["outcome"] == "sent"
        assert by_name[names.SPAN_AGGREGATOR_RECEIVE].attrs[
            "aggregator"] == "east-agg-000"
        staging_file = by_name[names.SPAN_STAGING_WRITE].attrs["path"]
        assert by_name[names.SPAN_MOVER_DEMUX].attrs["path"] == staging_file
        assert by_name[names.SPAN_WAREHOUSE_LAND].attrs[
            "directory"].startswith("/logs/")
        # Timestamps never go backwards along the pipeline.
        starts = [span.start_ms for span in spans]
        assert starts == sorted(starts)

    def test_end_to_end_latency_observed(self, fresh_obs):
        registry, tracer = fresh_obs
        _run_pipeline_hour(registry, tracer, num_messages=3,
                           advance_ms=1000)
        first = tracer.trace_ids()[0]
        # enqueued at t=0; landed after 3 s of traffic + the mover delay
        assert tracer.end_to_end_ms(first) == 3000 + MILLIS_PER_HOUR
        histogram = registry.merged_histogram(
            names.PIPELINE_DELIVERY_LATENCY)
        assert histogram.count == 3
        assert histogram.percentile(0.99) == 3000 + MILLIS_PER_HOUR

    def test_loss_point_when_aggregators_crash(self, fresh_obs):
        registry, tracer = fresh_obs
        deployment = ScribeDeployment(["east"], num_hosts=1,
                                      num_aggregators=1, seed=3)
        datacenter = deployment.datacenters["east"]
        datacenter.log_from(0, LogEntry(CATEGORY, b"doomed"))
        for name in list(datacenter.aggregators):
            datacenter.crash_aggregator(name)
        (trace_id,) = tracer.trace_ids()
        # Entry reached the aggregator but was lost before the staging
        # write: the trace's last hop is its loss point.
        assert tracer.last_hop(trace_id) == names.SPAN_AGGREGATOR_RECEIVE
        assert registry.total(names.AGGREGATOR_LOST_IN_CRASH) == 1

    def test_untraced_entries_record_no_spans(self):
        registry = MetricsRegistry()
        old_registry = set_default_registry(registry)
        try:
            _run_pipeline_hour(registry, get_default_tracer())
            assert len(get_default_tracer().trace_ids()) == 0
            # ... but metrics still flow into the registry.
            assert registry.total(names.DAEMON_SENT) == 3
        finally:
            set_default_registry(old_registry)


class TestLayerMetrics:
    def test_scribe_and_mover_counters(self, fresh_obs):
        registry, __ = fresh_obs
        _run_pipeline_hour(registry, __, num_messages=5)
        assert registry.total(names.DAEMON_ACCEPTED) == 5
        assert registry.total(names.DAEMON_SENT) == 5
        assert registry.total(names.AGGREGATOR_RECEIVED) == 5
        assert registry.total(names.AGGREGATOR_WRITTEN) == 5
        assert registry.total(names.MOVER_MESSAGES_MOVED) == 5
        assert registry.total(names.MOVER_HOURS_MOVED) == 1
        assert registry.total(names.MOVER_BYTES_MOVED) > 0

    def test_daemon_buffer_metrics_and_drop_oldest(self, fresh_obs):
        registry, tracer = fresh_obs
        from repro.scribe.daemon import ScribeDaemon
        from repro.scribe.discovery import AggregatorDiscovery
        from repro.scribe.zookeeper import ZooKeeper

        daemon = ScribeDaemon("h", AggregatorDiscovery(ZooKeeper(), "dcx"),
                              resolve=lambda name: None, max_buffer=3)
        for i in range(5):
            daemon.log(LogEntry("cat", b"m%d" % i))
        assert daemon.buffered == 3
        assert daemon.stats.buffered_total == 5
        assert daemon.stats.dropped == 2
        assert [entry.message for entry, _key, _rank in daemon._buffer] == [
            b"m2", b"m3", b"m4"]
        assert registry.total(names.DAEMON_BUFFER_DEPTH) == 3
        assert registry.total(names.DAEMON_DROPPED) == 2

    def test_mapreduce_bridge(self, fresh_obs):
        registry, __ = fresh_obs

        def mapper(record, ctx):
            ctx.emit(record, 1)

        def reducer(key, values, ctx):
            ctx.emit(key, sum(values))

        job = MapReduceJob(name="wc",
                           input_format=InMemoryInputFormat(["a", "b", "a"]),
                           mapper=mapper, reducer=reducer)
        run_job(job)
        assert registry.counter(names.MAPREDUCE_JOBS, job="wc").value == 1
        assert registry.counter("mapreduce_io_map_input_records_total",
                                job="wc").value == 3
        wall = registry.merged_histogram(names.MAPREDUCE_JOB_WALL_TIME)
        assert wall.count == 1

    def test_oink_trace_metrics(self, fresh_obs):
        registry, __ = fresh_obs
        from repro.clock import LogicalClock, MILLIS_PER_HOUR as HOUR
        from repro.oink.scheduler import Oink

        clock = LogicalClock()
        oink = Oink(clock)
        oink.hourly("ok", lambda period: None)

        def boom(period):
            raise RuntimeError("nope")

        oink.hourly("bad", boom)
        clock.advance(HOUR)
        oink.run_pending()
        assert registry.counter(names.OINK_JOB_RUNS, job="ok",
                                outcome="success").value == 1
        assert registry.counter(names.OINK_JOB_RUNS, job="bad",
                                outcome="failure").value == 1
        assert registry.merged_histogram(names.OINK_JOB_DURATION).count == 2


class TestPipelineHealthPanel:
    def test_panel_from_registry(self, fresh_obs):
        registry, __ = fresh_obs
        _run_pipeline_hour(registry, __, num_messages=4)
        health = pipeline_health(registry)
        assert health.accepted == 4
        assert health.landed == 4
        assert health.delivery_rate == 1.0
        assert health.backlog == 0
        assert health.latency_count == 4
        assert health.latency_p99_ms is not None
        text = format_pipeline_health(health)
        assert "delivery rate 100.00%" in text
        assert "e2e latency" in text

    def test_empty_panel(self):
        health = pipeline_health(MetricsRegistry())
        assert health.delivery_rate is None
        assert health.monitored is False
        assert health.hours_by_verdict == {}
        text = format_pipeline_health(health)
        assert "no traced deliveries" in text
        assert "alerts" not in text

    def test_partial_registry_never_raises(self):
        """Any subset of pipeline metrics renders without KeyError."""
        registry = MetricsRegistry()
        registry.counter(names.DAEMON_ACCEPTED, host="h").inc(7)
        health = pipeline_health(registry)
        assert health.accepted == 7
        assert health.landed == 0
        assert health.delivery_rate == 0.0
        assert "delivery rate 0.00%" in format_pipeline_health(health)

        registry = MetricsRegistry()
        registry.gauge(names.DAEMON_BUFFER_DEPTH, host="h").set(12)
        registry.histogram(names.PIPELINE_DELIVERY_LATENCY,
                           category="c").observe(250)
        health = pipeline_health(registry)
        assert health.backlog == 12
        assert health.latency_count == 1
        assert health.delivery_rate is None
        format_pipeline_health(health)  # must not raise

    def test_monitored_panel_section(self):
        """Monitor metrics light up the alerts/hours section."""
        registry = MetricsRegistry()
        registry.counter(names.QUALITY_AUDITS).inc(3)
        registry.counter(names.ALERTS_FIRED, rule="staging_outage").inc(2)
        registry.counter(names.ALERTS_RESOLVED, rule="staging_outage").inc(2)
        registry.gauge(names.ALERTS_ACTIVE).set(0)
        registry.gauge(names.QUALITY_HOURS, verdict="complete").set(4)
        registry.gauge(names.QUALITY_HOURS, verdict="late").set(0)
        health = pipeline_health(registry)
        assert health.monitored is True
        assert health.alerts_fired == 2
        assert health.hours_by_verdict == {"complete": 4}
        text = format_pipeline_health(health)
        assert "fired 2" in text
        assert "complete=4" in text
        assert "late=" not in text  # zero-count verdicts are elided
