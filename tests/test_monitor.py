"""Continuous monitoring: time-series store, quality audits, alerting."""

import pytest

from repro.clock import LogicalClock, MILLIS_PER_HOUR
from repro.obs import names
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.obs.monitor import (
    AlertEngine,
    CompletenessRule,
    DataQualityAuditor,
    DeltaRule,
    MonitorContext,
    PipelineMonitor,
    SeasonalRule,
    ThresholdRule,
    TimeSeriesStore,
    VERDICT_COMPLETE,
    VERDICT_INCOMPLETE,
    VERDICT_LATE,
    VERDICT_MISSING,
    format_alerts,
    format_audits,
    sparkline,
    standard_rules,
)
from repro.scribe.daemon import HourCounts

MINUTE = 60_000


@pytest.fixture
def fresh_registry():
    registry = MetricsRegistry()
    old = set_default_registry(registry)
    yield registry
    set_default_registry(old)


class TestTimeSeriesStore:
    def test_samples_counters_and_gauges(self, fresh_registry):
        fresh_registry.counter("reqs_total", host="a").inc(3)
        fresh_registry.gauge("depth").set(7)
        store = TimeSeriesStore()
        store.sample(1000)
        assert store.points("reqs_total", host="a") == [(1000, 3.0)]
        assert store.points("depth") == [(1000, 7.0)]
        assert store.kind("reqs_total") == "counter"
        assert store.kind("depth") == "gauge"

    def test_histograms_become_count_and_sum(self, fresh_registry):
        histogram = fresh_registry.histogram("lat_ms", stage="e")
        histogram.observe(10)
        histogram.observe(30)
        store = TimeSeriesStore()
        store.sample(500)
        assert store.points("lat_ms_count", stage="e") == [(500, 2.0)]
        assert store.points("lat_ms_sum", stage="e") == [(500, 40.0)]

    def test_same_instant_overwrites(self, fresh_registry):
        counter = fresh_registry.counter("reqs_total")
        counter.inc()
        store = TimeSeriesStore()
        store.sample(1000)
        counter.inc()
        store.sample(1000)  # same logical instant: no zero-dt artifact
        assert store.points("reqs_total") == [(1000, 2.0)]

    def test_rates_from_counter_deltas(self):
        points = [(0, 0.0), (1000, 5.0), (3000, 5.0), (4000, 9.0)]
        assert TimeSeriesStore.rates(points) == [
            (1000, 5.0), (3000, 0.0), (4000, 4.0)]

    def test_counter_reset_clamps_to_zero(self):
        points = [(0, 100.0), (1000, 2.0), (2000, 4.0)]
        assert TimeSeriesStore.rates(points) == [(1000, 0.0), (2000, 2.0)]

    def test_total_and_grouped_across_labels(self, fresh_registry):
        fresh_registry.counter("c_total", dc="east").inc(1)
        fresh_registry.counter("c_total", dc="west").inc(2)
        store = TimeSeriesStore()
        store.sample(1000)
        fresh_registry.counter("c_total", dc="east").inc(3)
        store.sample(2000)
        assert store.total_points("c_total") == [(1000, 3.0), (2000, 6.0)]
        assert store.total_rate_points("c_total") == [(2000, 3.0)]
        assert store.latest_total("c_total") == 6.0
        assert store.latest("c_total", dc="east") == 4.0
        assert TimeSeriesStore.rates(store.points("c_total", dc="east")) \
            == [(2000, 3.0)]

    def test_ring_buffer_bounds_history(self, fresh_registry):
        counter = fresh_registry.counter("c_total")
        store = TimeSeriesStore(max_samples=4)
        for i in range(10):
            counter.inc()
            store.sample(i * 1000)
        points = store.points("c_total")
        assert len(points) == 4
        assert points[0] == (6000, 7.0)

    def test_rejects_tiny_ring(self):
        with pytest.raises(ValueError):
            TimeSeriesStore(max_samples=1)

    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0, 0.0]) == "   "
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"
        assert len(sparkline(list(range(100)), width=10)) == 10


class _FakeMove:
    def __init__(self, hour, quarantined=0, moved_at_ms=None):
        self.hour = hour
        self.quarantined_messages = quarantined
        self.moved_at_ms = moved_at_ms


class _FakeMover:
    def __init__(self, landed=(), moves=()):
        self._landed = set(landed)
        self.moves = list(moves)

    def landed_identities(self, hour=None):
        return frozenset(self._landed)


class _FakeDaemon:
    def __init__(self, ledger):
        self._ledger = ledger

    def hour_ledger(self):
        return self._ledger


def _books(category, hour_index, ids, dropped_ids=()):
    counts = HourCounts(accepted=len(ids) + len(dropped_ids),
                        dropped=len(dropped_ids),
                        ids=set(ids) | set(dropped_ids),
                        dropped_ids=set(dropped_ids))
    return {(category, hour_index): counts}


class TestDataQualityAuditor:
    def test_complete_hour(self, fresh_registry):
        ids = {("h", 0), ("h", 1), ("h", 2)}
        daemon = _FakeDaemon(_books("cat", 0, ids))
        auditor = DataQualityAuditor(_FakeMover(landed=ids),
                                     daemons=[daemon])
        (audit,) = auditor.audit(MILLIS_PER_HOUR)
        assert audit.verdict == VERDICT_COMPLETE
        assert audit.accepted == 3
        assert audit.landed == 3
        assert audit.outstanding == 0
        assert audit.conserved

    def test_open_hours_are_skipped(self, fresh_registry):
        daemon = _FakeDaemon(_books("cat", 0, {("h", 0)}))
        auditor = DataQualityAuditor(_FakeMover(), daemons=[daemon])
        assert auditor.audit(MILLIS_PER_HOUR - 1) == []
        assert len(auditor.audit(MILLIS_PER_HOUR)) == 1

    def test_late_then_incomplete(self, fresh_registry):
        ids = {("h", 0), ("h", 1)}
        daemon = _FakeDaemon(_books("cat", 0, ids))
        mover = _FakeMover(landed={("h", 0)})
        auditor = DataQualityAuditor(mover, daemons=[daemon],
                                     grace_ms=30 * MINUTE)
        # Inside the grace window: outstanding data is merely late.
        (audit,) = auditor.audit(MILLIS_PER_HOUR + MINUTE)
        assert audit.verdict == VERDICT_LATE
        assert audit.outstanding == 1
        assert audit.conserved
        # Past the deadline with partial data: incomplete.
        (audit,) = auditor.audit(MILLIS_PER_HOUR + 31 * MINUTE)
        assert audit.verdict == VERDICT_INCOMPLETE

    def test_missing_when_nothing_landed(self, fresh_registry):
        daemon = _FakeDaemon(_books("cat", 0, {("h", 0)}))
        auditor = DataQualityAuditor(_FakeMover(), daemons=[daemon],
                                     grace_ms=0)
        (audit,) = auditor.audit(MILLIS_PER_HOUR)
        assert audit.verdict == VERDICT_MISSING

    def test_quarantine_is_an_accounted_sink(self, fresh_registry):
        from repro.hdfs.layout import hour_for_millis

        ids = {("h", 0), ("h", 1)}
        daemon = _FakeDaemon(_books("cat", 0, ids))
        hour = hour_for_millis("cat", 0)
        mover = _FakeMover(landed={("h", 0)},
                           moves=[_FakeMove(hour, quarantined=1,
                                            moved_at_ms=MILLIS_PER_HOUR
                                            + 5 * MINUTE)])
        auditor = DataQualityAuditor(mover, daemons=[daemon], grace_ms=0)
        (audit,) = auditor.audit(2 * MILLIS_PER_HOUR)
        assert audit.verdict == VERDICT_COMPLETE
        assert audit.quarantined == 1
        assert audit.outstanding == 0
        assert audit.lag_ms == 5 * MINUTE
        assert audit.conserved

    def test_drops_count_against_the_accept_hour(self, fresh_registry):
        daemon = _FakeDaemon(_books("cat", 0, {("h", 1)},
                                    dropped_ids={("h", 0)}))
        auditor = DataQualityAuditor(_FakeMover(landed={("h", 1)}),
                                     daemons=[daemon])
        (audit,) = auditor.audit(MILLIS_PER_HOUR)
        assert audit.verdict == VERDICT_COMPLETE
        assert audit.accepted == 2
        assert audit.dropped == 1
        assert audit.landed == 1
        assert audit.conserved

    def test_metrics_mirrored(self, fresh_registry):
        ids = {("h", 0)}
        daemon = _FakeDaemon(_books("cat", 0, ids))
        auditor = DataQualityAuditor(_FakeMover(landed=ids),
                                     daemons=[daemon])
        auditor.audit(MILLIS_PER_HOUR)
        auditor.audit(MILLIS_PER_HOUR)
        assert fresh_registry.total(names.QUALITY_AUDITS) == 2
        assert fresh_registry.gauge(names.QUALITY_HOURS,
                                    verdict="complete").value == 1
        assert fresh_registry.gauge(names.QUALITY_OUTSTANDING).value == 0

    def test_format_audits_table(self, fresh_registry):
        ids = {("h", 0)}
        daemon = _FakeDaemon(_books("cat", 0, ids))
        auditor = DataQualityAuditor(_FakeMover(landed=ids),
                                     daemons=[daemon])
        text = format_audits(auditor.audit(MILLIS_PER_HOUR))
        assert "cat/2012/01/01/00" in text
        assert "complete" in text
        assert format_audits([]).startswith("completeness: no closed")


def _ctx(store, now_ms, audits=()):
    return MonitorContext(store=store, audits=list(audits), now_ms=now_ms)


class TestAlertRules:
    def test_threshold_fires_and_clears(self, fresh_registry):
        gauge = fresh_registry.gauge("depth")
        store = TimeSeriesStore()
        rule = ThresholdRule("deep", "depth", threshold=10)
        gauge.set(5)
        store.sample(1000)
        assert rule.evaluate(_ctx(store, 1000)) is None
        gauge.set(25)
        store.sample(2000)
        assert "depth=25 > 10" in rule.evaluate(_ctx(store, 2000))
        gauge.set(0)
        store.sample(3000)
        assert rule.evaluate(_ctx(store, 3000)) is None

    def test_threshold_debounce(self, fresh_registry):
        gauge = fresh_registry.gauge("depth")
        store = TimeSeriesStore()
        rule = ThresholdRule("deep", "depth", threshold=0, for_samples=2)
        gauge.set(9)
        store.sample(1000)
        assert rule.evaluate(_ctx(store, 1000)) is None  # first sample
        store.sample(2000)
        assert rule.evaluate(_ctx(store, 2000)) is not None

    def test_delta_first_evaluation_is_baseline(self, fresh_registry):
        counter = fresh_registry.counter("failovers_total")
        counter.inc(5)  # history from before monitoring started
        store = TimeSeriesStore()
        store.sample(1000)
        rule = DeltaRule("fo", "failovers_total", clear_after=2)
        assert rule.evaluate(_ctx(store, 1000)) is None
        counter.inc()
        store.sample(2000)
        assert "+1" in rule.evaluate(_ctx(store, 2000))
        # Holds through clear_after-1 quiet ticks, then clears.
        store.sample(3000)
        assert rule.evaluate(_ctx(store, 3000)) is not None
        store.sample(4000)
        assert rule.evaluate(_ctx(store, 4000)) is None

    def test_seasonal_needs_prior_day_baseline(self, fresh_registry):
        counter = fresh_registry.counter("accepted_total")
        store = TimeSeriesStore(max_samples=600)
        rule = SeasonalRule("seasonal", "accepted_total", tolerance=0.5)
        # Day 0: steady 10 msgs per 10-minute sample, all 24 hours.
        now = 0
        fired_day0 = []
        for __ in range(24 * 6):
            now += 10 * MINUTE
            counter.inc(10)
            store.sample(now)
            fired_day0.append(rule.evaluate(_ctx(store, now)))
        assert not any(fired_day0)  # no baseline on the first day
        # Day 1: the same cadence but traffic collapses -> fires.
        messages = []
        for __ in range(6):
            now += 10 * MINUTE
            counter.inc(0)
            store.sample(now)
            messages.append(rule.evaluate(_ctx(store, now)))
        assert any(messages)
        assert "below seasonal baseline" in [m for m in messages if m][0]

    def test_seasonal_quiet_on_normal_day(self, fresh_registry):
        counter = fresh_registry.counter("accepted_total")
        store = TimeSeriesStore(max_samples=600)
        rule = SeasonalRule("seasonal", "accepted_total", tolerance=0.5)
        now = 0
        messages = []
        for __ in range(30 * 6):  # a day and a quarter, steady rate
            now += 10 * MINUTE
            counter.inc(10)
            store.sample(now)
            messages.append(rule.evaluate(_ctx(store, now)))
        assert not any(messages)

    def test_completeness_rule_lists_unhealthy_hours(self, fresh_registry):
        from repro.hdfs.layout import hour_for_millis

        store = TimeSeriesStore()
        rule = CompletenessRule()
        healthy = _audit_stub(hour_for_millis("cat", 0), VERDICT_COMPLETE)
        sick = _audit_stub(hour_for_millis("cat", MILLIS_PER_HOUR),
                           VERDICT_INCOMPLETE)
        assert rule.evaluate(_ctx(store, 0, [healthy])) is None
        message = rule.evaluate(_ctx(store, 0, [healthy, sick]))
        assert "1 unhealthy hour(s)" in message
        assert "cat/2012/01/01/01=incomplete" in message


def _audit_stub(hour, verdict):
    from repro.obs.monitor import HourAudit

    return HourAudit(hour=hour, accepted=1, dropped=0, landed=1,
                     quarantined=0, outstanding=0, verdict=verdict,
                     deadline_ms=0)


class TestAlertEngine:
    def test_episode_lifecycle_and_metrics(self, fresh_registry):
        gauge = fresh_registry.gauge("depth")
        store = TimeSeriesStore()
        engine = AlertEngine([ThresholdRule("deep", "depth", threshold=0)])
        gauge.set(5)
        store.sample(1000)
        engine.evaluate(_ctx(store, 1000))
        (alert,) = engine.active()
        assert alert.rule == "deep" and alert.fired_at_ms == 1000
        assert fresh_registry.counter(names.ALERTS_FIRED,
                                      rule="deep").value == 1
        assert fresh_registry.total(names.ALERTS_ACTIVE) == 1
        # Still firing: same episode, refreshed message.
        gauge.set(9)
        store.sample(2000)
        engine.evaluate(_ctx(store, 2000))
        assert engine.fired("deep") == 1
        assert "depth=9" in engine.active()[0].message
        # Recovery resolves it.
        gauge.set(0)
        store.sample(3000)
        engine.evaluate(_ctx(store, 3000))
        assert engine.all_resolved()
        (episode,) = engine.episodes("deep")
        assert episode.resolved_at_ms == 3000
        assert fresh_registry.counter(names.ALERTS_RESOLVED,
                                      rule="deep").value == 1
        assert fresh_registry.total(names.ALERTS_ACTIVE) == 0

    def test_duplicate_rule_names_rejected(self, fresh_registry):
        with pytest.raises(ValueError):
            AlertEngine([ThresholdRule("x", "m"), ThresholdRule("x", "m")])

    def test_format_alerts(self, fresh_registry):
        gauge = fresh_registry.gauge("depth")
        store = TimeSeriesStore()
        engine = AlertEngine([ThresholdRule("deep", "depth", threshold=0)])
        assert format_alerts(engine) == "alerts: none fired"
        gauge.set(5)
        store.sample(90 * MINUTE)
        engine.evaluate(_ctx(store, 90 * MINUTE))
        text = format_alerts(engine)
        assert "FIRING" in text and "1h30m" in text


class TestPipelineMonitor:
    def test_tick_samples_audits_and_alerts(self, fresh_registry):
        ids = {("h", 0)}
        daemon = _FakeDaemon(_books("cat", 0, ids))
        monitor = PipelineMonitor(
            auditor=DataQualityAuditor(_FakeMover(), daemons=[daemon]),
            rules=[CompletenessRule()])
        fresh_registry.counter("anything_total").inc()
        ctx = monitor.tick(MILLIS_PER_HOUR + 31 * MINUTE)
        assert monitor.ticks == 1
        assert ctx.audits == monitor.audits
        assert monitor.audits[0].verdict == VERDICT_MISSING
        assert len(monitor.engine.active()) == 1
        assert fresh_registry.total(names.MONITOR_SAMPLES) == 1

    def test_standard_rules_cover_failure_modes(self):
        assert sorted(rule.name for rule in standard_rules()) == [
            "aggregator_failover", "completeness", "delivery_backlog",
            "mover_crash", "seasonal_accepted", "staging_outage"]

    def test_render_panel(self, fresh_registry):
        fresh_registry.counter(names.DAEMON_ACCEPTED, host="h").inc(4)
        monitor = PipelineMonitor(rules=[])
        monitor.tick(1000)
        fresh_registry.counter(names.DAEMON_ACCEPTED, host="h").inc(4)
        monitor.tick(2000)
        text = monitor.render()
        assert "monitor: 2 tick(s)" in text
        assert "accepted msg/s" in text
        assert "alerts: none fired" in text


class TestDaemonHourLedger:
    def _daemon(self, clock, max_buffer=None):
        from repro.scribe.daemon import ScribeDaemon
        from repro.scribe.discovery import AggregatorDiscovery
        from repro.scribe.zookeeper import ZooKeeper

        return ScribeDaemon("h", AggregatorDiscovery(ZooKeeper(), "dc"),
                            resolve=lambda name: None, clock=clock,
                            max_buffer=max_buffer)

    def test_accepts_keyed_by_hour(self, fresh_registry):
        from repro.scribe.message import LogEntry

        clock = LogicalClock()
        daemon = self._daemon(clock)
        daemon.log(LogEntry("cat", b"a"))
        clock.advance(MILLIS_PER_HOUR)
        daemon.log(LogEntry("cat", b"b"))
        ledger = daemon.hour_ledger()
        assert ledger[("cat", 0)].accepted == 1
        assert ledger[("cat", 1)].accepted == 1
        assert ledger[("cat", 0)].expected_ids() == {("h", 0)}

    def test_drop_oldest_attributed_to_accept_hour(self, fresh_registry):
        from repro.scribe.message import LogEntry

        clock = LogicalClock()
        daemon = self._daemon(clock, max_buffer=2)
        daemon.log(LogEntry("cat", b"old"))
        clock.advance(MILLIS_PER_HOUR)
        daemon.log(LogEntry("cat", b"x"))
        daemon.log(LogEntry("cat", b"y"))  # evicts b"old" from hour 0
        ledger = daemon.hour_ledger()
        assert ledger[("cat", 0)].dropped == 1
        assert ledger[("cat", 0)].expected_ids() == set()
        assert ledger[("cat", 1)].dropped == 0
        assert len(ledger[("cat", 1)].expected_ids()) == 2


class TestMoverMonitoringHooks:
    def test_moved_at_ms_stamped(self, fresh_registry):
        from repro.hdfs.layout import hour_for_millis
        from repro.logmover.mover import LogMover
        from repro.scribe.cluster import ScribeDeployment
        from repro.scribe.message import LogEntry

        deployment = ScribeDeployment(["east"], num_hosts=1,
                                      num_aggregators=1, seed=3)
        datacenter = deployment.datacenters["east"]
        datacenter.log_from(0, LogEntry("cat", b"m"))
        deployment.flush_all()
        deployment.clock.advance(MILLIS_PER_HOUR + 5 * MINUTE)
        mover = LogMover({"east": datacenter.staging},
                         deployment.warehouse, clock=deployment.clock)
        mover.move_hour(hour_for_millis("cat", 0), require_complete=False)
        (result,) = mover.moves
        assert result.moved_at_ms == MILLIS_PER_HOUR + 5 * MINUTE


class TestOinkQualityAudit:
    def test_quality_audit_job_fills_state(self, fresh_registry):
        from repro.core.builder import SessionSequenceBuilder
        from repro.core.event import CLIENT_EVENTS_CATEGORY
        from repro.logmover.mover import LogMover
        from repro.oink.pipelines import register_standard_pipeline
        from repro.oink.scheduler import Oink
        from repro.scribe.cluster import ScribeDeployment
        from repro.scribe.message import LogEntry

        deployment = ScribeDeployment(["dc"], num_hosts=1,
                                      num_aggregators=1, seed=2)
        datacenter = deployment.datacenters["dc"]
        clock = deployment.clock
        oink = Oink(clock)
        mover = LogMover({"dc": datacenter.staging}, deployment.warehouse,
                         clock=clock)
        monitor = PipelineMonitor(
            auditor=DataQualityAuditor(mover, daemons=datacenter.daemons),
            rules=standard_rules())
        state = register_standard_pipeline(
            oink, mover, SessionSequenceBuilder(deployment.warehouse),
            monitor=monitor)

        for i in range(5):
            datacenter.log_from(0, LogEntry(CLIENT_EVENTS_CATEGORY,
                                            b"m%d" % i))
        datacenter.flush()
        clock.advance(MILLIS_PER_HOUR)
        oink.run_pending()

        assert oink.traces.succeeded("quality_audit", 0)
        (audit,) = state.audits
        assert audit.verdict == VERDICT_COMPLETE
        assert audit.accepted == 5
        assert audit.landed == 5
        assert monitor.engine.all_resolved()
        assert fresh_registry.total(names.QUALITY_AUDITS) >= 1

    def test_monitorless_pipeline_has_no_audit_job(self, fresh_registry):
        from repro.core.builder import SessionSequenceBuilder
        from repro.hdfs.namenode import HDFS
        from repro.logmover.mover import LogMover
        from repro.oink.pipelines import register_standard_pipeline
        from repro.oink.scheduler import Oink

        clock = LogicalClock()
        oink = Oink(clock)
        warehouse = HDFS()
        register_standard_pipeline(
            oink, LogMover({"dc": HDFS()}, warehouse),
            SessionSequenceBuilder(warehouse))
        clock.advance(MILLIS_PER_HOUR)
        oink.run_pending()
        assert not oink.traces.for_job("quality_audit")


class TestChaosIntegration:
    def test_storm_fires_and_resolves_alerts(self, fresh_registry):
        from repro.faults.chaos import run_chaos

        report = run_chaos(1, hours=1, monitor=True)
        assert report.ok, report.summary()
        assert report.alerts_fired >= 3
        assert report.alerts_unresolved == 0
        engine = report.monitor.engine
        for rule in ("staging_outage", "aggregator_failover",
                     "mover_crash"):
            assert engine.fired(rule) >= 1, rule
        assert all(v == VERDICT_COMPLETE
                   for v in report.hour_verdicts.values())

    def test_clean_run_fires_nothing(self, fresh_registry):
        from repro.faults.chaos import run_chaos

        report = run_chaos(0, hours=1, monitor=True, faults=False)
        assert report.ok, report.summary()
        assert report.alerts_fired == 0
        assert report.faults_injected == 0
        assert report.hour_verdicts
        assert all(v == VERDICT_COMPLETE
                   for v in report.hour_verdicts.values())

    def test_mover_crash_counter(self, fresh_registry):
        from repro.faults.chaos import run_chaos

        report = run_chaos(1, hours=1, monitor=True)
        assert report.ok
        assert fresh_registry.total(names.MOVER_CRASHES) >= 1
