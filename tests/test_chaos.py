"""Chaos soak tests: conservation holds under every scenario's storm."""

import pytest

from repro.faults.chaos import (
    HOURLY,
    PARTITION,
    STREAMING,
    ChaosReport,
    chaos_plan,
    run_chaos,
)
from repro.faults.injector import get_default_injector
from repro.obs.metrics import MetricsRegistry, set_default_registry

SCENARIOS = [HOURLY, STREAMING, PARTITION]


@pytest.fixture(autouse=True)
def _fresh_registry():
    old = set_default_registry(MetricsRegistry())
    yield
    set_default_registry(old)


class TestChaosPlan:
    def test_plan_has_the_acceptance_faults(self):
        plan = chaos_plan(HOURLY, hours=2)
        sites = [rule.site for rule in plan.rules]
        assert any(s.startswith("hdfs.") for s in sites)
        assert any(s.startswith("aggregator.") for s in sites)
        assert any("pre_rename" in s for s in sites)
        assert any("pre_cleanup" in s for s in sites)

    def test_noise_windows_end_before_hour_boundaries(self):
        for scenario in SCENARIOS:
            plan = chaos_plan(scenario, hours=3, shard=0)
            for rule in plan.rules:
                if rule.probability < 1.0:
                    assert rule.end_ms is not None
                    assert rule.end_ms % 3_600_000 < 55 * 60_000

    def test_partition_plan_names_the_lost_shard(self):
        sites = [rule.site for rule in chaos_plan(PARTITION, 2, 3).rules]
        assert "hdfs.warehouse-shard-3.write" in sites


def _hourly_evidence(report):
    # The storm actually happened: faults fired, retries happened, and
    # real duplicates were absorbed.
    assert report.faults_injected > 0
    assert report.duplicates_skipped > 0
    assert report.mover_restarts >= 2  # both mover crash sites


def _streaming_evidence(report):
    # Micro-batches actually happened: far more landings than hours.
    assert report.batches_landed > 2 * report.hours
    assert report.hours_sealed >= report.hours
    # The held-datacenter WAL replay re-opened a sealed hour and a closed
    # session, the completeness alert saw it, and everything resolved.
    assert report.late_reopens >= 1
    assert report.sessions_reopened >= 1
    assert report.rollup_corrections >= 1
    assert report.mover_restarts >= 2
    assert report.alerts_fired > 0
    assert report.alerts_unresolved == 0


def _partition_evidence(report):
    # The overload machinery engaged: the shard loss deferred exactly
    # one boundary move, backpressure fired and bulk traffic was shed.
    assert report.moves_deferred == 1
    assert report.qos_sampled > 0
    assert report.backpressure_engaged > 0


EVIDENCE = {"hourly": _hourly_evidence, "streaming": _streaming_evidence,
            "partition": _partition_evidence}

#: Each scenario's seed-1, two-hour summary as the three soaks printed it
#: before they became Scenario values run by one driver. Identical seeds
#: must give identical storms; re-capture only with a stated reason.
#: Re-captured once: streaming ``alerts_fired`` 6 -> 7 (and resolved), when
#: the monitor began sampling at attach -- the two micro-batch crashes of
#: the first poll, before the first tick, are now a ``mover_crash``
#: episode of their own. The faults injected did not change.
PINNED_SUMMARIES = {
    "hourly": (
        "chaos soak: seed=1 hours=2 PASS\n"
        "  accepted=576 landed=576 dropped=0 quarantined=0\n"
        "  faults_injected=34 retry_attempts=25 duplicates_skipped=8 "
        "mover_restarts=2"),
    "streaming": (
        "chaos soak (streaming): seed=1 hours=2 PASS\n"
        "  accepted=576 landed=576 dropped=0 quarantined=0\n"
        "  faults_injected=888 retry_attempts=353 duplicates_skipped=32 "
        "mover_restarts=3\n"
        "  batches_landed=25 hours_sealed=2 late_reopens=1\n"
        "  sessions_closed=51 sessions_reopened=3 rollup_days=1 "
        "rollup_corrections=1\n"
        "  alerts_fired=7 alerts_resolved=7 alerts_unresolved=0 "
        "hours_complete=2/2"),
    "partition": (
        "chaos soak (partition): seed=1 hours=2 PASS\n"
        "  accepted=1008 landed=981 dropped=27 quarantined=0\n"
        "  faults_injected=84 retry_attempts=84 duplicates_skipped=8 "
        "mover_restarts=1\n"
        "  shards=4 moves_deferred=1 backpressure_engaged=2 qos_sampled=27"),
}


class TestRunChaos:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("scenario", SCENARIOS,
                             ids=lambda scenario: scenario.name)
    def test_soak_passes(self, scenario, seed):
        report = run_chaos(seed, hours=2, scenario=scenario)
        assert report.ok, report.summary()
        assert report.accepted > 0
        assert report.accepted == (report.landed + report.dropped +
                                   report.quarantined)
        EVIDENCE[scenario.name](report)

    @pytest.mark.parametrize("scenario", SCENARIOS,
                             ids=lambda scenario: scenario.name)
    def test_seed_one_summary_is_pinned(self, scenario):
        report = run_chaos(1, hours=2, scenario=scenario)
        assert report.summary() == PINNED_SUMMARIES[scenario.name]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_partition_alert_audit_passes(self, seed):
        # The warehouse shard loss only defers a move; it must not be
        # counted against the staging outage's alert.
        report = run_chaos(seed, hours=2, scenario=PARTITION, monitor=True)
        assert report.ok, report.summary()
        assert report.alerts_fired > 0

    def test_identical_seeds_identical_storms(self):
        a = run_chaos(5, hours=1)
        set_default_registry(MetricsRegistry())
        b = run_chaos(5, hours=1)
        assert (a.accepted, a.landed, a.faults_injected) == \
            (b.accepted, b.landed, b.faults_injected)

    def test_injector_uninstalled_afterwards(self):
        run_chaos(1, hours=1)
        assert get_default_injector() is None

    def test_rejects_zero_hours(self):
        with pytest.raises(ValueError):
            run_chaos(0, hours=0)

    def test_partition_rejects_one_hour(self):
        # The shard outage spans the hour-0 boundary.
        with pytest.raises(ValueError):
            run_chaos(1, hours=1, scenario=PARTITION)

    def test_report_summary_mentions_outcome(self):
        report = ChaosReport(seed=9, hours=1)
        assert "PASS" in report.summary()
        report.violations.append("something broke")
        assert "FAIL" in report.summary()
        assert "something broke" in report.summary()


class TestStreamingChaos:
    def test_streaming_plan_arms_micro_batch_crash_sites(self):
        plan = chaos_plan(STREAMING, hours=2)
        sites = [rule.site for rule in plan.rules]
        assert any("batch.pre_rename" in s for s in sites)
        assert any("batch.pre_cleanup" in s for s in sites)
        assert any("seal.pre_commit" in s for s in sites)
        assert any(s.startswith("hdfs.") for s in sites)
        assert any(s.startswith("aggregator.") for s in sites)

    def test_streaming_fault_free_run_is_quiet(self):
        report = run_chaos(3, hours=2, scenario=STREAMING, faults=False)
        assert report.ok, report.summary()
        assert report.late_reopens == 0
        assert report.alerts_fired == 0
        assert report.hours_sealed >= report.hours

    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_hour_soak_alerts_on_first_poll_crashes(self, seed):
        # Both micro-batch crashes fire in the first poll, before the
        # monitor's first tick; the alert audit must still see them.
        report = run_chaos(seed, hours=1, scenario=STREAMING)
        assert report.ok, report.summary()
        assert report.accepted == report.landed > 0
        assert report.monitor.engine.fired("mover_crash") >= 1
        assert report.alerts_unresolved == 0

    def test_streaming_summary_mentions_mode(self):
        report = run_chaos(1, hours=1, scenario=STREAMING)
        assert "(streaming)" in report.summary()
        assert "batches_landed" in report.summary()
