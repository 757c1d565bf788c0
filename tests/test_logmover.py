"""Log mover tests: barrier, merging, sanity checks, atomic slide."""

import pytest

from repro.clock import LogicalClock
from repro.faults.injector import (
    KIND_CRASH,
    KIND_UNAVAILABLE,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    set_default_injector,
)
from repro.faults.retry import RetryPolicy
from repro.hdfs.layout import LOGS_ROOT, LogHour, staging_path
from repro.hdfs.namenode import HDFS, HDFSError
from repro.logmover.checks import (
    SanityCheckError,
    check_max_message_size,
    check_no_empty_messages,
    check_nonempty,
)
from repro.logmover.mover import IncompleteHourError, LogMover
from repro.obs import names as obs_names
from repro.obs.metrics import (
    MetricsRegistry,
    get_default_registry,
    set_default_registry,
)
from repro.scribe.aggregator import decode_messages, encode_messages
from repro.scribe.message import encode_envelope

HOUR = LogHour("client_events", 2012, 3, 7, 10)


def _stage(staging: HDFS, datacenter: str, part: str,
           messages, codec="zlib") -> None:
    path = f"{staging_path(datacenter, HOUR)}/{part}"
    staging.create(path, encode_messages(messages), codec=codec)


def _warehouse_messages(warehouse: HDFS):
    out = []
    for path in warehouse.glob_files(HOUR.path(root=LOGS_ROOT)):
        out.extend(decode_messages(warehouse.open_bytes(path)))
    return out


class TestChecks:
    def test_nonempty(self):
        with pytest.raises(SanityCheckError):
            check_nonempty("/p", [])
        check_nonempty("/p", [b"x"])

    def test_no_empty_messages(self):
        with pytest.raises(SanityCheckError):
            check_no_empty_messages("/p", [b"x", b""])
        check_no_empty_messages("/p", [b"x"])

    def test_max_message_size(self):
        check = check_max_message_size(4)
        check("/p", [b"1234"])
        with pytest.raises(SanityCheckError):
            check("/p", [b"12345"])

    def test_error_carries_path_and_reason(self):
        try:
            check_nonempty("/some/file", [])
        except SanityCheckError as exc:
            assert exc.path == "/some/file"
            assert "empty" in exc.reason


class TestBarrier:
    def test_not_ready_until_all_datacenters_staged(self):
        s1, s2, warehouse = HDFS(), HDFS(), HDFS()
        mover = LogMover({"dc1": s1, "dc2": s2}, warehouse)
        _stage(s1, "dc1", "p1", [b"a"])
        assert not mover.hour_ready(HOUR)
        _stage(s2, "dc2", "p1", [b"b"])
        assert mover.hour_ready(HOUR)

    def test_move_incomplete_raises(self):
        s1, s2, warehouse = HDFS(), HDFS(), HDFS()
        mover = LogMover({"dc1": s1, "dc2": s2}, warehouse)
        _stage(s1, "dc1", "p1", [b"a"])
        with pytest.raises(IncompleteHourError):
            mover.move_hour(HOUR)

    def test_producers_declaration_narrows_barrier(self):
        s1, s2, warehouse = HDFS(), HDFS(), HDFS()
        mover = LogMover({"dc1": s1, "dc2": s2}, warehouse,
                         producers={"client_events": ["dc1"]})
        _stage(s1, "dc1", "p1", [b"a"])
        assert mover.hour_ready(HOUR)
        result = mover.move_hour(HOUR)
        assert result.messages_moved == 1

    def test_force_move_without_barrier(self):
        s1, s2, warehouse = HDFS(), HDFS(), HDFS()
        mover = LogMover({"dc1": s1, "dc2": s2}, warehouse)
        _stage(s1, "dc1", "p1", [b"a"])
        result = mover.move_hour(HOUR, require_complete=False)
        assert result.messages_moved == 1


class TestMove:
    def test_messages_conserved_across_datacenters(self):
        s1, s2, warehouse = HDFS(), HDFS(), HDFS()
        mover = LogMover({"dc1": s1, "dc2": s2}, warehouse)
        _stage(s1, "dc1", "p1", [b"a1", b"a2"])
        _stage(s1, "dc1", "p2", [b"a3"])
        _stage(s2, "dc2", "p1", [b"b1", b"b2"])
        result = mover.move_hour(HOUR)
        assert result.messages_moved == 5
        assert sorted(_warehouse_messages(warehouse)) == [
            b"a1", b"a2", b"a3", b"b1", b"b2"]

    def test_small_files_merged(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse,
                         target_file_bytes=10 ** 6)
        for i in range(20):
            _stage(s1, "dc1", f"p{i:02d}", [b"m%d" % i])
        result = mover.move_hour(HOUR)
        assert result.input_files == 20
        assert result.output_files == 1

    def test_target_file_bytes_splits_output(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse, target_file_bytes=100)
        _stage(s1, "dc1", "p1", [b"x" * 60 for __ in range(10)])
        result = mover.move_hour(HOUR)
        assert result.output_files > 1

    def test_staged_files_deleted_after_move(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [b"a"])
        mover.move_hour(HOUR)
        assert s1.glob_files(staging_path("dc1", HOUR)) == []

    def test_keep_staged_files_when_asked(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [b"a"])
        mover.move_hour(HOUR, delete_staged=False)
        assert len(s1.glob_files(staging_path("dc1", HOUR))) == 1

    def test_quarantine_bad_file_keeps_good_ones(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "good", [b"fine"])
        _stage(s1, "dc1", "bad", [b"ok", b""])  # empty message inside
        result = mover.move_hour(HOUR)
        assert result.messages_moved == 1
        assert len(result.quarantined) == 1
        assert "bad" in result.quarantined[0][0]

    def test_atomic_slide_replaces_existing_hour(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [b"v1"])
        mover.move_hour(HOUR)
        _stage(s1, "dc1", "p2", [b"v2"])
        mover.move_hour(HOUR)
        assert _warehouse_messages(warehouse) == [b"v2"]

    def test_no_incoming_leftovers(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [b"a"])
        mover.move_hour(HOUR)
        assert warehouse.glob_files("/_incoming") == []

    def test_move_ready_hours_skips_unready(self):
        s1, s2, warehouse = HDFS(), HDFS(), HDFS()
        mover = LogMover({"dc1": s1, "dc2": s2}, warehouse)
        other = LogHour("client_events", 2012, 3, 7, 11)
        _stage(s1, "dc1", "p1", [b"a"])
        _stage(s2, "dc2", "p1", [b"b"])
        # 'other' hour staged only in dc1
        s1.create(f"{staging_path('dc1', other)}/p1",
                  encode_messages([b"c"]), codec="zlib")
        results = mover.move_ready_hours([HOUR, other])
        assert len(results) == 1
        assert results[0].hour == HOUR

    def test_moves_audit_trail(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [b"a"])
        mover.move_hour(HOUR)
        assert len(mover.moves) == 1
        assert mover.moves[0].messages_moved == 1

    def test_requires_a_staging_cluster(self):
        with pytest.raises(ValueError):
            LogMover({}, HDFS())


class _FlakyHDFS(HDFS):
    """Fails the Nth create call: injects a crash mid-merge."""

    def __init__(self, fail_on_create: int, **kwargs):
        super().__init__(**kwargs)
        self._creates = 0
        self._fail_on = fail_on_create

    def create(self, path, data, codec="none", overwrite=False):
        self._creates += 1
        if self._creates == self._fail_on:
            raise HDFSError("simulated crash during merge")
        return super().create(path, data, codec=codec, overwrite=overwrite)


class TestAtomicSlideUnderFailure:
    def test_failure_mid_merge_leaves_no_partial_hour(self):
        """The atomic slide guarantee: if the mover dies while writing
        merged files, readers of /logs never see a partial hour."""
        staging = HDFS()
        mover_target = _FlakyHDFS(fail_on_create=2)
        mover = LogMover({"dc1": staging}, mover_target,
                         target_file_bytes=50)  # forces several outputs
        for i in range(5):
            _stage(staging, "dc1", f"p{i}", [b"x" * 40])
        with pytest.raises(HDFSError):
            mover.move_hour(HOUR)
        # nothing published, staged data intact for the retry
        assert not mover_target.exists(HOUR.path(root=LOGS_ROOT))
        assert len(staging.glob_files(staging_path("dc1", HOUR))) == 5

    def test_retry_after_failure_succeeds(self):
        staging = HDFS()
        mover_target = _FlakyHDFS(fail_on_create=2)
        mover = LogMover({"dc1": staging}, mover_target,
                         target_file_bytes=50)
        for i in range(5):
            _stage(staging, "dc1", f"p{i}", [b"x" * 40])
        with pytest.raises(HDFSError):
            mover.move_hour(HOUR)
        # the leftover /_incoming debris from the failed attempt must not
        # block the retry
        from repro.logmover.mover import INCOMING_ROOT

        if mover_target.exists(HOUR.path(root=INCOMING_ROOT)):
            mover_target.delete(HOUR.path(root=INCOMING_ROOT),
                                recursive=True)
        result = mover.move_hour(HOUR)
        assert result.messages_moved == 5
        assert mover_target.exists(HOUR.path(root=LOGS_ROOT))


class TestMultipleCategories:
    def test_categories_move_independently(self):
        staging, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": staging}, warehouse)
        other_hour = LogHour("ad_impressions", HOUR.year, HOUR.month,
                             HOUR.day, HOUR.hour)
        _stage(staging, "dc1", "p1", [b"ce-1"])
        staging.create(f"{staging_path('dc1', other_hour)}/p1",
                       encode_messages([b"ad-1", b"ad-2"]), codec="zlib")
        first = mover.move_hour(HOUR)
        second = mover.move_hour(other_hour)
        assert first.messages_moved == 1
        assert second.messages_moved == 2
        assert warehouse.glob_files("/logs/client_events")
        assert warehouse.glob_files("/logs/ad_impressions")


class TestQuarantinePreservation:
    """Quarantine is an accounted sink, not a loss: the staged bytes
    survive in the warehouse after staged cleanup."""

    def test_quarantined_file_recoverable_after_cleanup(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "good", [b"fine"])
        _stage(s1, "dc1", "bad", [b"ok", b""])
        bad_path = [p for p in s1.glob_files(staging_path("dc1", HOUR))
                    if p.endswith("bad")][0]
        original = s1.open_bytes(bad_path)
        result = mover.move_hour(HOUR)
        # Staged inputs are gone...
        assert s1.glob_files(staging_path("dc1", HOUR)) == []
        # ...but the quarantined file survives, byte for byte, at a
        # warehouse path named after its hour and origin datacenter.
        assert len(result.quarantined_to) == 1
        dest = result.quarantined_to[0]
        assert dest.startswith("/quarantine/client_events/")
        assert dest.endswith("dc1-bad")
        assert warehouse.open_bytes(dest) == original
        assert decode_messages(warehouse.open_bytes(dest)) == [b"ok", b""]

    def test_re_move_re_preserves_without_conflict(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "bad", [b""])
        _stage(s1, "dc1", "good", [b"fine"])
        mover.move_hour(HOUR, delete_staged=False)
        # The same bad file is seen again on the re-move; the preserved
        # copy is simply overwritten, not a FileExistsError.
        result = mover.move_hour(HOUR)
        assert len(result.quarantined_to) == 1
        assert warehouse.exists(result.quarantined_to[0])

    def test_quarantined_files_metric(self):
        old = set_default_registry(MetricsRegistry())
        try:
            s1, warehouse = HDFS(), HDFS()
            mover = LogMover({"dc1": s1}, warehouse)
            _stage(s1, "dc1", "bad", [b""])
            _stage(s1, "dc1", "good", [b"fine"])
            mover.move_hour(HOUR)
            registry = get_default_registry()
            assert registry.total(obs_names.MOVER_QUARANTINED_FILES) == 1
        finally:
            set_default_registry(old)


class TestCounterIdempotence:
    """Per-attempt metric accumulators: RetryPolicy retries of a failed
    attempt must not recount that attempt's duplicates or quarantines."""

    @pytest.fixture(autouse=True)
    def _clean_injector(self):
        yield
        set_default_injector(None)

    def test_retried_move_counts_duplicates_and_failures_once(self):
        old = set_default_registry(MetricsRegistry())
        try:
            s1, warehouse = HDFS(), HDFS()
            clock = LogicalClock()
            mover = LogMover({"dc1": s1}, warehouse, clock=clock,
                             retry_policy=RetryPolicy(max_attempts=4,
                                                      seed=7))
            _stage(s1, "dc1", "p1", [encode_envelope("h1", 0, b"a")])
            _stage(s1, "dc1", "p2", [encode_envelope("h1", 0, b"a")])
            _stage(s1, "dc1", "bad", [b"ok", b""])
            # The first two warehouse writes hit an outage, so two full
            # attempts read the staged files (counting the duplicate and
            # the quarantine) and then abort before the rename.
            plan = FaultPlan()
            plan.add("hdfs.hdfs.write", KIND_UNAVAILABLE, max_fires=2)
            set_default_injector(FaultInjector(plan, clock=clock))
            result = mover.move_hour(HOUR)
            registry = get_default_registry()
            assert result.duplicates_skipped == 1
            assert registry.total(obs_names.MOVER_DUPLICATES_SKIPPED) == 1
            assert registry.total(obs_names.MOVER_CHECK_FAILURES) == 1
            assert registry.total(obs_names.MOVER_QUARANTINED_FILES) == 1
        finally:
            set_default_registry(old)


class TestExactlyOnce:
    """Envelope dedup, crash-site convergence, and the delivery ledger."""

    @pytest.fixture(autouse=True)
    def _clean_injector(self):
        yield
        set_default_injector(None)

    def test_envelopes_stripped_before_warehouse(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [encode_envelope("h1", 0, b"raw")])
        mover.move_hour(HOUR)
        assert _warehouse_messages(warehouse) == [b"raw"]

    def test_duplicate_identities_deduped_within_hour(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [encode_envelope("h1", 0, b"a"),
                                 encode_envelope("h1", 1, b"b")])
        _stage(s1, "dc1", "p2", [encode_envelope("h1", 0, b"a")])
        result = mover.move_hour(HOUR)
        assert result.messages_moved == 2
        assert result.duplicates_skipped == 1
        assert sorted(_warehouse_messages(warehouse)) == [b"a", b"b"]

    def test_duplicate_landed_in_earlier_hour_skipped(self):
        """A resend that slips past an hour boundary must not land twice."""
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [encode_envelope("h1", 0, b"a")])
        mover.move_hour(HOUR)
        later = LogHour("client_events", 2012, 3, 7, 11)
        s1.create(f"{staging_path('dc1', later)}/p1",
                  encode_messages([encode_envelope("h1", 0, b"a"),
                                   encode_envelope("h1", 1, b"b")]),
                  codec="zlib")
        result = mover.move_hour(later)
        assert result.duplicates_skipped == 1
        assert sorted(decode_messages(b"".join(
            warehouse.open_bytes(p)
            for p in warehouse.glob_files(later.path(root=LOGS_ROOT))
        ))) == [b"b"]

    def test_duplicates_skipped_metric(self):
        old = set_default_registry(MetricsRegistry())
        try:
            s1, warehouse = HDFS(), HDFS()
            mover = LogMover({"dc1": s1}, warehouse)
            _stage(s1, "dc1", "p1", [encode_envelope("h1", 0, b"a")])
            _stage(s1, "dc1", "p2", [encode_envelope("h1", 0, b"a")])
            mover.move_hour(HOUR)
            registry = get_default_registry()
            assert registry.total(obs_names.MOVER_DUPLICATES_SKIPPED) == 1
        finally:
            set_default_registry(old)

    def test_unenveloped_frames_pass_through_undeduped(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [b"legacy", b"legacy"])
        result = mover.move_hour(HOUR)
        assert result.messages_moved == 2
        assert result.duplicates_skipped == 0

    def test_ledger_records_committed_identities(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [encode_envelope("h1", 0, b"a"),
                                 encode_envelope("h2", 5, b"b")])
        mover.move_hour(HOUR)
        assert mover.landed_identities(HOUR) == {("h1", 0), ("h2", 5)}
        assert mover.landed_identities() == {("h1", 0), ("h2", 5)}

    def test_late_data_re_move_unions_exactly_once(self):
        """Replace semantics: late staged data re-moves the hour and the
        union of original and late messages lands exactly once."""
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [encode_envelope("h1", 0, b"a")])
        mover.move_hour(HOUR)
        # Late data arrives: a resend of the committed identity plus a
        # genuinely new entry. The hour's own ledger is excluded from
        # dedup, so the rebuild re-lands 'a' (the original input is
        # gone) instead of suppressing it -- replace, not append.
        _stage(s1, "dc1", "late", [encode_envelope("h1", 0, b"a"),
                                   encode_envelope("h1", 1, b"b")])
        result = mover.move_hour(HOUR)
        assert result.messages_moved == 2
        assert result.duplicates_skipped == 0
        assert sorted(_warehouse_messages(warehouse)) == [b"a", b"b"]
        assert mover.landed_identities(HOUR) == {("h1", 0), ("h1", 1)}

    def test_ledger_not_committed_without_staged_deletion(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [encode_envelope("h1", 0, b"a")])
        mover.move_hour(HOUR, delete_staged=False)
        assert mover.landed_identities(HOUR) == frozenset()

    def _arm_crash(self, site):
        plan = FaultPlan()
        plan.add(site, KIND_CRASH, max_fires=1)
        set_default_injector(FaultInjector(plan))

    def test_crash_between_delete_and_rename_rerun_converges(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [encode_envelope("h1", 0, b"v1")])
        mover.move_hour(HOUR)
        _stage(s1, "dc1", "p2", [encode_envelope("h1", 1, b"v2")])
        self._arm_crash("logmover.client_events.pre_rename")
        with pytest.raises(InjectedCrash):
            mover.move_hour(HOUR)
        # Crashed after deleting the published hour but before renaming
        # the rebuild in: consumers momentarily see no hour at all.
        assert not warehouse.exists(HOUR.path(root=LOGS_ROOT))
        assert len(s1.glob_files(staging_path("dc1", HOUR))) == 1
        result = mover.move_hour(HOUR)  # operator restarts the mover
        assert result.messages_moved == 1
        assert _warehouse_messages(warehouse) == [b"v2"]
        assert s1.glob_files(staging_path("dc1", HOUR)) == []

    def test_crash_between_rename_and_cleanup_rerun_converges(self):
        s1, warehouse = HDFS(), HDFS()
        mover = LogMover({"dc1": s1}, warehouse)
        _stage(s1, "dc1", "p1", [encode_envelope("h1", 0, b"v1")])
        self._arm_crash("logmover.client_events.pre_cleanup")
        with pytest.raises(InjectedCrash):
            mover.move_hour(HOUR)
        # Published, but staged inputs survive: the re-run must rebuild
        # the identical hour without duplicating anything.
        assert warehouse.exists(HOUR.path(root=LOGS_ROOT))
        assert len(s1.glob_files(staging_path("dc1", HOUR))) == 1
        result = mover.move_hour(HOUR)
        assert result.messages_moved == 1
        assert _warehouse_messages(warehouse) == [b"v1"]
        assert s1.glob_files(staging_path("dc1", HOUR)) == []
        assert mover.landed_identities(HOUR) == {("h1", 0)}

    def test_retry_policy_rides_through_staging_outage(self):
        s1, warehouse = HDFS(), HDFS()
        clock = LogicalClock()
        mover = LogMover({"dc1": s1}, warehouse, clock=clock,
                         retry_policy=RetryPolicy(max_attempts=4, seed=7))
        _stage(s1, "dc1", "p1", [b"a"])
        outages = FaultPlan()
        # The first two staged-file deletions hit an outage; backoff
        # retries the whole (idempotent) move until it lands.
        outages.add("hdfs.hdfs.write", KIND_UNAVAILABLE, max_fires=2)
        set_default_injector(FaultInjector(outages, clock=clock))
        result = mover.move_hour(HOUR)
        assert result.messages_moved == 1
        assert _warehouse_messages(warehouse) == [b"a"]
