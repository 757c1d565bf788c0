"""Byte-identity of the three landing flows across the landing-core refactor.

One seeded scenario per flow on a fixed logical clock; each asserts a
sha256 over the sorted ``(path, open_bytes(path))`` listing of the whole
warehouse (logical bytes, not zlib-stored bytes) plus the sorted
``landed_identities()``. The digests were captured at commit 63fe875
(the parent of the PR that introduced ``logmover/landing.py``), before
any source edit, by running this file as a script::

    PYTHONPATH=src python tests/test_landing_golden.py
"""

import hashlib

import pytest

from repro.clock import MILLIS_PER_HOUR, MILLIS_PER_MINUTE, LogicalClock
from repro.core.event import ClientEvent
from repro.faults.injector import (
    KIND_CRASH,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    set_default_injector,
)
from repro.hdfs.layout import hour_for_millis, staging_path
from repro.hdfs.namenode import HDFS
from repro.hdfs.sharded import CrossShardRenameError, ShardedHDFS
from repro.logmover.mover import LogMover
from repro.logmover.sharded import ShardedLogMover
from repro.logmover.streaming import StreamingMover
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.scribe.aggregator import encode_messages
from repro.scribe.message import encode_envelope

WEB = "web_events"
EVENTS = "client_events"
WEB0 = hour_for_millis(WEB, 0)
WEB1 = hour_for_millis(WEB, MILLIS_PER_HOUR)
EVENTS0 = hour_for_millis(EVENTS, 0)

GOLDEN = {
    "hourly":
        "a83e21ed339875b04d02d173cd7ecb88edc5e7b23b9a3fb3529db7c6ffecaae5",
    # Same paths, same bytes: the router keeps the layout byte-identical.
    "sharded":
        "a83e21ed339875b04d02d173cd7ecb88edc5e7b23b9a3fb3529db7c6ffecaae5",
    "streaming":
        "a3a010bc5476637aa8e45821e1bb18ea9aa8c3cdb59c448ba63f8bd570ce2b44",
}


@pytest.fixture(autouse=True)
def _fresh_registry():
    old = set_default_registry(MetricsRegistry())
    yield
    set_default_registry(old)


def _stage(staging, datacenter, hour, part, frames):
    staging.create(f"{staging_path(datacenter, hour)}/{part}",
                   encode_messages(frames), codec="zlib")


def _web(origin, seqs):
    return [encode_envelope(origin, seq, b"%s-%04d" % (origin.encode(), seq))
            for seq in seqs]


def _events(origin, seqs):
    """Enveloped client events, deterministic in ``(origin, seq)``."""
    frames = []
    for seq in seqs:
        event = ClientEvent.make(
            f"web:home:timeline:stream:tweet_{seq % 3}:click",
            user_id=100 + seq % 7, session_id=f"s-{origin}-{seq % 4}",
            ip=f"10.0.0.{seq % 5}", timestamp=1000 * seq,
            details={"rank": str(seq)},
            country=("us", "jp", None)[seq % 3], logged_in=seq % 2 == 0)
        frames.append(encode_envelope(origin, seq, event.to_bytes()))
    return frames


def _digest(warehouse, mover):
    sha = hashlib.sha256()
    for path in sorted(warehouse.glob_files("/")):
        sha.update(repr((path, warehouse.open_bytes(path))).encode())
    sha.update(repr(sorted(mover.landed_identities())).encode())
    return sha.hexdigest()


def _hourly_scenario(make_mover, warehouse):
    """2 DCs; a quarantined file, a cross-hour resend, two re-moves of a
    landed hour (before and after its ledger commit), a columnar hour."""
    clock = LogicalClock()
    dc1, dc2 = HDFS(name="staging-dc1"), HDFS(name="staging-dc2")
    mover = make_mover({"dc1": dc1, "dc2": dc2}, warehouse, clock=clock,
                       target_file_bytes=64, columnar_categories=[EVENTS])
    clock.advance(MILLIS_PER_HOUR + 5 * MILLIS_PER_MINUTE)
    _stage(dc1, "dc1", WEB0, "p1", _web("h1", range(5)))
    _stage(dc1, "dc1", WEB0, "p2", _web("h1", [5]) + [b""])  # quarantined
    _stage(dc2, "dc2", WEB0, "p1", _web("h2", range(4)))
    mover.move_hour(WEB0, delete_staged=False)
    # Re-move before the ledger commit: rebuilt with one more file.
    _stage(dc2, "dc2", WEB0, "p2", _web("h2", [4, 5]))
    mover.move_hour(WEB0)
    clock.advance(MILLIS_PER_HOUR)
    # (h1, 3) already landed in WEB0: the cross-hour resend is deduped.
    _stage(dc1, "dc1", WEB1, "p1", _web("h1", [3, 6, 7, 8]))
    _stage(dc2, "dc2", WEB1, "p1", _web("h2", [6, 7, 7]))
    mover.move_hour(WEB1)
    _stage(dc1, "dc1", EVENTS0, "p1", _events("e1", range(9)))
    _stage(dc2, "dc2", EVENTS0, "p1", _events("e2", range(6)))
    mover.move_hour(EVENTS0)
    clock.advance(MILLIS_PER_MINUTE)
    # Re-move after the commit: WEB0's own ledger is ignored (replace
    # semantics), WEB1's still dedups (h1, 6).
    _stage(dc1, "dc1", WEB0, "p3", _web("h1", [0, 6, 20]))
    mover.move_hour(WEB0, require_complete=False)
    return mover


def _make_sharded(staging_clusters, warehouse, **kwargs):
    return ShardedLogMover(staging_clusters, warehouse, backend="serial",
                           **kwargs)


def _streaming_scenario(warehouse):
    """2 DCs; four batches, a quarantined file, a seal, a late re-open
    and re-seal, a cross-hour resend, a columnar hour."""
    clock = LogicalClock()
    dc1, dc2 = HDFS(name="staging-dc1"), HDFS(name="staging-dc2")
    mover = StreamingMover({"dc1": dc1, "dc2": dc2}, warehouse, clock,
                           target_file_bytes=64,
                           batch_interval_ms=MILLIS_PER_MINUTE,
                           watermark_delay_ms=2 * MILLIS_PER_MINUTE,
                           columnar_categories=[EVENTS])
    clock.advance(MILLIS_PER_MINUTE)
    _stage(dc1, "dc1", WEB0, "p1", _web("h1", range(3)))
    _stage(dc2, "dc2", WEB0, "p1", _web("h2", range(2)))
    _stage(dc1, "dc1", EVENTS0, "p1", _events("e1", range(5)))
    mover.poll(WEB)
    mover.poll(EVENTS)
    clock.advance(10 * MILLIS_PER_MINUTE)
    _stage(dc1, "dc1", WEB0, "p2", _web("h1", [2, 3, 4]))  # (h1, 2) resent
    _stage(dc2, "dc2", WEB0, "p2", _web("h2", [2]) + [b""])  # quarantined
    _stage(dc2, "dc2", EVENTS0, "p1", _events("e2", range(4)))
    mover.poll(WEB)
    mover.poll(EVENTS)
    clock.advance(10 * MILLIS_PER_MINUTE)
    _stage(dc2, "dc2", WEB0, "p3", _web("h2", [3, 4]))
    _stage(dc1, "dc1", EVENTS0, "p2", _events("e1", range(5, 9)))
    mover.poll(WEB)
    mover.poll(EVENTS)
    clock.advance(MILLIS_PER_HOUR)
    _stage(dc1, "dc1", WEB1, "p1", _web("h1", [4, 5, 6]))  # (h1, 4) resent
    mover.poll(WEB)   # lands WEB1's first batch, seals WEB0
    mover.poll(EVENTS)  # seals EVENTS0 with a columnar segment
    assert mover.sealed(WEB0) and mover.sealed(EVENTS0)
    clock.advance(5 * MILLIS_PER_MINUTE)
    # A WAL replay into the sealed hours: re-open, then re-seal.
    _stage(dc2, "dc2", WEB0, "late", _web("h2", [0, 9]))
    _stage(dc2, "dc2", EVENTS0, "late", _events("e2", [3, 9]))
    mover.poll(WEB)
    mover.poll(EVENTS)
    assert mover.late_reopens() == 2
    assert mover.sealed(WEB0) and mover.sealed(EVENTS0)
    return mover


def _run(flow):
    if flow == "hourly":
        warehouse = HDFS(name="warehouse")
        mover = _hourly_scenario(LogMover, warehouse)
    elif flow == "sharded":
        warehouse = ShardedHDFS(4, name="warehouse")
        mover = _hourly_scenario(_make_sharded, warehouse)
    else:
        warehouse = HDFS(name="warehouse")
        mover = _streaming_scenario(warehouse)
    return _digest(warehouse, mover)


@pytest.mark.parametrize("flow", sorted(GOLDEN))
def test_warehouse_and_ledger_match_parent_commit(flow):
    assert _run(flow) == GOLDEN[flow]


# -- the publish primitive itself -----------------------------------------

def atomic_publish(*args, **kwargs):
    # Imported on use: at 63fe875 the primitive did not exist, and this
    # file must still import there for the digest capture above.
    from repro.hdfs.publish import atomic_publish as publish
    return publish(*args, **kwargs)


TMP, FINAL = "/_incoming/web_events/h", "/logs/web_events/h"
SITES = dict(pre_delete="publish.pre_delete", pre_rename="publish.pre_rename")


def _publish(fs, payload):
    def write(tmp):
        fs.create(f"{tmp}/part", payload)
        return len(payload)
    return atomic_publish(fs, TMP, FINAL, write, **SITES)


def _listing(fs):
    return {path: fs.open_bytes(path) for path in fs.glob_files("/")}


@pytest.fixture
def crash_at():
    def arm(site):
        plan = FaultPlan()
        plan.add(site, KIND_CRASH, max_fires=1)
        set_default_injector(FaultInjector(plan))
    yield arm
    set_default_injector(None)


@pytest.mark.parametrize("make_fs", [HDFS, lambda: ShardedHDFS(4)],
                         ids=["hdfs", "sharded"])
class TestAtomicPublish:
    def test_publishes_and_replaces(self, make_fs):
        fs = make_fs()
        assert _publish(fs, b"v1") == 2
        assert _publish(fs, b"v2") == 2
        assert _listing(fs) == {f"{FINAL}/part": b"v2"}

    def test_crash_before_delete_keeps_old_final(self, make_fs, crash_at):
        fs = make_fs()
        _publish(fs, b"v1")
        crash_at(SITES["pre_delete"])
        with pytest.raises(InjectedCrash):
            _publish(fs, b"v2")
        assert _listing(fs) == {f"{FINAL}/part": b"v1",
                                f"{TMP}/part": b"v2"}
        # The next run sweeps the debris before it writes.
        fs.create(f"{TMP}/stale", b"debris")
        _publish(fs, b"v3")
        assert _listing(fs) == {f"{FINAL}/part": b"v3"}

    def test_crash_before_rename_converges(self, make_fs, crash_at):
        fs = make_fs()
        _publish(fs, b"v1")
        crash_at(SITES["pre_rename"])
        with pytest.raises(InjectedCrash):
            _publish(fs, b"v2")
        # Final absent, tmp complete: never a half-written mix.
        assert _listing(fs) == {f"{TMP}/part": b"v2"}
        _publish(fs, b"v2")
        assert _listing(fs) == {f"{FINAL}/part": b"v2"}

    def test_complete_tmp_publishes_without_rewrite(self, make_fs):
        fs = make_fs()
        fs.create(f"{TMP}/part", b"whole")
        assert atomic_publish(fs, TMP, FINAL) is None
        assert _listing(fs) == {f"{FINAL}/part": b"whole"}


def test_cross_shard_publish_still_refused():
    fs = ShardedHDFS(4)
    other = next(c for c in (f"cat_{i}" for i in range(64))
                 if fs.shard_index(c) != fs.shard_index("web_events"))
    with pytest.raises(CrossShardRenameError):
        atomic_publish(fs, TMP, f"/logs/{other}/h",
                       lambda tmp: fs.create(f"{tmp}/part", b"x"))


if __name__ == "__main__":
    set_default_registry(MetricsRegistry())
    for name in sorted(GOLDEN):
        print(f'    "{name}": "{_run(name)}",')
