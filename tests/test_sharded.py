"""Sharded warehouse tests: routing, path compatibility, shard-group moves.

The router must keep the warehouse layout byte-identical to a single
namenode (path compatibility is the whole point), enforce the
co-sharding invariant on renames, and move shard groups in one serial
loop where a down shard never blocks another shard's hours.
"""

import warnings

import pytest

from repro.hdfs.layout import LOGS_ROOT, LogHour, staging_path
from repro.hdfs.namenode import (
    HDFS,
    FileNotFound,
    HDFSError,
    HDFSUnavailableError,
)
from repro.hdfs.sharded import CrossShardRenameError, ShardedHDFS, shard_key
from repro.logmover.mover import LogMover
from repro.logmover.sharded import SHARD_BACKENDS, ShardedLogMover
from repro.obs import names as obs_names
from repro.obs.metrics import (
    MetricsRegistry,
    get_default_registry,
    set_default_registry,
)
from repro.scribe.aggregator import encode_messages


@pytest.fixture(autouse=True)
def fresh_registry():
    old = get_default_registry()
    registry = MetricsRegistry()
    set_default_registry(registry)
    yield registry
    set_default_registry(old)


def _distinct_shard_categories(router, count):
    """``count`` category names that hash to pairwise-distinct shards."""
    chosen = {}
    index = 0
    while len(chosen) < count:
        category = f"cat_{index:03d}"
        shard = router.shard_index(category)
        if shard not in chosen:
            chosen[shard] = category
        index += 1
    return list(chosen.values())


def _stage_hours(staging, categories, messages_per=3):
    hours = []
    for n, category in enumerate(categories):
        hour = LogHour(category, 2012, 3, 7, 10)
        messages = [b"%s-%03d" % (category.encode(), i)
                    for i in range(messages_per + n)]
        staging.create(f"{staging_path('dc1', hour)}/part-000",
                       encode_messages(messages), codec="zlib")
        hours.append(hour)
    return hours


def _warehouse_listing(fs):
    """Sorted (path, payload bytes, codec) for everything under /logs."""
    return [(path, fs.open_bytes(path), fs.codec_of(path))
            for path in sorted(fs.glob_files(LOGS_ROOT))]


class TestRouting:
    def test_shard_key_is_second_component(self):
        assert shard_key("/logs/web_events/2012/03/07/10/f") == "web_events"
        assert shard_key("/_incoming/web_events/x") == "web_events"
        assert shard_key("/logs") is None
        assert shard_key("/") is None

    def test_num_shards_validation(self):
        with pytest.raises(ValueError):
            ShardedHDFS(0)

    def test_same_category_always_same_shard(self):
        router = ShardedHDFS(4)
        shard = router.shard_index("web_events")
        for root in ("/logs", "/_incoming", "/_sequences"):
            assert router.shard_for(f"{root}/web_events/x") \
                is router.shards[shard]

    def test_shards_carry_fault_site_names(self):
        router = ShardedHDFS(3, name="warehouse")
        assert [s.name for s in router.shards] == [
            "warehouse-shard-0", "warehouse-shard-1", "warehouse-shard-2"]

    def test_spanning_reads_union_and_mutations_broadcast(self):
        router = ShardedHDFS(4)
        cat_a, cat_b = _distinct_shard_categories(router, 2)
        router.mkdirs("/logs")
        assert all(s.is_dir("/logs") for s in router.shards)
        router.create(f"/logs/{cat_a}/f", b"a")
        router.create(f"/logs/{cat_b}/f", b"b")
        assert router.listdir("/logs") == sorted([cat_a, cat_b])
        assert router.exists(f"/logs/{cat_a}/f")
        assert router.open_bytes(f"/logs/{cat_b}/f") == b"b"
        assert sorted(router.glob_files("/logs")) == sorted(
            [f"/logs/{cat_a}/f", f"/logs/{cat_b}/f"])
        router.delete("/logs", recursive=True)
        assert not router.exists(f"/logs/{cat_a}/f")
        with pytest.raises(FileNotFound):
            router.listdir("/logs")

    def test_single_shard_outage_is_partial(self):
        router = ShardedHDFS(4)
        cat_a, cat_b = _distinct_shard_categories(router, 2)
        down = router.shard_index(cat_a)
        router.shards[down].set_available(False)
        assert not router.available
        with pytest.raises(HDFSUnavailableError):
            router.create(f"/logs/{cat_a}/f", b"a")
        router.create(f"/logs/{cat_b}/f", b"b")  # other shards unaffected
        router.shards[down].set_available(True)
        assert router.available


class TestCoShardingInvariant:
    def test_rename_within_shard_works(self):
        router = ShardedHDFS(4)
        router.create("/_incoming/web_events/h", b"x")
        router.rename("/_incoming/web_events/h", "/logs/web_events/h")
        assert router.open_bytes("/logs/web_events/h") == b"x"

    def test_cross_shard_rename_refused(self):
        router = ShardedHDFS(4)
        cat_a, cat_b = _distinct_shard_categories(router, 2)
        router.create(f"/logs/{cat_a}/f", b"x")
        with pytest.raises(CrossShardRenameError):
            router.rename(f"/logs/{cat_a}/f", f"/logs/{cat_b}/f")
        # Refused atomically: nothing moved, nothing copied.
        assert router.open_bytes(f"/logs/{cat_a}/f") == b"x"
        assert not router.exists(f"/logs/{cat_b}/f")

    def test_spanning_rename_refused(self):
        router = ShardedHDFS(4)
        with pytest.raises(HDFSError):
            router.rename("/", "/logs")


class TestPathCompatibility:
    def test_sharded_warehouse_is_byte_identical_to_unsharded(self):
        """The capstone invariant: same staged inputs produce the same
        files at the same paths with the same bytes, sharded or not."""
        staging = HDFS(name="staging-dc1")
        plain = HDFS(name="warehouse")
        router = ShardedHDFS(4, name="warehouse")
        categories = _distinct_shard_categories(router, 3)
        hours = _stage_hours(staging, categories)

        single_mover = LogMover({"dc1": staging}, plain)
        sharded_mover = ShardedLogMover({"dc1": staging}, router,
                                        backend="serial")
        for hour in hours:
            single_mover.move_hour(hour, delete_staged=False)
            sharded_mover.move_hour(hour, delete_staged=False)

        assert _warehouse_listing(plain) == _warehouse_listing(router)

    def test_landed_identities_union_across_shards(self):
        staging = HDFS(name="staging-dc1")
        router = ShardedHDFS(4)
        categories = _distinct_shard_categories(router, 2)
        hours = _stage_hours(staging, categories)
        mover = ShardedLogMover({"dc1": staging}, router)
        mover.move_hours(hours)
        assert mover.landed_identities() == frozenset()  # unstamped
        assert len(mover.moves) == 2


def _fresh_move(staging, hours, backend, **kwargs):
    """(results, listing) of one fresh 4-shard move of ``hours``."""
    router = ShardedHDFS(4, name="warehouse")
    mover = ShardedLogMover({"dc1": staging}, router, backend=backend,
                            **kwargs)
    moved = mover.move_hours(hours, delete_staged=False)
    return ([(r.hour, r.messages_moved, r.output_files) for r in moved],
            _warehouse_listing(router))


class TestParallelMoves:
    """Moves across shard groups: one serial loop, whatever the backend
    name, and a failing group never stops the others."""

    def test_every_backend_name_moves_identically(self):
        staging = HDFS(name="staging-dc1")
        categories = _distinct_shard_categories(ShardedHDFS(4), 4)
        hours = _stage_hours(staging, categories)
        serial = _fresh_move(staging, hours, "serial")
        assert len(serial[0]) == 4 and serial[1]
        for backend in SHARD_BACKENDS:
            assert _fresh_move(staging, hours, backend,
                                 max_workers=3) == serial

    def test_processes_backend_accepted_same_serial_result(self):
        staging = HDFS(name="staging-dc1")
        hours = _stage_hours(
            staging, _distinct_shard_categories(ShardedHDFS(4), 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moved = _fresh_move(staging, hours, "processes")
        assert moved == _fresh_move(staging, hours, "serial")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ShardedLogMover({"dc1": HDFS()}, ShardedHDFS(2),
                            backend="fibers")

    def test_group_failure_does_not_swallow_other_shards(self,
                                                         fresh_registry):
        staging = HDFS(name="staging-dc1")
        router = ShardedHDFS(4)
        cat_ok, cat_down = _distinct_shard_categories(router, 2)
        hours = _stage_hours(staging, [cat_ok, cat_down])
        router.shards[router.shard_index(cat_down)].set_available(False)
        mover = ShardedLogMover({"dc1": staging}, router)
        with pytest.raises(HDFSUnavailableError):
            mover.move_hours(hours, delete_staged=False)
        # The healthy shard's hour still landed, and was counted, before
        # the error surfaced.
        assert router.glob_files(f"/logs/{cat_ok}")
        assert fresh_registry.total(obs_names.SHARD_HOURS_MOVED) == 1

    @pytest.mark.parametrize("down", range(4))
    @pytest.mark.parametrize("order", ["given", "reversed"])
    def test_down_shard_never_blocks_another_shards_hour(self, down, order):
        staging = HDFS(name="staging-dc1")
        router = ShardedHDFS(4)
        categories = _distinct_shard_categories(router, 4)
        hours = _stage_hours(staging, categories)
        if order == "reversed":
            hours.reverse()
        router.shards[down].set_available(False)
        mover = ShardedLogMover({"dc1": staging}, router)
        with pytest.raises(HDFSUnavailableError):
            mover.move_hours(hours, delete_staged=False)
        router.shards[down].set_available(True)
        landed = {c for c in categories if router.exists(f"/logs/{c}")}
        assert landed == {c for c in categories
                          if router.shard_index(c) != down}

    def test_per_shard_metrics_recorded(self, fresh_registry):
        staging = HDFS(name="staging-dc1")
        router = ShardedHDFS(4, name="warehouse")
        categories = _distinct_shard_categories(router, 3)
        mover = ShardedLogMover({"dc1": staging}, router,
                                backend="threads")
        mover.move_hours(_stage_hours(staging, categories))
        assert fresh_registry.total(obs_names.SHARD_HOURS_MOVED) == 3
        shards = {labels["shard"] for labels, _ in
                  fresh_registry.series(obs_names.SHARD_HOURS_MOVED)}
        assert shards == {f"warehouse-shard-{router.shard_index(c)}"
                          for c in categories}
        assert fresh_registry.total(obs_names.SHARD_MESSAGES_MOVED) \
            == 3 + 4 + 5
