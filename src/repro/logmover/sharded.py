"""Per-shard log movers against a sharded warehouse.

With the warehouse split over N namenode shards
(:class:`~repro.hdfs.sharded.ShardedHDFS`), every category hashes to
exactly one shard, so hours of different shards touch disjoint
namenodes and one shard's outage never blocks another shard's hours.

:class:`ShardedLogMover` keeps one private
:class:`~repro.logmover.mover.LogMover` per shard -- each sees the
router as its warehouse, and routing confines its writes to the shard
owning the category being moved -- and moves grouped hours in one
serial loop over the shard groups. Within one shard, hours move in the
order given: the per-category dedup ledger and replace semantics of
``move_hour`` assume sequential moves per category, and a category
never spans shards, so per-shard ordering is exactly the ordering that
matters.

A thread-pool fan-out never beat this loop under the GIL (0.83x in E23
on a 2-CPU host) and was removed; ``backend`` and ``max_workers`` are
still accepted so existing call sites keep working.

The single-hour surface (``move_hour`` / ``hour_ready`` /
``hour_has_data`` / ``landed_identities`` / ``moves``) matches
``LogMover``, so Oink's ``register_standard_pipeline`` and the chaos
harness drive a sharded mover unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set

from repro.hdfs.layout import LOGS_ROOT, LogHour
from repro.hdfs.namenode import HDFS
from repro.hdfs.sharded import ShardedHDFS
from repro.logmover.mover import LogMover, MessageIdentity, MoveResult
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry

#: Backend names the sharded mover accepts; all run the same serial loop.
SHARD_BACKENDS = ("serial", "threads", "processes")


class ShardedLogMover:
    """N per-shard movers behind the single-mover interface.

    Constructor arguments mirror :class:`~repro.logmover.mover.LogMover`
    (everything in ``mover_kwargs`` is passed through to each inner
    mover). ``backend`` must name one of :data:`SHARD_BACKENDS`;
    neither it nor ``max_workers`` changes how hours move.
    """

    def __init__(self, staging_clusters: Dict[str, HDFS],
                 warehouse: ShardedHDFS,
                 backend: str = "serial",
                 max_workers: Optional[int] = None,
                 **mover_kwargs: Any) -> None:
        if backend not in SHARD_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of "
                f"{SHARD_BACKENDS}")
        self._warehouse = warehouse
        # One mover per shard. Each gets the *router* as its warehouse:
        # path routing confines its writes to the shard that owns the
        # category being moved, while reads of shard-spanning paths
        # still resolve.
        self._movers: List[LogMover] = [
            LogMover(staging_clusters, warehouse, **mover_kwargs)
            for _ in range(warehouse.num_shards)
        ]

    # -- routing -------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """How many warehouse shards (and inner movers) there are."""
        return self._warehouse.num_shards

    def mover_for(self, category: str) -> LogMover:
        """The per-shard mover owning a category's hours."""
        return self._movers[self._warehouse.shard_index(category)]

    # -- LogMover-compatible surface -----------------------------------
    def producing_datacenters(self, category: str) -> List[str]:
        """Datacenters expected to stage data for a category."""
        return self._movers[0].producing_datacenters(category)

    def hour_ready(self, hour: LogHour) -> bool:
        """True when every producing datacenter staged the hour."""
        return self.mover_for(hour.category).hour_ready(hour)

    def hour_has_data(self, hour: LogHour) -> bool:
        """True when at least one datacenter staged the hour."""
        return self.mover_for(hour.category).hour_has_data(hour)

    def move_hour(self, hour: LogHour, require_complete: bool = True,
                  delete_staged: bool = True) -> MoveResult:
        """Move one hour on its owning shard's mover."""
        return self.move_hours([hour], require_complete, delete_staged)[0]

    def landed_identities(
            self,
            hour: Optional[LogHour] = None) -> FrozenSet[MessageIdentity]:
        """Committed identities: one hour's shard, or all shards."""
        if hour is not None:
            return self.mover_for(hour.category).landed_identities(hour)
        return frozenset().union(
            *(mover.landed_identities() for mover in self._movers))

    @property
    def moves(self) -> List[MoveResult]:
        """All completed moves, in deterministic (hour-sorted) order.

        The aggregate is sorted by hour for stable reporting; per-shard
        chronology is preserved within equal hours by the underlying
        lists.
        """
        return sorted((result for mover in self._movers
                       for result in mover.moves), key=lambda r: r.hour)

    # -- the shard loop ------------------------------------------------
    def move_hours(self, hours: Sequence[LogHour],
                   require_complete: bool = True,
                   delete_staged: bool = True) -> List[MoveResult]:
        """Move many hours, grouped by shard, in order within each group.

        Hours are grouped by owning shard (preserving the given order
        inside each group) and the groups run in shard order. A failure
        stops only its own group: every other group still runs, the
        moves that landed are counted in the shard metrics, and then the
        first failure (in shard order) is raised -- a down shard never
        blocks another shard's hours.
        """
        groups: Dict[int, List[LogHour]] = {}
        for hour in hours:
            groups.setdefault(
                self._warehouse.shard_index(hour.category), []).append(hour)
        results: List[MoveResult] = []
        failure: Optional[Exception] = None
        for shard in sorted(groups):
            mover = self._movers[shard]
            try:
                for hour in groups[shard]:
                    results.append(mover.move_hour(hour, require_complete,
                                                   delete_staged))
            except Exception as exc:  # noqa: BLE001 - re-raised below
                if failure is None:
                    failure = exc
        self._record_shard_metrics(results)
        if failure is not None:
            raise failure
        return sorted(results, key=lambda r: r.hour)

    def move_ready_hours(self, hours: Sequence[LogHour]) -> List[MoveResult]:
        """Move every hour whose completeness barrier is satisfied."""
        return self.move_hours([h for h in hours if self.hour_ready(h)])

    # -- observability -------------------------------------------------
    def _record_shard_metrics(self, results: List[MoveResult]) -> None:
        """Per-shard move counters plus stored-bytes gauges."""
        registry = get_default_registry()
        touched: Set[int] = set()
        for result in results:
            shard = self._warehouse.shard_index(result.hour.category)
            touched.add(shard)
            label = f"{self._warehouse.name}-shard-{shard}"
            registry.counter(obs_names.SHARD_HOURS_MOVED,
                             shard=label).inc()
            registry.counter(obs_names.SHARD_MESSAGES_MOVED,
                             shard=label).inc(result.messages_moved)
        for shard in touched:
            registry.gauge(
                obs_names.SHARD_STORED_BYTES,
                shard=f"{self._warehouse.name}-shard-{shard}").set(
                    self._warehouse.shards[shard].total_stored_bytes(
                        LOGS_ROOT))

    def __repr__(self) -> str:
        return f"ShardedLogMover(shards={self.num_shards})"
