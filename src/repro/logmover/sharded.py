"""Per-shard log movers running in parallel against a sharded warehouse.

With the warehouse split over N namenode shards
(:class:`~repro.hdfs.sharded.ShardedHDFS`), the hour-move pipeline stops
being serialized on one namespace: every category hashes to exactly one
shard, so hours of different shards touch disjoint namenodes and can
move concurrently without coordination.

:class:`ShardedLogMover` keeps one private
:class:`~repro.logmover.mover.LogMover` per shard -- each sees the
router as its warehouse, and routing confines its writes to the shard
owning the category being moved -- and fans grouped hours out on the
PR 2 execution backends (``serial`` or ``threads``; the in-memory
namenodes cannot cross a process boundary, so ``processes`` falls back
to ``threads`` with a warning). Within one shard, hours move in the
order given: the per-category dedup ledger and replace semantics of
``move_hour`` assume sequential moves per category, and a category
never spans shards, so per-shard ordering is exactly the ordering that
matters.

The single-hour surface (``move_hour`` / ``hour_ready`` /
``hour_has_data`` / ``landed_identities`` / ``moves``) matches
``LogMover``, so Oink's ``register_standard_pipeline`` and the chaos
harness drive a sharded mover unchanged.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set

from repro.hdfs.layout import LOGS_ROOT, LogHour
from repro.hdfs.namenode import HDFS
from repro.hdfs.sharded import ShardedHDFS
from repro.logmover.mover import LogMover, MessageIdentity, MoveResult
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry

#: Backends the sharded mover can fan shard groups out on.
SHARD_BACKENDS = ("serial", "threads")


class ShardedLogMover:
    """N per-shard movers behind the single-mover interface.

    Constructor arguments mirror :class:`~repro.logmover.mover.LogMover`
    (everything in ``mover_kwargs`` is passed through to each inner
    mover); ``backend``/``max_workers`` pick how :meth:`move_hours`
    parallelizes across shards.
    """

    def __init__(self, staging_clusters: Dict[str, HDFS],
                 warehouse: ShardedHDFS,
                 backend: str = "serial",
                 max_workers: Optional[int] = None,
                 **mover_kwargs: Any) -> None:
        if backend == "processes":
            warnings.warn(
                "the sharded log mover cannot use the 'processes' backend "
                "(in-memory namenodes do not cross process boundaries); "
                "falling back to 'threads'", RuntimeWarning, stacklevel=2)
            backend = "threads"
        if backend not in SHARD_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of "
                f"{SHARD_BACKENDS}")
        self._warehouse = warehouse
        self._backend = backend
        self._max_workers = max_workers or warehouse.num_shards
        # One mover per shard. Each gets the *router* as its warehouse:
        # path routing confines its writes to the shard that owns the
        # category being moved, while reads of shard-spanning paths
        # still resolve. One mover per shard (not one global) keeps
        # every mover single-threaded -- a shard's hours are always
        # driven by at most one worker at a time.
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

        Across shards there is no meaningful completion order (they run
        concurrently), so the aggregate is sorted by hour for stable
        reporting; per-shard chronology is preserved within equal hours
        by the underlying lists.
        """
        return sorted((result for mover in self._movers
                       for result in mover.moves), key=lambda r: r.hour)

    # -- the parallel fan-out ------------------------------------------
    def move_hours(self, hours: Sequence[LogHour],
                   require_complete: bool = True,
                   delete_staged: bool = True) -> List[MoveResult]:
        """Move many hours, parallel across shards, ordered within each.

        Hours are grouped by owning shard (preserving the given order
        inside each group) and the groups run concurrently on the
        ``threads`` backend, or in shard order on ``serial``. A failure
        in any group propagates after every group has finished, so a
        partial failure cannot silently swallow other shards' results.
        """
        groups: Dict[int, List[LogHour]] = {}
        for hour in hours:
            groups.setdefault(
                self._warehouse.shard_index(hour.category), []).append(hour)

        def run_group(shard: int) -> List[MoveResult]:
            mover = self._movers[shard]
            return [mover.move_hour(hour, require_complete, delete_staged)
                    for hour in groups[shard]]

        shards = sorted(groups)
        if self._backend == "serial" or len(shards) <= 1:
            done = [run_group(shard) for shard in shards]
        else:
            # Leaving the pool waits for every group, so the first failure
            # (in shard order) surfaces only after all of them finished.
            with ThreadPoolExecutor(
                    max_workers=min(self._max_workers, len(shards)),
                    thread_name_prefix="shard-mover") as pool:
                futures = [pool.submit(run_group, shard) for shard in shards]
            done = [future.result() for future in futures]
        results = [result for group in done for result in group]
        self._record_shard_metrics(results)
        return sorted(results, key=lambda r: r.hour)

    def move_ready_hours(self, hours: Sequence[LogHour]) -> List[MoveResult]:
        """Move every hour whose completeness barrier is satisfied."""
        return self.move_hours([h for h in hours if self.hour_ready(h)])

    # -- observability -------------------------------------------------
    def _record_shard_metrics(self, results: List[MoveResult]) -> None:
        """Per-shard move counters plus stored-bytes gauges.

        Called from the coordinating thread after moves complete, so the
        registry sees no concurrent updates from shard workers.
        """
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
        return (f"ShardedLogMover(shards={self.num_shards}, "
                f"backend={self._backend!r})")
