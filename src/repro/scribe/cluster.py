"""Datacenter wiring: hosts + daemons + aggregators + staging cluster.

Builds the topology of Figure 1: each datacenter has production hosts
running Scribe daemons, a pool of aggregators registered in ZooKeeper, and
a staging Hadoop cluster the aggregators write to. A
:class:`ScribeDeployment` holds several datacenters sharing one ZooKeeper
ensemble and feeding one main warehouse (via the log mover, which lives in
:mod:`repro.logmover`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.clock import LogicalClock
from repro.faults.retry import RetryPolicy
from repro.hdfs.namenode import HDFS
from repro.scribe.aggregator import ScribeAggregator
from repro.scribe.daemon import ScribeDaemon
from repro.scribe.discovery import AggregatorDiscovery
from repro.scribe.message import CategoryRegistry, LogEntry
from repro.scribe.zookeeper import ZooKeeper


class Datacenter:
    """One datacenter: daemons, aggregators, and a staging cluster."""

    def __init__(self, name: str, zk: ZooKeeper, clock: LogicalClock,
                 num_hosts: int, num_aggregators: int,
                 categories: Optional[CategoryRegistry] = None,
                 staging_block_size: int = 64 * 1024,
                 durable_aggregators: bool = False,
                 seed: int = 0,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if num_hosts <= 0 or num_aggregators <= 0:
            raise ValueError("need at least one host and one aggregator")
        self.name = name
        self.clock = clock
        self.categories = categories or CategoryRegistry()
        self.staging = HDFS(block_size=staging_block_size,
                            name=f"staging-{name}")
        self.aggregators: Dict[str, ScribeAggregator] = {}
        for i in range(num_aggregators):
            agg_name = f"{name}-agg-{i:03d}"
            aggregator = ScribeAggregator(
                name=agg_name, datacenter=name, zk=zk,
                staging=self.staging, clock=clock,
                categories=self.categories, durable=durable_aggregators,
                retry_policy=retry_policy,
            )
            aggregator.start()
            self.aggregators[agg_name] = aggregator
        self.daemons: List[ScribeDaemon] = []
        for i in range(num_hosts):
            discovery = AggregatorDiscovery(zk, name, seed=seed * 7919 + i)
            daemon = ScribeDaemon(
                host=f"{name}-host-{i:04d}",
                discovery=discovery,
                resolve=self.aggregators.get,
                clock=clock,
                retry_policy=retry_policy,
                categories=self.categories,
            )
            self.daemons.append(daemon)

    # -- traffic ---------------------------------------------------------
    def log_from(self, host_index: int, entry: LogEntry,
                 wrap: bool = False) -> None:
        """Log one entry from a specific host's daemon.

        ``host_index`` must name a real host; an out-of-range index
        raises :class:`IndexError` so a miswired workload generator
        fails loudly instead of silently folding all its traffic onto a
        few hosts. Generators that deliberately spread an unbounded key
        space (user ids, event counters) over the hosts pass
        ``wrap=True`` for the explicit modulo.
        """
        if wrap:
            host_index %= len(self.daemons)
        elif not 0 <= host_index < len(self.daemons):
            raise IndexError(
                f"host_index {host_index} out of range for "
                f"{len(self.daemons)} host(s) in {self.name!r} "
                f"(pass wrap=True to spread a key space)")
        self.daemons[host_index].log(entry)

    def flush(self) -> None:
        """Drain daemon buffers, then roll all aggregator buckets."""
        for daemon in self.daemons:
            daemon.flush()
        for aggregator in self.aggregators.values():
            aggregator.flush()

    # -- failure injection ---------------------------------------------
    def crash_aggregator(self, name: str) -> None:
        """Hard-crash one aggregator (ephemeral znode vanishes)."""
        self.aggregators[name].crash()

    def restart_aggregator(self, name: str) -> None:
        """Restart a crashed aggregator (re-registers; durable WAL replays)."""
        self.aggregators[name].start()

    def live_aggregator_names(self) -> List[str]:
        """Names of currently-alive aggregators, sorted."""
        return sorted(n for n, a in self.aggregators.items() if a.alive)

    # -- accounting --------------------------------------------------------
    def total_written(self) -> int:
        """Messages rolled to staging HDFS by all aggregators."""
        return sum(a.stats.written for a in self.aggregators.values())

    def total_daemon_buffered(self) -> int:
        """Messages still buffered at daemons."""
        return sum(d.buffered for d in self.daemons)

    def __repr__(self) -> str:
        return (f"Datacenter({self.name!r}, hosts={len(self.daemons)}, "
                f"aggregators={len(self.aggregators)})")


class ScribeDeployment:
    """Several datacenters sharing a ZooKeeper ensemble and a warehouse."""

    def __init__(self, datacenter_names: List[str], num_hosts: int = 4,
                 num_aggregators: int = 2,
                 clock: Optional[LogicalClock] = None,
                 warehouse_block_size: int = 64 * 1024,
                 durable_aggregators: bool = False,
                 seed: int = 0,
                 retry_policy: Optional[RetryPolicy] = None,
                 warehouse_shards: Optional[int] = None) -> None:
        if not datacenter_names:
            raise ValueError("need at least one datacenter")
        self.clock = clock or LogicalClock()
        self.zookeeper = ZooKeeper()
        self.categories = CategoryRegistry()
        if warehouse_shards is not None:
            # Category-hash sharded warehouse behind the router: the
            # layout stays path-compatible, so movers/readers are wired
            # exactly as against a single namenode.
            from repro.hdfs.sharded import ShardedHDFS
            self.warehouse: HDFS = ShardedHDFS(
                num_shards=warehouse_shards,
                block_size=warehouse_block_size, name="warehouse")
        else:
            self.warehouse = HDFS(block_size=warehouse_block_size,
                                  name="warehouse")
        self.datacenters: Dict[str, Datacenter] = {}
        for i, name in enumerate(datacenter_names):
            self.datacenters[name] = Datacenter(
                name=name, zk=self.zookeeper, clock=self.clock,
                num_hosts=num_hosts, num_aggregators=num_aggregators,
                categories=self.categories,
                durable_aggregators=durable_aggregators, seed=seed + i,
                retry_policy=retry_policy,
            )

    def flush_all(self) -> None:
        """Drain every datacenter's daemons and aggregators."""
        for datacenter in self.datacenters.values():
            datacenter.flush()

    def total_accepted(self) -> int:
        """Messages accepted by daemons across all datacenters."""
        return sum(d.stats.accepted
                   for dc in self.datacenters.values()
                   for d in dc.daemons)

    def total_staged(self) -> int:
        """Messages written to staging across all datacenters."""
        return sum(dc.total_written() for dc in self.datacenters.values())
