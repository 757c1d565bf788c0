"""Scribe aggregators: merge per-category streams onto staging HDFS.

§2: "The aggregators in each datacenter are co-located with a staging
Hadoop cluster. Their task is to merge per-category streams from all the
server daemons and write the merged results to HDFS (of the staging Hadoop
cluster), compressing data on the fly." They also "buffer data on local
disk in case of HDFS outages".

Staging files are framed message streams: each file holds the messages of
one category for one hour, written as varint-length-prefixed frames and
compressed with the category's codec. Messages stamped with a delivery
identity by their daemon travel inside an envelope (see
:func:`repro.scribe.message.encode_envelope`) that the log mover strips
and dedups on.

Durability bookkeeping: a message accepted by a durable aggregator lives
in exactly one durable place at a time -- the write-ahead buffer while it
is pending in memory, then the local-disk outage buffer once a roll hits
an HDFS outage, then staging HDFS itself. WAL records are trimmed the
moment their messages reach the next durable stage, which is what makes a
crash-restart replay land every message exactly once instead of
re-staging data that already left the WAL's custody.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.clock import MILLIS_PER_HOUR, LogicalClock
from repro.faults.injector import KIND_CRASH, fault_point
from repro.faults.retry import RetryExhaustedError, RetryPolicy
from repro.hdfs.layout import LogHour, hour_for_millis, staging_path
from repro.hdfs.namenode import HDFS, HDFSUnavailableError
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry
from repro.obs.trace import get_default_tracer
from repro.scribe.discovery import register_aggregator
from repro.scribe.message import CategoryRegistry, LogEntry, encode_envelope
from repro.scribe.zookeeper import Session, ZooKeeper
from repro.thriftlike.codegen import frame, iter_frames


class AggregatorDownError(Exception):
    """Raised when a daemon sends to a crashed aggregator."""


def encode_messages(messages: List[bytes]) -> bytes:
    """Concatenate messages as varint-framed records."""
    buf = io.BytesIO()
    for message in messages:
        buf.write(frame(message))
    return buf.getvalue()


def decode_messages(data: bytes) -> List[bytes]:
    """Inverse of :func:`encode_messages`."""
    return list(iter_frames(data))


@dataclass
class AggregatorStats:
    """Counters for tests and the delivery benchmark.

    ``received`` counts first-time accepts only; messages re-bucketed
    from the write-ahead buffer after a restart count in ``replayed``
    instead, so received stays an ingest measure rather than drifting
    upward with every crash.
    """

    received: int = 0
    written: int = 0
    buffered_on_disk: int = 0
    files_written: int = 0
    lost_in_crash: int = 0
    replayed: int = 0
    session_expiries: int = 0


#: One pending message: (wire bytes, trace id, WAL index or None).
_PendingRecord = Tuple[bytes, Optional[str], Optional[int]]


class ScribeAggregator:
    """One aggregator process in one datacenter."""

    def __init__(self, name: str, datacenter: str, zk: ZooKeeper,
                 staging: HDFS, clock: LogicalClock,
                 categories: Optional[CategoryRegistry] = None,
                 durable: bool = False,
                 retry_policy: Optional[RetryPolicy] = None,
                 backpressure_disk_files: int = 2,
                 backpressure_pending: int = 10_000) -> None:
        self.name = name
        self.datacenter = datacenter
        self._receive_site = f"aggregator.{name}.receive"
        self._zk = zk
        self._staging = staging
        self._clock = clock
        self._categories = categories or CategoryRegistry()
        self._session: Optional[Session] = None
        # With ``durable`` every accepted message also lands in a local
        # write-ahead buffer (Scribe's store-and-forward file buffer), so a
        # crash only loses the registration, not pending data. Records are
        # keyed by a monotone index so trimming landed messages is O(1)
        # per message (the old list scan was O(n²) per roll).
        self._durable = durable
        self._wal: Dict[int, Tuple[str, bytes, Optional[str], int]] = {}
        self._wal_next_index = 0
        # (category, hour) -> pending records not yet rolled to HDFS.
        self._pending: Dict[Tuple[str, LogHour], List[_PendingRecord]] = {}
        self._pending_count = 0
        # category -> (hour index, LogHour) of its latest receive, so
        # bucketing builds one LogHour per category-hour, not per message.
        self._hours: Dict[str, Tuple[int, LogHour]] = {}
        # Local-disk buffer used during HDFS outages: list of fully-encoded
        # files (path, data, codec, trace ids) waiting to be replayed.
        self._disk_buffer: List[
            Tuple[str, bytes, str, Tuple[str, ...]]] = []
        self._part_counter = 0
        self._retry_policy = retry_policy
        # Backpressure thresholds: the aggregator signals pressure on its
        # acks once staging outages have pushed files onto the local-disk
        # buffer, or once the pending backlog grows past a bound.
        self._bp_disk_files = backpressure_disk_files
        self._bp_pending = backpressure_pending
        self._bp_active = False
        self.stats = AggregatorStats()
        self.alive = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Register in ZooKeeper and begin accepting messages.

        A durable aggregator replays its write-ahead buffer on restart,
        recovering messages that were accepted but unrolled at crash
        time. Replay is faithful: each record keeps its trace id, its
        original receive hour (so late replays do not leak into the wrong
        staging directory), and its WAL index (it stays in the WAL until
        it actually lands). Replays count in ``stats.replayed``, never a
        second time in ``stats.received``.
        """
        if self.alive:
            return
        self._session = register_aggregator(self._zk, self.datacenter,
                                            self.name)
        self.alive = True
        if self._durable and self._wal:
            registry = get_default_registry()
            for index in sorted(self._wal):
                category, wire, trace_id, millis = self._wal[index]
                self.stats.replayed += 1
                registry.counter(
                    obs_names.AGGREGATOR_WAL_REPLAYED,
                    aggregator=self.name, datacenter=self.datacenter).inc()
                self._bucket(category, wire, trace_id, millis, index)

    def crash(self) -> None:
        """Simulate a crash: the ZooKeeper session ends, the ephemeral
        registration disappears, and any pending in-memory data is lost
        unless the aggregator is durable (write-ahead buffer). The
        local-disk outage buffer, like the WAL, survives."""
        if self._session is not None:
            self._session.close()
            self._session = None
        self.alive = False
        lost = self._pending_count
        self._pending.clear()
        self._pending_count = 0
        if not self._durable:
            self._wal.clear()
            self.stats.lost_in_crash += lost
            get_default_registry().counter(
                obs_names.AGGREGATOR_LOST_IN_CRASH,
                aggregator=self.name, datacenter=self.datacenter).inc(lost)

    def shutdown(self) -> None:
        """Graceful stop: flush everything, then deregister."""
        self.flush()
        if self._session is not None:
            self._session.close()
            self._session = None
        self.alive = False

    # -- ingest ----------------------------------------------------------
    def receive(self, entry: LogEntry) -> bool:
        """Accept one log entry from a daemon.

        Returns the aggregator's *backpressure* flag -- conceptually a
        bit on the ack. True asks the sending daemon to stop the
        send-immediately fast path and buffer locally (shedding sampled
        tiers) until pressure clears; the entry itself is always
        accepted. Callers that ignore the return value simply do not
        participate in admission control.
        """
        if not self.alive:
            raise AggregatorDownError(f"aggregator {self.name} is down")
        rule = fault_point(self._receive_site)
        if rule is not None and rule.kind == KIND_CRASH:
            self.crash()
            raise AggregatorDownError(
                f"aggregator {self.name} crashed (injected)")
        self._ensure_registered()
        millis = self._clock.now()
        if entry.origin is not None and entry.seq is not None:
            wire = encode_envelope(entry.origin, entry.seq, entry.message)
        else:
            wire = entry.message
        wal_index: Optional[int] = None
        if self._durable:
            wal_index = self._wal_next_index
            self._wal_next_index += 1
            self._wal[wal_index] = (entry.category, wire, entry.trace_id,
                                    millis)
        self.stats.received += 1
        get_default_registry().counter(
            obs_names.AGGREGATOR_RECEIVED,
            aggregator=self.name, datacenter=self.datacenter).inc()
        get_default_tracer().record(
            entry.trace_id, obs_names.SPAN_AGGREGATOR_RECEIVE,
            millis, aggregator=self.name, datacenter=self.datacenter)
        self._bucket(entry.category, wire, entry.trace_id, millis, wal_index)
        return self._update_backpressure()

    def _ensure_registered(self) -> None:
        """Probe the ZooKeeper session; re-register after an expiry.

        Session expiry (injected via the ``zk.session.*`` fault site) is
        not a crash: the aggregator keeps its pending data and simply
        reconnects, exactly as a production ZooKeeper client would.
        """
        if self._session is not None and self._zk.check_session(
                self._session):
            return
        self.stats.session_expiries += 1
        get_default_registry().counter(
            obs_names.AGGREGATOR_SESSION_EXPIRIES,
            aggregator=self.name, datacenter=self.datacenter).inc()
        self._session = register_aggregator(self._zk, self.datacenter,
                                            self.name)

    def _bucket(self, category: str, wire: bytes, trace_id: Optional[str],
                millis: int, wal_index: Optional[int]) -> None:
        index = millis // MILLIS_PER_HOUR
        cached = self._hours.get(category)
        if cached is None or cached[0] != index:
            cached = self._hours[category] = (
                index, hour_for_millis(category, millis))
        key = (category, cached[1])
        bucket = self._pending.setdefault(key, [])
        bucket.append((wire, trace_id, wal_index))
        self._pending_count += 1
        config = self._categories.get(category)
        if len(bucket) >= config.max_file_records:
            self._roll(key)

    # -- rolling to staging HDFS ------------------------------------------
    def flush(self) -> None:
        """Roll all pending buckets and retry any disk-buffered files."""
        if self.alive:
            self._ensure_registered()
        self.retry_disk_buffer()
        for key in sorted(self._pending, key=lambda k: (k[0], k[1])):
            self._roll(key)

    def _roll(self, key: Tuple[str, LogHour]) -> None:
        records = self._pending.pop(key, [])
        if not records:
            return
        self._pending_count -= len(records)
        category, hour = key
        config = self._categories.get(category)
        wires = [r[0] for r in records]
        trace_ids = tuple(r[1] for r in records if r[1] is not None)
        wal_indices = [r[2] for r in records if r[2] is not None]
        data = encode_messages(wires)
        path = self._next_part_path(hour)
        try:
            self._staging.create(path, data, codec=config.codec)
        except HDFSUnavailableError:
            # §2: buffer on local disk in case of HDFS outages. The disk
            # buffer is durable, so custody of these messages passes from
            # the WAL to it -- trimming here is what stops a later
            # crash-restart from replaying messages that will also be
            # replayed from the disk buffer (duplicates in staging).
            self._disk_buffer.append((path, data, config.codec, trace_ids))
            self.stats.buffered_on_disk += len(wires)
            get_default_registry().gauge(
                obs_names.AGGREGATOR_DISK_BUFFERED,
                aggregator=self.name,
                datacenter=self.datacenter).inc(len(wires))
            self._trim_wal(wal_indices)
            return
        self._record_written(path, len(wires), trace_ids)
        self._trim_wal(wal_indices)
        self._update_backpressure()

    def _record_written(self, path: str, num_messages: int,
                        trace_ids: Tuple[str, ...]) -> None:
        """Account one staging file landing (stats, metrics, spans)."""
        self.stats.written += num_messages
        self.stats.files_written += 1
        registry = get_default_registry()
        registry.counter(obs_names.AGGREGATOR_WRITTEN,
                         aggregator=self.name,
                         datacenter=self.datacenter).inc(num_messages)
        registry.counter(obs_names.AGGREGATOR_FILES_WRITTEN,
                         aggregator=self.name,
                         datacenter=self.datacenter).inc()
        tracer = get_default_tracer()
        for trace_id in trace_ids:
            tracer.record(trace_id, obs_names.SPAN_STAGING_WRITE,
                          self._clock.now(), path=path,
                          aggregator=self.name)
        tracer.bind_path(path, trace_ids)

    def _trim_wal(self, wal_indices: List[int]) -> None:
        """Drop records whose messages reached the next durable stage."""
        for index in wal_indices:
            self._wal.pop(index, None)

    def retry_disk_buffer(self,
                          policy: Optional[RetryPolicy] = None) -> int:
        """Replay disk-buffered files; returns how many files landed.

        Without a policy this is one best-effort pass (files that still
        hit an outage stay buffered). With a :class:`RetryPolicy` --
        either passed here or installed at construction -- passes repeat
        under backoff on the logical clock until the buffer drains or
        attempts run out.
        """
        policy = policy or self._retry_policy
        if policy is None:
            return self._retry_disk_buffer_once()
        landed_total = 0

        def _attempt() -> None:
            nonlocal landed_total
            landed_total += self._retry_disk_buffer_once()
            if self._disk_buffer:
                raise HDFSUnavailableError(
                    f"{len(self._disk_buffer)} file(s) still disk-buffered")

        try:
            policy.call(_attempt, clock=self._clock,
                        site=f"aggregator.{self.name}.disk_buffer",
                        retry_on=(HDFSUnavailableError,))
        except RetryExhaustedError:
            pass  # whatever remains waits for the next flush
        return landed_total

    def _retry_disk_buffer_once(self) -> int:
        landed = 0
        remaining: List[Tuple[str, bytes, str, Tuple[str, ...]]] = []
        for path, data, codec, trace_ids in self._disk_buffer:
            try:
                self._staging.create(path, data, codec=codec)
            except HDFSUnavailableError:
                remaining.append((path, data, codec, trace_ids))
                continue
            landed += 1
            num_messages = len(decode_messages(data))
            self._record_written(path, num_messages, trace_ids)
            self.stats.buffered_on_disk -= num_messages
            get_default_registry().gauge(
                obs_names.AGGREGATOR_DISK_BUFFERED,
                aggregator=self.name,
                datacenter=self.datacenter).dec(num_messages)
        self._disk_buffer = remaining
        self._update_backpressure()
        return landed

    def _next_part_path(self, hour: LogHour) -> str:
        self._part_counter += 1
        directory = staging_path(self.datacenter, hour)
        return f"{directory}/{self.name}-part-{self._part_counter:05d}"

    # -- backpressure ------------------------------------------------------
    @property
    def backpressure(self) -> bool:
        """True while daemons should back off and buffer locally.

        Pressure engages when staging outages have stacked files on the
        local-disk buffer or the in-memory backlog passes its bound --
        the two signs this aggregator is absorbing more than it can
        drain -- and clears by itself as the buffers empty.
        """
        return (len(self._disk_buffer) >= self._bp_disk_files
                or self.pending_messages >= self._bp_pending)

    def _update_backpressure(self) -> bool:
        """Refresh the flag's metrics; returns the current flag."""
        active = self.backpressure
        if active != self._bp_active:
            self._bp_active = active
            registry = get_default_registry()
            if active:
                registry.counter(
                    obs_names.BACKPRESSURE_ENGAGED,
                    aggregator=self.name, datacenter=self.datacenter).inc()
            registry.gauge(
                obs_names.BACKPRESSURE_ACTIVE,
                aggregator=self.name,
                datacenter=self.datacenter).set(1 if active else 0)
        return active

    @property
    def disk_buffered_files(self) -> int:
        """Files waiting on local disk for HDFS to return."""
        return len(self._disk_buffer)

    @property
    def wal_depth(self) -> int:
        """Write-ahead records whose messages have not yet landed."""
        return len(self._wal)

    @property
    def pending_messages(self) -> int:
        """Messages accepted but not yet rolled toward staging."""
        return self._pending_count

    def __repr__(self) -> str:
        return (f"ScribeAggregator({self.name!r}, dc={self.datacenter!r}, "
                f"alive={self.alive})")
