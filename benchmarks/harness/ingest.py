"""The three ingest workloads: ``daemon.log()`` to a readable warehouse.

``ingest_firehose`` moves many tiny messages and decodes nothing;
``batch_day`` lands a client-events day hourly and builds every daily
artefact; ``stream_day`` lands the same day in micro-batches with the
incremental fold on the critical path.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence, Tuple

from repro.clock import MILLIS_PER_HOUR, MILLIS_PER_MINUTE
from repro.core.builder import SessionSequenceBuilder
from repro.core.event import CLIENT_EVENTS_CATEGORY
from repro.elephanttwin.buildjob import build_day_indexes, index_status
from repro.hdfs.layout import (
    LOGS_ROOT,
    STAGING_ROOT,
    data_files,
    hour_for_millis,
    hours_of_day,
    is_columnar_path,
    is_index_path,
    millis_for_hour,
)
from repro.hdfs.namenode import HDFS
from repro.logmover.mover import LogMover
from repro.logmover.sharded import ShardedLogMover
from repro.logmover.streaming import StreamingMover
from repro.obs import names as obs_names
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    get_default_registry,
    set_default_registry,
)
from repro.oink.incremental import IncrementalPipeline
from repro.oink.rollups import RollupJob, rollup_tables
from repro.scribe.aggregator import decode_messages
from repro.scribe.cluster import ScribeDeployment
from repro.scribe.message import CategoryConfig, LogEntry
from repro.warehouse.segment import build_day_segments, segment_status

from benchmarks.harness.common import (
    DATE,
    Workload,
    client_events_deployment,
    decode_events_per_s,
    generate_day,
    is_day_one,
    log_entries,
    median,
    payload_digest,
    percentile,
    scribe_deployment,
    slice_entries,
    timed_entries,
    usable_cpus,
)

#: Events in the client-events day of ``batch_day`` and ``stream_day``.
DAY_EVENTS = 1_800

#: Eight categories spanning every QoS tier and (by crc32) all 4 shards.
FIREHOSE_CATEGORIES = (
    ("scale_billing", "critical"),
    ("scale_audit", "critical"),
    ("scale_web", "standard"),
    ("scale_search", "standard"),
    ("scale_feed", "standard"),
    ("scale_diag", "bulk"),
    ("scale_mail", "bulk"),
    ("scale_mobile", "bulk"),
)
FIREHOSE_SHARDS = 4
FIREHOSE_HOSTS = 2 * 3
FIREHOSE_HOURS = 6
FIREHOSE_SLICES_PER_HOUR = 12
#: Entries each of the 6 hosts logs per slice: 34,560 events a round.
FIREHOSE_ENTRIES_PER_SLICE = 80

POLL_EVERY_MS = 5 * MILLIS_PER_MINUTE
POLLS_PER_DAY = 288


def warehouse_payloads(warehouse) -> List[bytes]:
    """Every payload a reader of the warehouse's raw logs sees now."""
    payloads: List[bytes] = []
    for path in data_files(warehouse, LOGS_ROOT):
        payloads.extend(decode_messages(warehouse.open_bytes(path)))
    return payloads


def _chunks(items: list, size: int) -> List[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def growth_ratio(durations: Sequence[float],
                 messages: Sequence[int]) -> float:
    """Per-message move time, last third of the moves over the first
    third; 1.0 means moving an hour costs the same late as early."""
    per_message = [d / m for d, m in zip(durations, messages) if m]
    third = len(per_message) // 3
    if not third:
        return 0.0
    first = sum(per_message[:third]) / third
    last = sum(per_message[-third:]) / third
    return last / first if first else 0.0


class _IngestWorkload(Workload):
    """Shared accounting of the workloads that drive a Scribe deployment."""

    deployment: ScribeDeployment

    def _daemons(self):
        return [daemon for dc in self.deployment.datacenters.values()
                for daemon in dc.daemons]

    def _aggregators(self):
        return [agg for dc in self.deployment.datacenters.values()
                for agg in dc.aggregators.values()]

    def _staging(self) -> Dict[str, HDFS]:
        return {name: dc.staging
                for name, dc in self.deployment.datacenters.items()}

    def _conserved(self, landed: int) -> bool:
        """logged == accepted == landed, and nothing dropped."""
        dropped = sum(d.stats.dropped for d in self._daemons())
        return (landed == self.deployment.total_accepted()
                == self.events_per_round and dropped == 0)

    def _scribe_hdfs_obs_counts(self) -> Dict[str, float]:
        daemons, aggregators = self._daemons(), self._aggregators()
        warehouse = self.deployment.warehouse
        raw_files = data_files(warehouse, LOGS_ROOT)
        registry = get_default_registry()
        return {
            "scribe.log_calls": self.events_per_round,
            "scribe.send_attempts": sum(d.stats.send_attempts
                                        for d in daemons),
            "scribe.dropped": sum(d.stats.dropped for d in daemons),
            "scribe.staged_files": sum(a.stats.files_written
                                       for a in aggregators),
            "scribe.staged_bytes": sum(
                staging.bytes_written
                for staging in self._staging().values()),
            "hdfs.warehouse_files": len(raw_files),
            "hdfs.warehouse_blocks": sum(warehouse.status(p).block_count
                                         for p in raw_files),
            "hdfs.warehouse_stored_bytes": sum(warehouse.stored_bytes(p)
                                               for p in raw_files),
            "obs.series_count": len(registry),
            "obs.histogram_observations": sum(
                metric.count for __, __, metric in registry
                if isinstance(metric, Histogram)),
        }

    def _staging_files(self) -> int:
        return sum(staging.file_count(STAGING_ROOT)
                   for staging in self._staging().values())

    def _landed_intact(self) -> bool:
        """Do the payloads read back from the warehouse hash to the
        generator's digest?"""
        landed = warehouse_payloads(self.deployment.warehouse)
        return payload_digest(landed) == self.reference_digest

    def _hourly_mover_counts(self, moves, span_messages) -> Dict[str, float]:
        """Counts of an hourly mover plus what its spans of this round
        say; ``span_messages`` is messages moved per ``logmover.move``
        span, in call order."""
        durations = self.tracer.durations("logmover.move",
                                          self.tracer.run_id)
        return {
            "logmover.hours_moved": len(moves),
            "logmover.input_files": sum(m.input_files for m in moves),
            "logmover.output_files": sum(m.output_files for m in moves),
            "logmover.messages_moved": sum(m.messages_moved for m in moves),
            "logmover.duplicates_skipped": sum(m.duplicates_skipped
                                               for m in moves),
            "logmover.move_hour_p50_ms": median(durations) * 1e3,
            "logmover.move_growth_ratio": growth_ratio(durations,
                                                       span_messages),
        }


class IngestFirehose(_IngestWorkload):
    """E23's ingest leg: 8 categories over a 4-shard warehouse."""

    name = "ingest_firehose"

    def set_up(self) -> None:
        started = time.perf_counter()
        per_slice = max(1, round(FIREHOSE_ENTRIES_PER_SLICE * self.scale))
        total = (FIREHOSE_HOURS * FIREHOSE_SLICES_PER_HOUR * FIREHOSE_HOSTS
                 * per_slice)
        entries = [
            LogEntry(FIREHOSE_CATEGORIES[(n + self.seed)
                                         % len(FIREHOSE_CATEGORIES)][0],
                     b"e%04d%08d" % (self.seed % 10_000, n))  # 13 bytes
            for n in range(total)]
        #: blocks[hour][slice][host] -> entries that host logs then.
        self.blocks = _chunks(
            _chunks(_chunks(entries, per_slice), FIREHOSE_HOSTS),
            FIREHOSE_SLICES_PER_HOUR)
        self.events_per_round = total
        self.reference_digest = payload_digest(e.message for e in entries)
        self.setup_metrics = {
            "workload.generate_s": time.perf_counter() - started,
            "workload.events": total,
        }

    def prepare_round(self) -> None:
        set_default_registry(MetricsRegistry())
        self.deployment = scribe_deployment(
            warehouse_shards=FIREHOSE_SHARDS)
        for category, tier in FIREHOSE_CATEGORIES:
            self.deployment.categories.register(CategoryConfig(
                category=category, codec="zlib", max_file_records=500,
                qos=tier))
        self.mover = ShardedLogMover(
            self._staging(), self.deployment.warehouse, backend="threads",
            max_workers=min(usable_cpus(), 4), clock=self.deployment.clock)
        self.peak_daemon_backlog = 0
        self.peak_aggregator_pending = 0
        self.peak_staging_files = 0

    def run_round(self) -> None:
        span = self.tracer.span
        deployment, clock = self.deployment, self.deployment.clock
        daemons, aggregators = self._daemons(), self._aggregators()
        with span("harness.round"), span("harness.ingest"):
            for h, hour_blocks in enumerate(self.blocks):
                for s, slice_blocks in enumerate(hour_blocks):
                    clock.advance_to(h * MILLIS_PER_HOUR
                                     + (2 + 4 * s) * MILLIS_PER_MINUTE)
                    with span("scribe.log"):
                        for daemon, block in zip(daemons, slice_blocks):
                            log = daemon.log
                            for entry in block:
                                log(entry)
                    self.peak_daemon_backlog = max(
                        self.peak_daemon_backlog,
                        max(d.buffered for d in daemons))
                    self.peak_aggregator_pending = max(
                        self.peak_aggregator_pending,
                        max(a.pending_messages for a in aggregators))
                    with span("scribe.flush"):
                        deployment.flush_all()
                if self.tracer.enabled:
                    self.peak_staging_files = max(self.peak_staging_files,
                                                  self._staging_files())
                hours = [hour_for_millis(category, h * MILLIS_PER_HOUR)
                         for category, __ in FIREHOSE_CATEGORIES]
                with span("logmover.move"):
                    self.mover.move_hours(hours, require_complete=False)

    def inspect_round(self, collect: bool) -> Tuple[int, int]:
        moves = self.mover.moves
        landed = sum(m.messages_moved for m in moves)
        attempted = self.events_per_round + len(moves)
        failed = 0 if self._conserved(landed) else self.events_per_round
        if collect:
            per_shard = [metric.value for __, metric in
                         get_default_registry().series(
                             obs_names.SHARD_MESSAGES_MOVED)]
            per_hour = self.events_per_round // FIREHOSE_HOURS
            self.counts = {
                **self._scribe_hdfs_obs_counts(),
                **self._hourly_mover_counts(
                    moves, [per_hour] * FIREHOSE_HOURS),
                "scribe.peak_daemon_backlog": self.peak_daemon_backlog,
                "scribe.peak_aggregator_pending":
                    self.peak_aggregator_pending,
                "hdfs.staging_files": self.peak_staging_files,
                "hdfs.shard_skew": (max(per_shard) * len(per_shard)
                                    / sum(per_shard)) if per_shard else 0.0,
            }
        return attempted, failed

    def final_check(self) -> int:
        return 0 if self._landed_intact() else self.events_per_round


class _DayIngest(_IngestWorkload):
    """A generated client-events day through a 2-datacenter deployment."""

    def set_up(self) -> None:
        day = generate_day(self.seed, max(50, round(DAY_EVENTS * self.scale)))
        self.day = day
        self.entries = timed_entries(day)
        self.events_per_round = len(day.events)
        self.payload_bytes = sum(len(p) for p in day.payloads)
        self.reference_digest = payload_digest(day.payloads)
        self.day_setup_metrics(day)

    def _reference_rollups(self):
        return rollup_tables(e for e in self.day.events if is_day_one(e))

    def probe(self) -> Dict[str, float]:
        return {"thriftlike.decode_events_per_s":
                decode_events_per_s(self.day.payloads)}


class BatchDay(_DayIngest):
    """The paper's hourly/daily path: land the day, then build it."""

    name = "batch_day"
    BUILD_JOBS = 4

    def set_up(self) -> None:
        super().set_up()
        self.by_hour = slice_entries(self.entries, MILLIS_PER_HOUR, 24)
        year, month, day = DATE
        self.hours = (hours_of_day(CLIENT_EVENTS_CATEGORY, year, month, day)
                      + hours_of_day(CLIENT_EVENTS_CATEGORY, year, month,
                                     day + 1))

    def prepare_round(self) -> None:
        set_default_registry(MetricsRegistry())
        self.deployment = client_events_deployment()
        self.mover = LogMover(self._staging(), self.deployment.warehouse,
                              clock=self.deployment.clock)
        self.peak_staging_files = 0

    def run_round(self) -> None:
        span = self.tracer.span
        deployment, mover = self.deployment, self.mover
        warehouse = deployment.warehouse
        with span("harness.round"):
            with span("harness.ingest"):
                for block in self.by_hour:
                    with span("scribe.log"):
                        log_entries(deployment, block)
                with span("scribe.flush"):
                    deployment.flush_all()
                if self.tracer.enabled:
                    self.peak_staging_files = self._staging_files()
                for hour in self.hours:
                    if mover.hour_has_data(hour):
                        with span("logmover.move"):
                            mover.move_hour(hour, require_complete=False)
            with span("harness.build"):
                with span("core.sequences_build"):
                    self.sequences = SessionSequenceBuilder(warehouse).run(
                        *DATE)
                with span("oink.rollup_job"):
                    self.rollups = RollupJob(warehouse).run(*DATE)
                with span("elephanttwin.build"):
                    self.indexes = build_day_indexes(warehouse, *DATE)
                with span("warehouse.segment_build"):
                    self.segments = build_day_segments(warehouse, *DATE)

    def inspect_round(self, collect: bool) -> Tuple[int, int]:
        moves = self.mover.moves
        landed = sum(m.messages_moved for m in moves)
        attempted = self.events_per_round + len(moves) + self.BUILD_JOBS
        failed = 0 if self._conserved(landed) else self.events_per_round
        if collect:
            warehouse = self.deployment.warehouse
            files = warehouse.glob_files(LOGS_ROOT)
            self.counts = {
                **self._scribe_hdfs_obs_counts(),
                **self._hourly_mover_counts(
                    moves, [m.messages_moved for m in moves]),
                "hdfs.staging_files": self.peak_staging_files,
                "warehouse_bytes_per_logged_byte":
                    warehouse.total_stored_bytes("/") / self.payload_bytes,
                "core.sessions_built": self.sequences.sessions_built,
                "core.sequences_bytes": self.sequences.sequence_bytes,
                "core.compression_factor":
                    self.sequences.compression_factor,
                "oink.rollup_rows": sum(len(table) for table in
                                        self.rollups.tables.values()),
                "elephanttwin.hours_built": self.indexes.hours_built,
                "elephanttwin.index_bytes": sum(
                    warehouse.stored_bytes(p) for p in files
                    if is_index_path(p)),
                "warehouse.rows_compacted": self.segments.rows_compacted,
                "warehouse.segment_bytes": sum(
                    warehouse.stored_bytes(p) for p in files
                    if is_columnar_path(p)),
            }
        return attempted, failed

    def final_check(self) -> int:
        warehouse = self.deployment.warehouse
        day_one = sum(1 for e in self.day.events if is_day_one(e))
        failed = 0 if self._landed_intact() else self.events_per_round
        failed += self.sequences.events_scanned != day_one
        failed += self.rollups.tables != self._reference_rollups()
        failed += any(status != "fresh"
                      for __, status in index_status(warehouse, *DATE))
        failed += any(segment_status(warehouse, directory) != "fresh"
                      for directory in self.segments.built
                      + self.segments.skipped_fresh)
        return failed


class StreamDay(_DayIngest):
    """The same day landed in micro-batches, folded as hours seal."""

    name = "stream_day"

    def set_up(self) -> None:
        super().set_up()
        self.by_poll = slice_entries(self.entries, POLL_EVERY_MS,
                                     POLLS_PER_DAY)

    def prepare_round(self) -> None:
        set_default_registry(MetricsRegistry())
        self.deployment = client_events_deployment()
        self.mover = StreamingMover(
            self._staging(), self.deployment.warehouse, self.deployment.clock,
            batch_interval_ms=MILLIS_PER_MINUTE,
            watermark_delay_ms=2 * MILLIS_PER_MINUTE)
        self.pipeline = IncrementalPipeline(self.deployment.warehouse)
        self.polls = 0
        self.landed = 0
        self.seal_lags_ms: List[int] = []
        self.visible_lags_ms: List[int] = []
        self.open_sessions_peak = 0

    def _observe(self, poll) -> None:
        """Feed one poll to the fold, then note what it sealed."""
        with self.tracer.span("oink.fold"):
            deltas = self.pipeline.observe_poll(poll)
        self.polls += 1
        self.landed += poll.messages_landed
        for hour in poll.sealed:
            self.seal_lags_ms.append(
                poll.now_ms - millis_for_hour(hour) - MILLIS_PER_HOUR)
        for delta in deltas:
            self.visible_lags_ms.append(
                poll.now_ms - millis_for_hour(delta.hour) - MILLIS_PER_HOUR)
        self.open_sessions_peak = max(
            self.open_sessions_peak, self.pipeline.sessionizer.open_count())

    def run_round(self) -> None:
        span = self.tracer.span
        deployment, mover = self.deployment, self.mover
        clock = deployment.clock
        with span("harness.round"), span("harness.ingest"):
            for i, block in enumerate(self.by_poll[:POLLS_PER_DAY]):
                with span("scribe.log"):
                    log_entries(deployment, block)
                clock.advance_to((i + 1) * POLL_EVERY_MS)
                with span("scribe.flush"):
                    deployment.flush_all()
                with span("logmover.poll"):
                    poll = mover.poll(CLIENT_EVENTS_CATEGORY, force=True)
                self._observe(poll)
            with span("scribe.log"):
                log_entries(deployment, self.by_poll[POLLS_PER_DAY])
            with span("scribe.flush"):
                deployment.flush_all()
            with span("logmover.poll"):
                mover.run_until_sealed(CLIENT_EVENTS_CATEGORY,
                                       on_poll=self._observe)

    def inspect_round(self, collect: bool) -> Tuple[int, int]:
        attempted = self.events_per_round + self.polls
        failed = 0 if self._conserved(self.landed) else self.events_per_round
        if collect:
            registry = get_default_registry()
            sessionizer = self.pipeline.sessionizer
            self.counts = {
                **self._scribe_hdfs_obs_counts(),
                "logmover.polls": self.polls,
                "logmover.batches_landed": registry.total(
                    obs_names.STREAMING_BATCHES_LANDED),
                "logmover.hours_sealed": len(self.mover.hours_sealed()),
                "logmover.late_reopens": self.mover.late_reopens(),
                "logmover.seal_lag_logical_p50_ms":
                    median(self.seal_lags_ms),
                "logmover.seal_lag_logical_p95_ms":
                    percentile(self.seal_lags_ms, 0.95),
                "oink.hours_folded": self.pipeline.hours_processed,
                "oink.deltas_applied": self.pipeline.rollup.deltas_applied,
                "oink.sessions_closed": len(sessionizer.closed_sessions()),
                "oink.open_sessions_peak": self.open_sessions_peak,
                "oink.rollup_visible_lag_logical_p50_ms":
                    median(self.visible_lags_ms),
            }
        return attempted, failed

    def final_check(self) -> int:
        failed = 0 if self._landed_intact() else self.events_per_round
        if self.mover.unsealed_hours():
            failed += self.polls
        live = self.pipeline.rollup.result_for_day(DATE)
        failed += live is None or live.tables != self._reference_rollups()
        return failed
