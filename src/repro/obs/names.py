"""Canonical metric and span names for the observability layer.

Naming conventions (documented in ``docs/observability.md``):

- metrics are ``<subsystem>_<noun>[_<unit>][_total]`` -- subsystems are
  ``scribe_daemon``, ``scribe_aggregator``, ``logmover``, ``mapreduce``,
  ``elephanttwin``, ``oink``, and the cross-stage ``pipeline``;
- monotonically-increasing counters end in ``_total``;
- gauges name the instantaneous quantity (``scribe_daemon_buffer_depth``);
- histograms carry their unit as a suffix (``_ms``, ``_seconds``);
- labels identify the emitting instance (``host``, ``aggregator``,
  ``datacenter``, ``category``, ``job``), never unbounded values.

Span names mirror the hops of Figure 1 so one entry's end-to-end trace
reads daemon → aggregator → staging → mover → warehouse.
"""

from __future__ import annotations

# -- scribe daemon (per production host) --------------------------------
DAEMON_ACCEPTED = "scribe_daemon_accepted_total"
DAEMON_SENT = "scribe_daemon_sent_total"
DAEMON_BUFFERED = "scribe_daemon_buffered_total"
DAEMON_RESENT = "scribe_daemon_resent_total"
DAEMON_DROPPED = "scribe_daemon_dropped_total"
DAEMON_FAILOVERS = "scribe_daemon_failovers_total"
DAEMON_BUFFER_DEPTH = "scribe_daemon_buffer_depth"

# -- scribe aggregator --------------------------------------------------
AGGREGATOR_RECEIVED = "scribe_aggregator_received_total"
AGGREGATOR_WRITTEN = "scribe_aggregator_written_total"
AGGREGATOR_FILES_WRITTEN = "scribe_aggregator_files_written_total"
AGGREGATOR_LOST_IN_CRASH = "scribe_aggregator_lost_in_crash_total"
AGGREGATOR_DISK_BUFFERED = "scribe_aggregator_disk_buffered_messages"
AGGREGATOR_WAL_REPLAYED = "scribe_aggregator_wal_replayed_total"
AGGREGATOR_SESSION_EXPIRIES = "scribe_aggregator_session_expiries_total"

# -- overload control (QoS admission, backpressure) ----------------------
BACKPRESSURE_ENGAGED = "scribe_backpressure_engaged_total"
BACKPRESSURE_ACTIVE = "scribe_backpressure_active"
BACKPRESSURE_HONORED = "scribe_backpressure_honored_total"
QOS_SAMPLED = "qos_sampled_total"

# -- sharded warehouse (repro.hdfs.sharded, repro.logmover.sharded) ------
SHARD_HOURS_MOVED = "shard_hours_moved_total"
SHARD_MESSAGES_MOVED = "shard_messages_moved_total"
SHARD_STORED_BYTES = "shard_stored_bytes"

# -- log mover ----------------------------------------------------------
MOVER_HOURS_MOVED = "logmover_hours_moved_total"
MOVER_FILES_MOVED = "logmover_files_moved_total"
MOVER_FILES_WRITTEN = "logmover_files_written_total"
MOVER_MESSAGES_MOVED = "logmover_messages_moved_total"
MOVER_BYTES_MOVED = "logmover_bytes_moved_total"
MOVER_CHECK_FAILURES = "logmover_check_failures_total"
MOVER_DUPLICATES_SKIPPED = "logmover_duplicates_skipped_total"
MOVER_CRASHES = "logmover_crashes_total"
MOVER_QUARANTINED_FILES = "logmover_quarantined_files_total"

# -- streaming micro-batch landing (repro.logmover.streaming) -------------
STREAMING_BATCHES_LANDED = "streaming_batches_landed_total"
STREAMING_WATERMARK_LAG = "streaming_watermark_lag_ms"
STREAMING_HOURS_SEALED = "streaming_hours_sealed_total"
STREAMING_LATE_REOPENS = "streaming_late_reopens_total"

# -- fault injection and recovery ----------------------------------------
FAULTS_INJECTED = "faults_injected_total"
RETRY_ATTEMPTS = "retry_attempts_total"

# -- cross-stage pipeline ------------------------------------------------
PIPELINE_DELIVERY_LATENCY = "pipeline_delivery_latency_ms"

# -- tracing -------------------------------------------------------------
TRACER_EVICTED = "tracer_traces_evicted_total"

# -- continuous monitoring (repro.obs.monitor) ---------------------------
MONITOR_SAMPLES = "monitor_samples_total"
QUALITY_AUDITS = "quality_audits_total"
QUALITY_HOURS = "quality_hours"
QUALITY_OUTSTANDING = "quality_outstanding_messages"
ALERTS_FIRED = "alerts_fired_total"
ALERTS_RESOLVED = "alerts_resolved_total"
ALERTS_ACTIVE = "alerts_active"

# -- mapreduce -----------------------------------------------------------
MAPREDUCE_JOBS = "mapreduce_jobs_total"
MAPREDUCE_JOB_WALL_TIME = "mapreduce_job_wall_time_seconds"
MAPREDUCE_COUNTER_PREFIX = "mapreduce_"
MAPREDUCE_TASK_WALL_TIME = "mapreduce_task_wall_time_seconds"

# -- elephant twin (selective-query index layer) --------------------------
ELEPHANTTWIN_SPLITS_SKIPPED = "elephanttwin_splits_skipped_total"
ELEPHANTTWIN_SPLITS_UNINDEXED = "elephanttwin_splits_unindexed_total"
ELEPHANTTWIN_BYTES_PRUNED = "elephanttwin_bytes_pruned_total"
ELEPHANTTWIN_INDEX_BUILD_SECONDS = "elephanttwin_index_build_seconds"

# -- columnar warehouse segments (repro.warehouse) ------------------------
COLUMNAR_BYTES_DECODED = "columnar_bytes_decoded_total"
COLUMNAR_BLOCKS_PRUNED = "columnar_blocks_pruned_total"
COLUMNAR_BYTES_PRUNED = "columnar_bytes_pruned_total"
COLUMNAR_ENCODE_SECONDS = "columnar_encode_seconds"
COLUMNAR_SEGMENTS_BUILT = "columnar_segments_built_total"

# -- oink ----------------------------------------------------------------
OINK_JOB_RUNS = "oink_job_runs_total"
OINK_JOB_DURATION = "oink_job_duration_ms"

# -- incremental sessionization + rollups (repro.oink.incremental) --------
INCREMENTAL_SESSIONS_OPEN = "incremental_sessions_open_total"
INCREMENTAL_SESSIONS_CLOSED = "incremental_sessions_closed_total"
INCREMENTAL_SESSIONS_REOPENED = "incremental_sessions_reopened_total"
INCREMENTAL_OPEN_SESSIONS = "incremental_open_sessions"
ROLLUP_DELTAS_APPLIED = "rollup_deltas_applied_total"
ROLLUP_CORRECTION_LAG = "rollup_correction_lag_ms"

# -- span names (pipeline hops, in order) --------------------------------
SPAN_DAEMON_ENQUEUE = "daemon.enqueue"
SPAN_DAEMON_RESEND = "daemon.resend"
SPAN_AGGREGATOR_RECEIVE = "aggregator.receive"
SPAN_STAGING_WRITE = "staging.write"
SPAN_MOVER_DEMUX = "mover.demux"
SPAN_MOVER_QUARANTINE = "mover.quarantine"
SPAN_WAREHOUSE_LAND = "warehouse.land"

#: The hops a fully-delivered entry traverses, in pipeline order.
PIPELINE_HOPS = (
    SPAN_DAEMON_ENQUEUE,
    SPAN_AGGREGATOR_RECEIVE,
    SPAN_STAGING_WRITE,
    SPAN_MOVER_DEMUX,
    SPAN_WAREHOUSE_LAND,
)
