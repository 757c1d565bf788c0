"""E11 -- §4.2 design ablation: why materialize *sequences*?

Paper reasoning: raw client event logs are slow for two independent
reasons -- brute-force scans (data volume) and the session group-by
(shuffle). The alternatives considered:

- rewriting complete Thrift messages session-contiguously "would have
  solved the second issue (large group-by operations) but would have
  little impact on the first (too many brute force scans)";
- an RCFile-like columnar layout reduces per-task reading but "would not
  reduce the number of mappers that are spawned" -- measured on the
  warehouse's own ``_columnar/`` segments, compacted with one row block
  per raw block;
- materialized session sequences "address both the group-by and brute
  force scan issues at the same time".

Measured: the same sessions-containing-event query under all four
layouts, reporting mappers spawned, bytes scanned, shuffle records, and
simulated cluster latency.
"""

import pytest

from benchmarks.conftest import report
from repro.analytics.counting import count_events_raw, count_events_sequences
from repro.core.event import CLIENT_EVENTS_CATEGORY
from repro.core.layouts import reorganize_day
from repro.core.names import EventPattern
from repro.hdfs.layout import hour_columnar_dir, hour_dirs_of_day
from repro.mapreduce.jobtracker import JobTracker
from repro.pig.relation import PigServer
from repro.warehouse.segment import (
    ColumnarSegment,
    build_day_segments,
    compact_hour,
)

PATTERN = "*:query"


@pytest.fixture(scope="module")
def reorganized(warehouse, date):
    layout, __ = reorganize_day(warehouse, *date)
    return layout


def _measure_raw(warehouse, date):
    tracker = JobTracker()
    count = count_events_raw(warehouse, date, PATTERN, tracker=tracker,
                             mode="sessions")
    return count, tracker


def _measure_reorganized(reorganized, date):
    tracker = JobTracker()
    matcher = EventPattern(PATTERN)
    pig = PigServer(tracker)

    class _Loader:
        def input_format(self):
            return reorganized.input_format(*date)

    # Sessions are physically contiguous: a map-only scan suffices.
    flags = (pig.load(_Loader())
             .foreach(lambda session_events: 1 if any(
                 matcher.matches(e.event_name) for e in session_events)
                 else 0)
             .dump())
    return sum(flags), tracker


def _build_rcfile_segments(warehouse, date):
    """Segments whose row blocks follow the raw blocks, RCFile-style.

    RCFile "without modification" keeps one row group per raw HDFS
    block, so its scan spawns one map task per raw block. A segment
    block holds ``block_rows`` rows instead (the default 512 gives 28
    map tasks against the raw day's 55 here), so each hour is compacted
    again with its rows spread over as many blocks as its raw files
    have.
    """
    build_day_segments(warehouse, *date)
    for hour_dir in hour_dirs_of_day(warehouse, CLIENT_EVENTS_CATEGORY,
                                     *date):
        segment = ColumnarSegment.load(warehouse, hour_dir)
        raw_blocks = sum(source.block_count for source in segment.sources)
        compact_hour(warehouse, hour_dir,
                     block_rows=-(-segment.rows // raw_blocks))


def _measure_columnar(warehouse, date):
    # Columns are projected but rows stay in arrival order: the session
    # group-by is still required. Segments make every raw-log query
    # project onto them, so they are dropped again after the measurement
    # to keep the shared warehouse's raw row (and later benches) raw.
    _build_rcfile_segments(warehouse, date)
    try:
        return _measure_raw(warehouse, date)
    finally:
        for hour_dir in hour_dirs_of_day(warehouse, CLIENT_EVENTS_CATEGORY,
                                         *date):
            warehouse.delete(hour_columnar_dir(hour_dir), recursive=True)


def _measure_sequences(warehouse, date, dictionary):
    tracker = JobTracker()
    count = count_events_sequences(warehouse, date, PATTERN, dictionary,
                                   tracker=tracker, mode="sessions")
    return count, tracker


def _row(name, count, tracker):
    return (name, {
        "sessions": count,
        "scan_mappers": tracker.runs[0].map_tasks,
        "mappers": tracker.total_map_tasks(),
        "bytes": sum(r.input_bytes for r in tracker.runs),
        "shuffle": sum(r.shuffle_records for r in tracker.runs),
        "sim_ms": round(tracker.total_simulated_ms()),
    })


def test_layout_ablation(benchmark, warehouse, date, dictionary, reorganized):
    def run_all():
        return {
            "raw": _measure_raw(warehouse, date),
            "reorganized": _measure_reorganized(reorganized, date),
            "columnar": _measure_columnar(warehouse, date),
            "sequences": _measure_sequences(warehouse, date, dictionary),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [_row(name, count, tracker)
            for name, (count, tracker) in results.items()]
    report("E11 layout ablation (sessions containing event)", rows)

    metrics = {name: stats for name, stats in rows}
    # sessions counted within the day may differ slightly at day
    # boundaries (midnight spill), but all four agree within 2%
    counts = [stats["sessions"] for stats in metrics.values()]
    assert max(counts) - min(counts) <= max(counts) * 0.02 + 2

    raw = metrics["raw"]
    reorganized_m = metrics["reorganized"]
    columnar_m = metrics["columnar"]
    sequences = metrics["sequences"]

    # (a) reorganized kills the shuffle but not the scan
    assert reorganized_m["shuffle"] == 0
    assert reorganized_m["bytes"] > raw["bytes"] * 0.5
    # (b) columnar kills most of the scan bytes but keeps the raw
    # data's block count on the scan job (same number of map tasks
    # spawned), still needs the group-by shuffle, and answers the same
    assert columnar_m["bytes"] < raw["bytes"] * 0.5
    assert columnar_m["scan_mappers"] == raw["scan_mappers"]
    assert columnar_m["shuffle"] > 0
    assert columnar_m["sessions"] == raw["sessions"]
    # (c) sequences beat every alternative on every axis
    for other in ("raw", "reorganized", "columnar"):
        assert sequences["mappers"] <= metrics[other]["mappers"]
        assert sequences["bytes"] < metrics[other]["bytes"]
        assert sequences["sim_ms"] <= metrics[other]["sim_ms"]
