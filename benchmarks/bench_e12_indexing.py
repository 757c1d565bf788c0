"""E12 -- §6: Elephant Twin indexing for highly-selective queries.

Paper claim: Elephant Twin "integrates with Hadoop at the level of
InputFormats, which means that applications and frameworks higher up the
Hadoop stack can transparently take advantage of indexes 'for free'. In
Pig, for example, we can easily support push-down of select operations."
Indexes reside alongside the data, so dropping and rebuilding them is
cheap relative to rewriting data (the anti-Trojan-layout argument).

Measured: a selective query (rare signup events) with and without index
pushdown -- identical answers, splits skipped, bytes scanned, mappers
spawned -- plus index build and rebuild cost. The index is the per-hour
``_index/`` partitions of :mod:`repro.elephanttwin.buildjob`, built on a
private copy of the bench day (the build writes beside the data).
"""

import pytest

from benchmarks.conftest import report
from repro.core.event import CLIENT_EVENTS_CATEGORY
from repro.core.names import EventPattern
from repro.elephanttwin.buildjob import WarehouseIndex, build_day_indexes
from repro.elephanttwin.inputformat import IndexedEventsLoader
from repro.hdfs.layout import data_files, hour_dirs_of_day, hour_index_dir
from repro.hdfs.namenode import HDFS
from repro.mapreduce.jobtracker import JobTracker
from repro.pig.loaders import ClientEventsLoader
from repro.pig.relation import PigServer
from repro.workload.generator import load_warehouse_day

SELECTIVE = "*:signup:step_confirm:*:*:*"  # very rare events
MODERATE = "*:query"


@pytest.fixture(scope="module")
def warehouse(workload):
    fs = HDFS(block_size=16 * 1024)  # as the shared bench warehouse
    load_warehouse_day(fs, workload, events_per_file=1_000)
    return fs


@pytest.fixture(scope="module")
def index(warehouse, date):
    build_day_indexes(warehouse, *date)
    return WarehouseIndex.discover(
        warehouse, hour_dirs_of_day(warehouse, CLIENT_EVENTS_CATEGORY, *date)
    ).field("event")


def _run(warehouse, date, pattern, index=None):
    tracker = JobTracker()
    loader = ClientEventsLoader(warehouse, *date)
    matcher = EventPattern(pattern)
    if index is not None:
        loader = IndexedEventsLoader(loader, index, pattern)
    rows = (PigServer(tracker).load(loader)
            .filter(lambda e: matcher.matches(e.event_name))
            .dump())
    return rows, tracker


@pytest.mark.parametrize("pattern", [SELECTIVE, MODERATE])
def test_pushdown(benchmark, warehouse, date, index, pattern):
    full_rows, full_tracker = _run(warehouse, date, pattern)
    fast_rows, fast_tracker = benchmark.pedantic(
        lambda: _run(warehouse, date, pattern, index),
        rounds=2, iterations=1)
    full_bytes = sum(r.input_bytes for r in full_tracker.runs)
    fast_bytes = sum(r.input_bytes for r in fast_tracker.runs)
    report(f"E12 pushdown for {pattern!r}", [
        ("matches", (len(full_rows), len(fast_rows))),
        ("mappers (full vs indexed)",
         (full_tracker.total_map_tasks(), fast_tracker.total_map_tasks())),
        ("bytes scanned", (full_bytes, fast_bytes)),
        ("simulated ms", (round(full_tracker.total_simulated_ms()),
                          round(fast_tracker.total_simulated_ms()))),
    ])
    assert sorted(e.to_bytes() for e in full_rows) == \
        sorted(e.to_bytes() for e in fast_rows)
    assert fast_tracker.total_map_tasks() <= full_tracker.total_map_tasks()
    assert fast_bytes <= full_bytes


def test_selectivity_drives_savings(benchmark, warehouse, date, index):
    """The rarer the predicate, the larger the split skip rate."""

    def skip_rates():
        out = {}
        for pattern in (SELECTIVE, MODERATE, "*:impression"):
            loader = IndexedEventsLoader(
                ClientEventsLoader(warehouse, *date), index, pattern)
            fmt = loader.input_format()
            selected = len(fmt.splits())
            out[pattern] = fmt.skipped_splits / (selected
                                                 + fmt.skipped_splits)
        return out

    rates = benchmark.pedantic(skip_rates, rounds=1, iterations=1)
    report("E12 split skip rate by predicate selectivity",
           sorted(rates.items(), key=lambda kv: -kv[1]))
    assert rates[SELECTIVE] > rates[MODERATE] >= rates["*:impression"]
    assert rates[SELECTIVE] > 0.5


def test_index_build_and_rebuild(benchmark, warehouse, date):
    """Rebuild-from-scratch is routine ("this has already happened
    several times during the past year")."""
    built = benchmark.pedantic(
        lambda: build_day_indexes(warehouse, *date, force=True),
        rounds=2, iterations=1)
    hour_dirs = hour_dirs_of_day(warehouse, CLIENT_EVENTS_CATEGORY, *date)
    assert built.built == hour_dirs
    data_bytes = sum(warehouse.stored_bytes(path) for directory in hour_dirs
                     for path in data_files(warehouse, directory))
    index_bytes = sum(warehouse.total_stored_bytes(hour_index_dir(directory))
                      for directory in hour_dirs)
    terms = WarehouseIndex.discover(warehouse, hour_dirs).field("event")
    report("E12 index build", [
        ("terms", len(terms.terms())),
        ("splits indexed", built.splits_indexed),
        ("index bytes / data bytes",
         f"{index_bytes / data_bytes * 100:.1f}%"),
    ])
    assert index_bytes < data_bytes
