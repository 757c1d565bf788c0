"""E20 -- columnar mega-table segments: vectorized scans, same answers.

The columnar subsystem's bargain: per-hour ``_columnar/`` segments
beside the raw files let projected and filtered queries decode a
fraction of the bytes a row scan pays, while every answer stays
byte-identical. This benchmark exercises the whole path the way
production would: segments compacted by the day build, Pig plans whose
projection pruning and zone-map predicate pushdown engage through the
loader automatically, and composition with Elephant Twin split pruning.

Measured and asserted (the ISSUE acceptance bars):

* a projected, filtered counting query decodes at least 5x fewer bytes
  from columnar segments than the raw row scan it replaces, with the
  identical answer;
* zone maps compose with Elephant Twin: the index prunes whole splits,
  and ``columnar_blocks_pruned_total`` still rises within the
  survivors -- with identical rows out.

Runs two ways:

* under pytest (with pytest-benchmark) as part of the bench suite;
* as a script -- ``python benchmarks/bench_e20_columnar.py [--smoke]``
  -- for CI, emitting ``BENCH_e20.json`` at the repo root.  The module
  deliberately avoids importing ``benchmarks.conftest`` so script mode
  works without the repo root on ``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.analytics.counting import count_events_raw
from repro.core.event import CLIENT_EVENTS_CATEGORY
from repro.hdfs.layout import day_path
from repro.hdfs.namenode import HDFS
from repro.mapreduce.jobtracker import JobTracker
from repro.obs import names as obs_names
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.pig.loaders import ClientEventsLoader
from repro.pig.relation import PigServer
from repro.pig.udf import EventNameFilter
from repro.warehouse.predicates import EventPatternPredicate
from repro.warehouse.segment import build_day_segments, segment_status
from repro.workload.generator import WorkloadGenerator, load_warehouse_day

# Mirrors benchmarks/conftest.py; duplicated so script mode needs no
# package-relative import.
DATE = (2012, 3, 10)
NUM_USERS = 500
SMOKE_USERS = 120
SEED = 2012

PATTERN = "web:signup:step_confirm:*"
#: Block granularity for the bench build: finer than Elephant Twin's
#: split granularity, so zone maps still have blocks to prune inside
#: the index's surviving splits.
BLOCK_ROWS = 32
MIN_BYTES_RATIO = 5.0

_RECORD_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_e20.json")


def _merge_record(section, payload, num_users):
    """Accumulate one section into BENCH_e20.json (read-modify-write)."""
    record = {}
    if os.path.exists(_RECORD_PATH):
        with open(_RECORD_PATH) as handle:
            record = json.load(handle)
    record["experiment"] = "E20 columnar mega-table segments"
    record["workload"] = {"num_users": num_users, "seed": SEED,
                          "date": list(DATE)}
    record[section] = payload
    with open(_RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _fresh_warehouse(num_users):
    workload = WorkloadGenerator(num_users=num_users, seed=SEED)
    fs = HDFS(block_size=16 * 1024)  # small blocks => many map splits
    load_warehouse_day(fs, workload.generate_day(*DATE),
                       events_per_file=1_000)
    return fs


def _raw_scan_bytes(fs):
    """Bytes a row scan decodes: every stored (uncompressed) data byte."""
    return sum(len(fs.open_bytes(path))
               for path in ClientEventsLoader(fs, *DATE).paths())


def _counting_query(fs):
    """The E6 counting query; decoded-byte accounting on a fresh registry
    so the measurement covers exactly this run."""
    registry = MetricsRegistry()
    old = set_default_registry(registry)
    tracker = JobTracker()
    try:
        started = time.perf_counter()
        count = count_events_raw(fs, DATE, PATTERN, tracker=tracker)
        wall_s = time.perf_counter() - started
    finally:
        set_default_registry(old)
    return {
        "count": count,
        "wall_s": wall_s,
        "input_bytes": sum(run.input_bytes for run in tracker.runs),
        "columnar_bytes": registry.total(obs_names.COLUMNAR_BYTES_DECODED),
        "blocks_pruned": registry.total(obs_names.COLUMNAR_BLOCKS_PRUNED),
    }


def _rows_key(rows):
    return sorted(e.to_bytes() for e in rows)


def projected_scenario(fs):
    """Projected counting query: >=5x fewer decoded bytes, same answer."""
    baseline = _counting_query(fs)  # segments absent: the raw row scan
    assert baseline["columnar_bytes"] == 0
    raw_bytes = _raw_scan_bytes(fs)

    start = time.perf_counter()
    build = build_day_segments(fs, *DATE, block_rows=BLOCK_ROWS)
    build_wall_s = time.perf_counter() - start
    assert all(segment_status(fs, hour) == "fresh" for hour in build.built)

    columnar = _counting_query(fs)
    assert columnar["count"] == baseline["count"] > 0
    # A scan that reads far fewer bytes than the row scan it replaced.
    assert columnar["input_bytes"] < baseline["input_bytes"]
    columnar_bytes = columnar["columnar_bytes"]
    assert 0 < columnar_bytes < raw_bytes
    ratio = raw_bytes / columnar_bytes
    assert ratio >= MIN_BYTES_RATIO

    return {
        "pattern": PATTERN,
        "count": baseline["count"],
        "raw_scan_bytes": raw_bytes,
        "columnar_bytes_decoded": columnar_bytes,
        "bytes_ratio": ratio,
        "input_bytes_raw": baseline["input_bytes"],
        "input_bytes_columnar": columnar["input_bytes"],
        "hours_compacted": len(build.built),
        "rows_compacted": build.rows_compacted,
        "build_wall_s": build_wall_s,
        "raw_wall_s": baseline["wall_s"],
        "wall_s": columnar["wall_s"],
        # Base: the raw row scan's wall clock, over the columnar scan's
        # (one run each; recorded, never asserted).
        "wall_ratio": baseline["wall_s"] / columnar["wall_s"],
    }


def composition_scenario(fs):
    """Elephant Twin + zone maps: splits pruned first, then blocks
    within the survivors -- identical rows out the other end."""
    from repro.elephanttwin.buildjob import build_day_indexes

    build_day_indexes(fs, *DATE)
    build_day_segments(fs, *DATE, block_rows=BLOCK_ROWS)
    loader = ClientEventsLoader(fs, *DATE)

    full = _rows_key(PigServer().load(ClientEventsLoader(fs, *DATE))
                     .filter(EventNameFilter(PATTERN)).dump())

    base = loader.indexed_input_format(PATTERN)
    registry = MetricsRegistry()
    old = set_default_registry(registry)
    try:
        fmt = loader.columnar_input_format(
            base=base, predicates=[EventPatternPredicate(PATTERN)])
        rows = [record for split in fmt.splits()
                for record in fmt.read_split(split)]
    finally:
        set_default_registry(old)
    matched = sorted(e.to_bytes() for e in rows
                     if EventNameFilter(PATTERN)(e))

    assert matched == full
    assert base.skipped_splits > 0  # the index dropped whole splits
    assert fmt.blocks_pruned > 0  # zone maps dropped blocks within
    assert registry.total(obs_names.COLUMNAR_BLOCKS_PRUNED) > 0

    return {
        "pattern": PATTERN,
        "matches": len(full),
        "index_skipped_splits": base.skipped_splits,
        "blocks_pruned": fmt.blocks_pruned,
        "block_bytes_pruned": fmt.pruned_bytes,
        "columnar_splits": fmt.columnar_splits,
        "raw_fallback_splits": fmt.raw_splits,
    }


# ---------------------------------------------------------------- pytest

def test_projected_query_bytes_ratio(benchmark):
    fs = _fresh_warehouse(NUM_USERS)
    result = benchmark.pedantic(lambda: projected_scenario(fs),
                                rounds=1, iterations=1)
    _merge_record("projected_query", result, NUM_USERS)


def test_elephanttwin_composition(benchmark):
    fs = _fresh_warehouse(NUM_USERS)
    result = benchmark.pedantic(lambda: composition_scenario(fs),
                                rounds=1, iterations=1)
    _merge_record("composition", result, NUM_USERS)


# ---------------------------------------------------------------- script

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="smaller workload for CI smoke runs")
    args = parser.parse_args(argv)
    num_users = SMOKE_USERS if args.smoke else NUM_USERS

    fs = _fresh_warehouse(num_users)
    projected = projected_scenario(fs)
    composition = composition_scenario(fs)
    _merge_record("projected_query", projected, num_users)
    _merge_record("composition", composition, num_users)

    print(f"=== E20 projected query ({num_users} users) ===")
    print(f"  matches                : {projected['count']}")
    print(f"  raw scan bytes         : {projected['raw_scan_bytes']}")
    print(f"  columnar bytes decoded : "
          f"{projected['columnar_bytes_decoded']}")
    print(f"  reduction              : {projected['bytes_ratio']:.1f}x")
    print(f"  raw / columnar wall    : {projected['raw_wall_s']:.3f}s / "
          f"{projected['wall_s']:.3f}s = "
          f"{projected['wall_ratio']:.1f}x")
    print("=== E20 Elephant Twin composition ===")
    print(f"  splits index-skipped   : "
          f"{composition['index_skipped_splits']}")
    print(f"  blocks zone-pruned     : {composition['blocks_pruned']}")
    print(f"  matches                : {composition['matches']}")
    print(f"record: {_RECORD_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
