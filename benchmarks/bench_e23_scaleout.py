"""E23 -- warehouse scale-out: sharded landing at ~100x workload.

ROADMAP item 3: one namenode caps the warehouse, so the reproduction
shards it by category hash behind a path-compatible router
(`repro.hdfs.sharded`) and moves hours with one mover per shard
(`repro.logmover.sharded`). This benchmark demonstrates the two claims
that justify the surgery:

* **Sustained landing at ~100x.** The ingest leg drives the full
  pipeline (daemons -> aggregators -> staging -> sharded movers) at one
  hundred times the chaos-soak workload across eight categories spanning
  every QoS tier and all four shards, and records sustained
  landed-events/sec with *bounded memory*: peak daemon backlog and peak
  aggregator pending are sampled every slice and asserted against their
  structural bounds (fault-free daemons never queue; aggregator pending
  is capped by per-category roll thresholds).

* **Per-shard movers with byte-identical output.** The comparison leg
  moves identical staged inputs through a single mover over one
  namenode and through per-shard movers over the 4-shard router,
  asserts the two warehouses are byte-identical file-for-file (path
  compatibility is non-negotiable), and reports the single/sharded
  time ratio. The ratio is reported, not asserted: the sharded mover
  is one serial loop over shard groups (a thread fan-out never beat
  it under the GIL), so correctness, not timing, is the invariant.

Runs two ways:

* under pytest (with pytest-benchmark) as part of the bench suite;
* as a script -- ``python benchmarks/bench_e23_scaleout.py [--smoke]``
  -- for CI, emitting ``BENCH_e23.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.faults.chaos import (
    ENTRIES_PER_SLICE,
    HOUR_MS,
    MINUTE_MS,
    SLICES_PER_HOUR,
    drain,
)
from repro.hdfs.layout import LOGS_ROOT, LogHour, hour_for_millis, staging_path
from repro.hdfs.namenode import HDFS
from repro.hdfs.sharded import ShardedHDFS
from repro.logmover.mover import LogMover
from repro.logmover.sharded import ShardedLogMover
from repro.obs import names as obs_names
from repro.obs.metrics import (
    MetricsRegistry,
    get_default_registry,
    set_default_registry,
)
from repro.scribe.aggregator import encode_messages
from repro.scribe.cluster import ScribeDeployment
from repro.scribe.message import CategoryConfig, LogEntry

SEED = 1
SHARDS = 4
HOURS = 2
SCALE = 100          # multiplier on the chaos soak's per-slice volume
SMOKE_SCALE = 10
MAX_FILE_RECORDS = 500

#: Eight categories spanning every QoS tier and (by crc32) all 4 shards.
CATEGORIES = (
    ("scale_billing", "critical"),
    ("scale_audit", "critical"),
    ("scale_web", "standard"),
    ("scale_search", "standard"),
    ("scale_feed", "standard"),
    ("scale_diag", "bulk"),
    ("scale_mail", "bulk"),
    ("scale_mobile", "bulk"),
)

_RECORD_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_e23.json")


def _merge_record(section, payload, scale):
    """Accumulate one section into BENCH_e23.json (read-modify-write)."""
    record = {}
    if os.path.exists(_RECORD_PATH):
        with open(_RECORD_PATH) as handle:
            record = json.load(handle)
    record["experiment"] = "E23 sharded warehouse scale-out"
    record["workload"] = {
        "seed": SEED, "hours": HOURS, "shards": SHARDS, "scale": scale,
        "categories": len(CATEGORIES),
        "events_per_hour": 2 * 3 * SLICES_PER_HOUR
        * ENTRIES_PER_SLICE * scale,
    }
    record[section] = payload
    with open(_RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------- ingest

def ingest_scenario(scale):
    """Full-pipeline landing at ``scale``x the chaos workload."""
    set_default_registry(MetricsRegistry())
    deployment = ScribeDeployment(
        ["east", "west"], num_hosts=3, num_aggregators=2,
        durable_aggregators=False, seed=SEED, warehouse_shards=SHARDS)
    for category, tier in CATEGORIES:
        deployment.categories.register(CategoryConfig(
            category=category, codec="zlib",
            max_file_records=MAX_FILE_RECORDS, qos=tier))
    clock = deployment.clock
    staging = {name: dc.staging
               for name, dc in deployment.datacenters.items()}
    mover = ShardedLogMover(staging, deployment.warehouse, clock=clock)
    daemons = [daemon for dc in deployment.datacenters.values()
               for daemon in dc.daemons]
    aggregators = [agg for dc in deployment.datacenters.values()
                   for agg in dc.aggregators.values()]

    entries_per_host = ENTRIES_PER_SLICE * scale
    peak_daemon_backlog = 0
    peak_aggregator_pending = 0
    counter = 0
    start = time.perf_counter()
    for h in range(HOURS):
        for s in range(SLICES_PER_HOUR):
            target = h * HOUR_MS + 2 * MINUTE_MS + s * 4 * MINUTE_MS
            if clock.now() < target:
                clock.advance(target - clock.now())
            for dc in deployment.datacenters.values():
                for daemon in dc.daemons:
                    for n in range(entries_per_host):
                        category = CATEGORIES[counter % len(CATEGORIES)][0]
                        daemon.log(LogEntry(
                            category, b"e%08d" % counter))
                        counter += 1
            peak_daemon_backlog = max(
                peak_daemon_backlog, max(d.buffered for d in daemons))
            peak_aggregator_pending = max(
                peak_aggregator_pending,
                max(a.pending_messages for a in aggregators))
            drain(deployment)
        hours = [hour_for_millis(category, h * HOUR_MS)
                 for category, __ in CATEGORIES]
        mover.move_hours(hours, require_complete=False)
    wall_s = time.perf_counter() - start

    landed = sum(result.messages_moved for result in mover.moves)
    accepted = deployment.total_accepted()
    assert landed == accepted == counter, (
        f"conservation broke: accepted={accepted} landed={landed} "
        f"logged={counter}")
    # Bounded memory: fault-free daemons deliver synchronously (no
    # backlog), and aggregator pending is capped by per-category rolls.
    assert peak_daemon_backlog == 0, peak_daemon_backlog
    assert peak_aggregator_pending <= len(CATEGORIES) * MAX_FILE_RECORDS

    registry = get_default_registry()
    per_shard = {labels["shard"]: int(metric.value) for labels, metric in
                 registry.series(obs_names.SHARD_MESSAGES_MOVED)}
    assert len(per_shard) == SHARDS, per_shard
    return {
        "wall_s": round(wall_s, 3),
        "events": landed,
        "landed_events_per_s": round(landed / wall_s, 1),
        "peak_daemon_backlog": peak_daemon_backlog,
        "peak_aggregator_pending": peak_aggregator_pending,
        "per_shard_messages": per_shard,
    }


# ----------------------------------------------------- mover comparison

def _stage_comparison_inputs(scale):
    """One staging cluster holding identical inputs for both movers."""
    staging = HDFS(name="staging-dc1")
    counter = 0
    for category, __ in CATEGORIES:
        for h in range(HOURS):
            hour = LogHour(category, 2012, 3, 7, h)
            directory = staging_path("dc1", hour)
            for part in range(4):
                messages = [b"%s|%08d" % (category.encode(), counter + i)
                            for i in range(25 * scale // 10)]
                counter += len(messages)
                staging.create(f"{directory}/part-{part:03d}",
                               encode_messages(messages), codec="zlib")
    hours = [LogHour(category, 2012, 3, 7, h)
             for category, __ in CATEGORIES for h in range(HOURS)]
    return staging, hours, counter


def _listing(warehouse):
    return [(path, warehouse.open_bytes(path), warehouse.codec_of(path))
            for path in sorted(warehouse.glob_files(LOGS_ROOT))]


def comparison_scenario(scale):
    """Single mover vs. per-shard movers over identical staged data."""
    set_default_registry(MetricsRegistry())
    staging, hours, staged = _stage_comparison_inputs(scale)

    plain = HDFS(name="warehouse")
    single = LogMover({"dc1": staging}, plain)
    start = time.perf_counter()
    for hour in hours:
        single.move_hour(hour, delete_staged=False)
    single_s = time.perf_counter() - start

    router = ShardedHDFS(SHARDS, name="warehouse")
    sharded = ShardedLogMover({"dc1": staging}, router)
    start = time.perf_counter()
    sharded.move_hours(hours, delete_staged=False)
    sharded_s = time.perf_counter() - start

    # Path compatibility is the hard invariant: same files, same paths,
    # same bytes, whatever the backend or core count.
    assert _listing(plain) == _listing(router), (
        "sharded warehouse diverged from the single-namenode layout")
    moved = sum(result.messages_moved for result in sharded.moves)
    assert moved == staged, (moved, staged)

    return {
        "staged_messages": staged,
        "single_mover_s": round(single_s, 3),
        "sharded_mover_s": round(sharded_s, 3),
        "speedup": round(single_s / max(sharded_s, 1e-9), 2),
        "byte_identical": True,
    }


# ---------------------------------------------------------------- pytest

def test_scaleout_landing_and_parallel_movers(benchmark):
    def scenario():
        return {"ingest": ingest_scenario(SMOKE_SCALE),
                "mover_comparison": comparison_scenario(SMOKE_SCALE)}

    result = benchmark.pedantic(scenario, rounds=1, iterations=1)
    for section in ("ingest", "mover_comparison"):
        _merge_record(section, result[section], SMOKE_SCALE)


# ---------------------------------------------------------------- script

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced scale for CI smoke runs")
    args = parser.parse_args(argv)
    scale = SMOKE_SCALE if args.smoke else SCALE

    ingest = ingest_scenario(scale)
    comparison = comparison_scenario(scale)
    _merge_record("ingest", ingest, scale)
    _merge_record("mover_comparison", comparison, scale)

    print(f"=== E23 scale-out (seed {SEED}, {scale}x, {SHARDS} shards, "
          f"{len(CATEGORIES)} categories) ===")
    print(f"  ingest: {ingest['events']} events in "
          f"{ingest['wall_s']}s -> "
          f"{ingest['landed_events_per_s']:,.0f} landed-events/s")
    print(f"  bounded memory: peak daemon backlog "
          f"{ingest['peak_daemon_backlog']}, peak aggregator pending "
          f"{ingest['peak_aggregator_pending']}")
    print(f"  per-shard messages: {ingest['per_shard_messages']}")
    print(f"  movers: single {comparison['single_mover_s']}s vs sharded "
          f"{comparison['sharded_mover_s']}s "
          f"(single/sharded {comparison['speedup']}x)")
    print(f"  byte-identical warehouses: {comparison['byte_identical']}")
    print(f"record: {_RECORD_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
