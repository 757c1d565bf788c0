"""E21 -- event-to-queryable freshness: hourly vs. micro-batch landing.

The paper's warehouse lands data once per hour, so a message logged at
minute 3 waits most of an hour before any query can see it. The
streaming mover (`repro.logmover.streaming`) lands one-minute
micro-batches into the *same* per-hour directories and seals each hour
once its watermark passes, so the finished hour is byte-equivalent to
the hourly mover's output while fresh data is queryable within minutes.

This benchmark drives identical fault-free traffic (two datacenters,
six daemons, twelve slices per hour) through both movers and measures,
per message, the **freshness lag**: logical time from ``daemon.log`` to
the first moment the payload is readable in the warehouse. It asserts

* both legs answer the audit query identically -- same message count,
  same distinct set, same payload checksum (streaming trades nothing
  for its freshness);
* the micro-batch p50 *and* p95 lags are strictly below hourly's.

Runs two ways:

* under pytest (with pytest-benchmark) as part of the bench suite;
* as a script -- ``python benchmarks/bench_e21_streaming.py [--smoke]``
  -- for CI, emitting ``BENCH_e21.json`` at the repo root.  The module
  deliberately avoids importing ``benchmarks.conftest`` so script mode
  works without the repo root on ``sys.path``.
"""

from __future__ import annotations

import argparse
import hashlib
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
from repro.faults.retry import RetryPolicy
from repro.hdfs.layout import LOGS_ROOT, hour_for_millis
from repro.logmover.mover import LogMover
from repro.logmover.streaming import StreamingMover
from repro.obs import names as obs_names
from repro.obs.metrics import (
    MetricsRegistry,
    get_default_registry,
    set_default_registry,
)
from repro.scribe.aggregator import decode_messages
from repro.scribe.cluster import ScribeDeployment
from repro.scribe.message import CategoryConfig, LogEntry, decode_envelope

SEED = 1
HOURS = 3
SMOKE_HOURS = 2
CATEGORY = "client_events"
#: Minutes between a traffic slice and the collection drain that pushes
#: it to staging -- the floor any landing strategy pays.
COLLECT_LAG_MIN = 2

_RECORD_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_e21.json")


def _merge_record(section, payload, hours):
    """Accumulate one section into BENCH_e21.json (read-modify-write)."""
    record = {}
    if os.path.exists(_RECORD_PATH):
        with open(_RECORD_PATH) as handle:
            record = json.load(handle)
    record["experiment"] = "E21 streaming micro-batch freshness"
    record["workload"] = {
        "seed": SEED, "hours": hours,
        "messages_per_hour": 2 * 3 * SLICES_PER_HOUR * ENTRIES_PER_SLICE,
    }
    record[section] = payload
    with open(_RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _percentile(sorted_values, fraction):
    """Nearest-rank percentile of an already-sorted list."""
    index = min(len(sorted_values) - 1,
                int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def _warehouse_payloads(warehouse):
    """Every payload a consumer reading the warehouse would see now."""
    root = f"{LOGS_ROOT}/{CATEGORY}"
    if not warehouse.is_dir(root):
        return []
    payloads = []
    for path in warehouse.glob_files(root):
        for frame_bytes in decode_messages(warehouse.open_bytes(path)):
            __, __, payload = decode_envelope(frame_bytes)
            payloads.append(payload)
    return payloads


def _answer(warehouse):
    """The audit query both legs must answer identically."""
    payloads = _warehouse_payloads(warehouse)
    digest = hashlib.sha256(b"\x00".join(sorted(payloads))).hexdigest()
    return {"messages": len(payloads),
            "distinct": len(set(payloads)),
            "sha256": digest}


def _run_leg(streaming, hours):
    """Identical traffic through one mover; returns the leg's record.

    Each slice logs, waits ``COLLECT_LAG_MIN`` logical minutes, then
    drains daemons and aggregators to staging -- the collection path is
    the same for both legs, so any lag difference is purely the landing
    strategy. The streaming leg polls its mover right after every drain;
    the hourly leg moves each hour once at its boundary.
    """
    set_default_registry(MetricsRegistry())
    policy = RetryPolicy(max_attempts=3, base_delay_ms=100,
                         max_delay_ms=2_000, seed=SEED)
    deployment = ScribeDeployment(
        ["east", "west"], num_hosts=3, num_aggregators=2,
        durable_aggregators=True, seed=SEED, retry_policy=policy)
    deployment.categories.register(CategoryConfig(
        category=CATEGORY, codec="zlib", max_file_records=50))
    clock = deployment.clock
    staging = {name: dc.staging
               for name, dc in deployment.datacenters.items()}
    if streaming:
        mover = StreamingMover(
            staging, deployment.warehouse, clock,
            batch_interval_ms=MINUTE_MS,
            watermark_delay_ms=2 * MINUTE_MS)
    else:
        mover = LogMover(staging, warehouse=deployment.warehouse,
                         clock=clock, retry_policy=policy)

    logged_at = {}
    queryable_at = {}

    def observe():
        now = clock.now()
        for payload in _warehouse_payloads(deployment.warehouse):
            queryable_at.setdefault(payload, now)

    counter = 0
    start = time.perf_counter()
    for h in range(hours):
        for s in range(SLICES_PER_HOUR):
            target = h * HOUR_MS + 2 * MINUTE_MS + s * 4 * MINUTE_MS
            if clock.now() < target:
                clock.advance(target - clock.now())
            for dc in deployment.datacenters.values():
                for daemon in dc.daemons:
                    for _ in range(ENTRIES_PER_SLICE):
                        payload = f"m{counter:06d}".encode()
                        counter += 1
                        logged_at[payload] = clock.now()
                        daemon.log(LogEntry(CATEGORY, payload))
            clock.advance(COLLECT_LAG_MIN * MINUTE_MS)
            drain(deployment)
            if streaming:
                mover.poll(CATEGORY, force=True)
                observe()
        boundary = (h + 1) * HOUR_MS
        if clock.now() < boundary:
            clock.advance(boundary - clock.now())
        drain(deployment)
        if streaming:
            mover.poll(CATEGORY, force=True)
            observe()
        else:
            mover.move_hour(hour_for_millis(CATEGORY, h * HOUR_MS),
                            require_complete=False)
            observe()
    if streaming:
        mover.run_until_sealed(CATEGORY, on_poll=lambda __: observe())
        observe()
    wall_s = time.perf_counter() - start

    missing = set(logged_at) - set(queryable_at)
    assert not missing, f"{len(missing)} payload(s) never became queryable"
    lags = sorted(queryable_at[p] - logged_at[p] for p in logged_at)
    registry = get_default_registry()
    leg = {
        "wall_s": wall_s,
        "messages": len(logged_at),
        "lag_ms": {
            "p50": _percentile(lags, 0.50),
            "p95": _percentile(lags, 0.95),
            "max": lags[-1],
        },
        "answer": _answer(deployment.warehouse),
    }
    if streaming:
        leg["batches_landed"] = int(
            registry.total(obs_names.STREAMING_BATCHES_LANDED))
        leg["hours_sealed"] = int(
            registry.total(obs_names.STREAMING_HOURS_SEALED))
        assert leg["hours_sealed"] >= hours
    return leg


def freshness_scenario(hours):
    """Both legs, equivalence asserted, freshness gain computed."""
    hourly = _run_leg(streaming=False, hours=hours)
    micro = _run_leg(streaming=True, hours=hours)

    assert micro["answer"] == hourly["answer"], (
        "streaming and hourly warehouses answer the audit query "
        f"differently: {micro['answer']} != {hourly['answer']}")
    for quantile in ("p50", "p95"):
        assert micro["lag_ms"][quantile] < hourly["lag_ms"][quantile], (
            f"micro-batch {quantile} lag {micro['lag_ms'][quantile]}ms "
            f"not below hourly {hourly['lag_ms'][quantile]}ms")

    gain = {q: round(hourly["lag_ms"][q] / max(1, micro["lag_ms"][q]), 2)
            for q in ("p50", "p95")}
    return {"hourly": hourly, "micro_batch": micro,
            "freshness_gain": gain}


# ---------------------------------------------------------------- pytest

def test_micro_batches_beat_hourly_freshness(benchmark):
    result = benchmark.pedantic(lambda: freshness_scenario(HOURS),
                                rounds=1, iterations=1)
    for section in ("hourly", "micro_batch", "freshness_gain"):
        _merge_record(section, result[section], HOURS)


# ---------------------------------------------------------------- script

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="shorter soak for CI smoke runs")
    args = parser.parse_args(argv)
    hours = SMOKE_HOURS if args.smoke else HOURS

    result = freshness_scenario(hours)
    for section in ("hourly", "micro_batch", "freshness_gain"):
        _merge_record(section, result[section], hours)

    hourly, micro = result["hourly"], result["micro_batch"]
    print(f"=== E21 freshness (seed {SEED}, {hours}h, "
          f"{hourly['messages']} messages/leg) ===")
    for name, leg in (("hourly", hourly), ("micro-batch", micro)):
        lag = leg["lag_ms"]
        print(f"  {name:12s} p50={lag['p50'] / 60000:5.1f}min "
              f"p95={lag['p95'] / 60000:5.1f}min "
              f"max={lag['max'] / 60000:5.1f}min")
    print(f"  gain         p50={result['freshness_gain']['p50']}x "
          f"p95={result['freshness_gain']['p95']}x")
    print(f"  answers identical: {micro['answer'] == hourly['answer']} "
          f"({hourly['answer']['messages']} messages, "
          f"sha256 {hourly['answer']['sha256'][:12]}...)")
    print(f"  micro-batches landed: {micro['batches_landed']}, "
          f"hours sealed: {micro['hours_sealed']}")
    print(f"record: {_RECORD_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
