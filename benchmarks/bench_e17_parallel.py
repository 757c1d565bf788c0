"""E17 -- the parallel execution backend: speedup with identical answers.

The engine's ``processes`` backend fans map tasks and reduce partitions
over a worker pool while keeping output, counter totals, and tracker
accounting byte-identical to ``serial``. Measured here on the two
heaviest workloads in the suite:

- the E6 raw-log counting query (CPU-bound regex matching over every
  decoded event), and
- the full ``engine='mapreduce'`` day build (histogram pass plus the
  session group-by).

Emits a ``BENCH_e17.json`` record at the repo root with per-backend
wall times, speedups, and parity verdicts, recording both the host's
``cpu_count`` and the *usable* core count (the scheduler affinity mask,
which is what a containerized CI runner actually gets). The >= 1.5x
processes-over-serial assertion only applies on hosts whose usable core
count is at least 4: with one core there is no parallel speedup to
claim, and the parity assertions are the contract that must hold
everywhere.
"""

import json
import os
import time

from benchmarks.conftest import DATE, NUM_USERS, SEED, report
from repro.analytics.counting import count_events_raw
from repro.core.builder import SessionSequenceBuilder
from repro.hdfs.namenode import HDFS
from repro.mapreduce.jobtracker import JobTracker
from repro.workload.generator import load_warehouse_day

PATTERN = "*:impression"
BACKENDS = ("serial", "processes")
MIN_CORES_FOR_SPEEDUP = 4
_RECORD_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_e17.json")


def _usable_cpus():
    """Cores this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the host's cores; in a container or a
    cgroup-limited CI runner the scheduler affinity mask is the real
    budget, and gating the speedup assertion on the wrong number makes
    the benchmark flaky.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def _merge_record(section, payload):
    """Accumulate one section into BENCH_e17.json (read-modify-write)."""
    record = {}
    if os.path.exists(_RECORD_PATH):
        with open(_RECORD_PATH) as handle:
            record = json.load(handle)
    record["experiment"] = "E17 parallel execution backends"
    record["cpu_count"] = os.cpu_count()
    record["usable_cpus"] = _usable_cpus()
    record["speedup_gated"] = _usable_cpus() >= MIN_CORES_FOR_SPEEDUP
    record["workload"] = {"num_users": NUM_USERS, "seed": SEED,
                          "date": list(DATE)}
    record[section] = payload
    with open(_RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _assert_speedup_if_parallel_host(wall):
    """The ISSUE acceptance bar, gated on actually having usable cores."""
    if _usable_cpus() >= MIN_CORES_FOR_SPEEDUP:
        assert wall["serial"] / wall["processes"] >= 1.5


def test_counting_query_backends(benchmark, warehouse, date):
    """E6 raw counting query under each backend: identical answer and
    accounting, wall-clock falling as workers are added."""

    def head_to_head():
        out = {}
        for backend in BACKENDS:
            tracker = JobTracker()
            started = time.perf_counter()
            count = count_events_raw(warehouse, date, PATTERN,
                                     tracker=tracker, backend=backend)
            out[backend] = {
                "wall_s": time.perf_counter() - started,
                "count": count,
                "backend_used": tracker.runs[0].backend,
                "mappers": tracker.total_map_tasks(),
                "simulated_ms": tracker.total_simulated_ms(),
            }
        return out

    out = benchmark.pedantic(head_to_head, rounds=1, iterations=1)
    wall = {b: out[b]["wall_s"] for b in BACKENDS}
    parity = all(
        (out[b]["count"], out[b]["mappers"], out[b]["simulated_ms"])
        == (out["serial"]["count"], out["serial"]["mappers"],
            out["serial"]["simulated_ms"])
        for b in BACKENDS)
    rows = [(b, f"{wall[b]:.3f}s",
             f"{wall['serial'] / wall[b]:.2f}x vs serial",
             f"ran on {out[b]['backend_used']}") for b in BACKENDS]
    report(f"E17 raw counting query ({_usable_cpus()} of "
           f"{os.cpu_count()} cores usable)", rows)
    _merge_record("counting_query", {
        "pattern": PATTERN,
        "count": out["serial"]["count"],
        "wall_s": wall,
        "speedup_processes": wall["serial"] / wall["processes"],
        "parity": parity,
    })
    assert parity
    for backend in BACKENDS:
        assert out[backend]["backend_used"] == backend  # no fallback
    _assert_speedup_if_parallel_host(wall)


def test_mapreduce_day_build_backends(benchmark, workload):
    """The full two-pass mapreduce day build under each backend:
    identical artifacts (histogram, sequence store) and accounting."""

    def build_on(backend):
        fs = HDFS(block_size=16 * 1024)
        load_warehouse_day(fs, workload, events_per_file=1_000)
        builder = SessionSequenceBuilder(fs)
        tracker = JobTracker()
        started = time.perf_counter()
        result = builder.run(*DATE, engine="mapreduce", tracker=tracker,
                             backend=backend)
        wall_s = time.perf_counter() - started
        sequences = sorted(
            (r.user_id, r.session_id, r.session_sequence)
            for r in builder.iter_sequences(*DATE))
        return {
            "wall_s": wall_s,
            "sessions": result.sessions_built,
            "events": result.events_scanned,
            "sequence_bytes": result.sequence_bytes,
            "histogram": dict(builder.load_histogram(*DATE)),
            "sequences": sequences,
            "backend_used": tracker.runs[0].backend,
            "simulated_ms": tracker.total_simulated_ms(),
        }

    def head_to_head():
        return {backend: build_on(backend) for backend in BACKENDS}

    out = benchmark.pedantic(head_to_head, rounds=1, iterations=1)
    wall = {b: out[b]["wall_s"] for b in BACKENDS}
    base = out["serial"]
    parity = all(
        (out[b]["sessions"], out[b]["events"], out[b]["sequence_bytes"],
         out[b]["histogram"], out[b]["sequences"], out[b]["simulated_ms"])
        == (base["sessions"], base["events"], base["sequence_bytes"],
            base["histogram"], base["sequences"], base["simulated_ms"])
        for b in BACKENDS)
    rows = [(b, f"{wall[b]:.3f}s",
             f"{wall['serial'] / wall[b]:.2f}x vs serial",
             f"{out[b]['sessions']} sessions") for b in BACKENDS]
    report(f"E17 mapreduce day build ({_usable_cpus()} of "
           f"{os.cpu_count()} cores usable)", rows)
    _merge_record("day_build", {
        "sessions": base["sessions"],
        "events": base["events"],
        "wall_s": wall,
        "speedup_processes": wall["serial"] / wall["processes"],
        "parity": parity,
    })
    assert parity
    for backend in BACKENDS:
        assert out[backend]["backend_used"] == backend  # no fallback
    _assert_speedup_if_parallel_host(wall)
