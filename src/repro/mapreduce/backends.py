"""Task runners: how the engine executes one map or one reduce task.

The engine plans a job as map tasks (one per input split) and reduce
tasks (one per partition) and runs them in order on the calling thread.
Cluster parallelism is not executed but modelled: the
:class:`~repro.mapreduce.jobtracker.CostModel` turns the exact task,
byte and shuffle counts into the latency a real cluster would see.

A process-pool backend never held a win over this loop (0.46-1.17x
serial on the raw counting query across nine measurements, 0.98x even
with one pool kept across jobs on a 2-CPU host) and was removed, with
the thread pool before it.

Every task runs against its *own* :class:`Counters`, which the engine
merges in task order at the phase barrier. Partitioning uses
:mod:`repro.mapreduce.partition`, which is content-stable, so output
order and counter totals repeat exactly across runs and
``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.mapreduce.counters import (
    Counters,
    GROUP_IO,
    GROUP_TASK,
    INPUT_BYTES,
    INPUT_RECORDS,
    MAP_TASKS,
    OUTPUT_RECORDS,
    REDUCE_INPUT_GROUPS,
    REDUCE_OUTPUT_RECORDS,
    REDUCE_TASKS,
    SHUFFLE_BYTES,
    SHUFFLE_RECORDS,
)
from repro.mapreduce.job import MapReduceJob, TaskContext
from repro.mapreduce.partition import stable_partition


class TaskFailedError(Exception):
    """A task exhausted its attempts; the job fails (Hadoop semantics)."""


def sizeof(value: Any) -> int:
    """Approximate serialized size of a key or value, in bytes."""
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if value is None:
        return 1
    if isinstance(value, (list, tuple, set, frozenset)):
        return 4 + sum(sizeof(v) for v in value)
    if isinstance(value, dict):
        return 4 + sum(sizeof(k) + sizeof(v) for k, v in value.items())
    if hasattr(value, "to_bytes") and callable(value.to_bytes):
        try:
            return len(value.to_bytes())
        except TypeError:
            pass
    return 16  # opaque object


@dataclass
class MapTaskResult:
    """One finished map task: per-reducer pairs plus its own accounting."""

    partitions: List[List[Tuple[Any, Any]]]
    counters: Counters
    wall_time_s: float


@dataclass
class ReduceTaskResult:
    """One finished reduce task: output pairs plus its own accounting."""

    output: List[Tuple[Any, Any]]
    counters: Counters
    wall_time_s: float


def run_map_task(job: MapReduceJob, split: Any) -> MapTaskResult:
    """Execute one map task: read, map (with retries), combine, partition.

    Runs against a private :class:`Counters`; the engine merges results
    in task order.
    """
    started = time.monotonic()
    counters = Counters()
    emitted = _map_attempts(job, split, counters)
    if job.reducer is None:
        partitions = [emitted]
    else:
        if job.combiner is not None:
            emitted = _combine(job, emitted, counters)
        partitions = [[] for __ in range(job.num_reducers)]
        for key, value in emitted:
            counters.increment(GROUP_IO, SHUFFLE_RECORDS)
            counters.increment(GROUP_IO, SHUFFLE_BYTES,
                               sizeof(key) + sizeof(value))
            partitions[stable_partition(key, job.num_reducers)].append(
                (key, value))
    return MapTaskResult(partitions=partitions, counters=counters,
                         wall_time_s=time.monotonic() - started)


def run_reduce_task(job: MapReduceJob,
                    partition: List[Tuple[Any, Any]]) -> ReduceTaskResult:
    """Execute one reduce task over one partition's pairs."""
    started = time.monotonic()
    counters = Counters()
    counters.increment(GROUP_TASK, REDUCE_TASKS)
    ctx = TaskContext(counters)
    grouped = _group_sorted(partition)
    counters.increment(GROUP_IO, REDUCE_INPUT_GROUPS, len(grouped))
    for key, values in grouped:
        job.reducer(key, values, ctx)
    reduced = ctx.drain()
    counters.increment(GROUP_IO, REDUCE_OUTPUT_RECORDS, len(reduced))
    return ReduceTaskResult(output=reduced, counters=counters,
                            wall_time_s=time.monotonic() - started)


def _map_attempts(job: MapReduceJob, split: Any,
                  counters: Counters) -> List[Tuple[Any, Any]]:
    """Hadoop-style retry: a failed attempt's partial output is discarded
    (tasks are idempotent units); only the successful attempt's records
    and emissions count."""
    last_error: Optional[Exception] = None
    for attempt in range(job.max_task_attempts):
        counters.increment(GROUP_TASK, MAP_TASKS)
        counters.increment(GROUP_IO, INPUT_BYTES, split.length_bytes)
        ctx = TaskContext(counters)
        try:
            records = job.input_format.read_split(split)
            for record in records:
                job.mapper(record, ctx)
        except Exception as exc:  # noqa: BLE001 - any task error retries
            counters.increment(GROUP_TASK, "map_task_failures")
            last_error = exc
            continue
        counters.increment(GROUP_IO, INPUT_RECORDS, len(records))
        emitted = ctx.drain()
        counters.increment(GROUP_IO, OUTPUT_RECORDS, len(emitted))
        return emitted
    raise TaskFailedError(
        f"map task over {split!r} failed {job.max_task_attempts} "
        f"attempt(s): {last_error}"
    ) from last_error


def _combine(job: MapReduceJob, emitted: List[Tuple[Any, Any]],
             counters: Counters) -> List[Tuple[Any, Any]]:
    """Run the combiner over one map task's output."""
    ctx = TaskContext(counters)
    for key, values in _group_sorted(emitted):
        job.combiner(key, values, ctx)
    return ctx.drain()


def _group_sorted(pairs: List[Tuple[Any, Any]]) -> List[Tuple[Any, List[Any]]]:
    """Group pairs by key in sorted key order (the shuffle's sort-merge)."""
    grouped: Dict[Any, List[Any]] = defaultdict(list)
    for key, value in pairs:
        grouped[key].append(value)
    return sorted(grouped.items(), key=lambda kv: repr(kv[0]))
