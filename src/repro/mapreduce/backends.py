"""Execution backends: how the engine's tasks actually run.

The engine plans a job as map tasks (one per input split) and reduce
tasks (one per partition); a backend decides where those tasks execute:

- ``serial`` runs tasks in order on the calling thread -- the classic
  single-core engine;
- ``processes`` fans tasks out over a :class:`ProcessPoolExecutor` for
  real multi-core speedup.

A thread-pool backend did not pay for itself under the GIL (E17 on a
2-CPU host, three runs: 0.70-1.08x serial on the raw counting query,
0.69-0.98x on the day build) and was removed.

Determinism contract: every task runs against its *own*
:class:`Counters`, and the engine merges per-task results **in task
order at the phase barrier**, so counter totals, tracker accounting, and
output order are identical across both backends regardless of
completion order.  Partitioning uses :mod:`repro.mapreduce.partition`,
which is stable across worker processes under randomized
``PYTHONHASHSEED``.

The process pool requires the whole job (mapper, combiner, reducer,
input format) to be picklable.  :func:`prepare_backend` probes that with
``pickle.dumps`` up front; closure-based jobs get a clear warning and
fall back to ``serial``, so ``backend="processes"`` is always safe to
request.  The job payload is pickled once and shipped via pool
initializer; per-task traffic is just splits and partition data.

Both map *and* reduce tasks travel in contiguous chunks (one pool work
unit per chunk) to amortize scheduling and pickling, and phases of at
most :data:`INLINE_PHASE_TASKS` tasks run inline on the calling thread:
for a tiny job the pool's dispatch overhead costs more than the
parallelism could save, so the pooled backend on a small job is no
worse than ``serial`` while reporting its own name unchanged.
"""

from __future__ import annotations

import pickle
import os
import time
import warnings
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

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

#: The backend names ``run_job`` accepts.
BACKEND_NAMES = ("serial", "processes")

#: Phases with at most this many tasks run inline on the pooled backend:
#: pool dispatch (scheduling, pickling, result transfer) would dominate.
INLINE_PHASE_TASKS = 4


class TaskFailedError(Exception):
    """A task exhausted its attempts; the job fails (Hadoop semantics)."""


def default_worker_count() -> int:
    """Worker-pool size when the caller does not pass ``max_workers``."""
    return min(8, os.cpu_count() or 1)


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


# ---------------------------------------------------------------------------
# Task results and module-level task runners (picklable work units).
# ---------------------------------------------------------------------------


@dataclass
class MapTaskResult:
    """One finished map task: per-reducer pairs plus its own accounting."""

    index: int
    partitions: List[List[Tuple[Any, Any]]]
    counters: Counters
    wall_time_s: float
    queue_wait_s: float


@dataclass
class ReduceTaskResult:
    """One finished reduce task: output pairs plus its own accounting."""

    index: int
    output: List[Tuple[Any, Any]]
    counters: Counters
    wall_time_s: float
    queue_wait_s: float


def run_map_task(job: MapReduceJob, split: Any, index: int,
                 submitted_at: Optional[float] = None) -> MapTaskResult:
    """Execute one map task: read, map (with retries), combine, partition.

    Runs against a private :class:`Counters` so tasks can execute
    concurrently; the engine merges results in task order.
    """
    started = time.monotonic()
    queue_wait = max(0.0, started - submitted_at) if submitted_at else 0.0
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
    return MapTaskResult(index=index, partitions=partitions,
                         counters=counters,
                         wall_time_s=time.monotonic() - started,
                         queue_wait_s=queue_wait)


def run_reduce_task(job: MapReduceJob, index: int,
                    partition: List[Tuple[Any, Any]],
                    submitted_at: Optional[float] = None) -> ReduceTaskResult:
    """Execute one reduce task over one partition's pairs."""
    started = time.monotonic()
    queue_wait = max(0.0, started - submitted_at) if submitted_at else 0.0
    counters = Counters()
    counters.increment(GROUP_TASK, REDUCE_TASKS)
    ctx = TaskContext(counters)
    grouped = _group_sorted(partition)
    counters.increment(GROUP_IO, REDUCE_INPUT_GROUPS, len(grouped))
    for key, values in grouped:
        job.reducer(key, values, ctx)
    reduced = ctx.drain()
    counters.increment(GROUP_IO, REDUCE_OUTPUT_RECORDS, len(reduced))
    return ReduceTaskResult(index=index, output=reduced, counters=counters,
                            wall_time_s=time.monotonic() - started,
                            queue_wait_s=queue_wait)


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


def _run_map_chunk(job: MapReduceJob,
                   chunk: Sequence[Tuple[int, Any]],
                   submitted_at: float) -> List[MapTaskResult]:
    """Run a contiguous chunk of map tasks inside one pool work unit.

    Chunking amortizes scheduling/pickling overhead and keeps splits of
    the same file on the same worker (so its decode cache is reused).
    """
    return [run_map_task(job, split, index, submitted_at)
            for index, split in chunk]


def _run_reduce_chunk(job: MapReduceJob,
                      chunk: Sequence[Tuple[int, List[Tuple[Any, Any]]]],
                      submitted_at: float) -> List[ReduceTaskResult]:
    """Run a contiguous chunk of reduce tasks inside one pool work unit.

    Mirrors :func:`_run_map_chunk`: one pickled message per chunk instead
    of one per partition, so small partitions don't each pay the pool's
    round-trip overhead.
    """
    return [run_reduce_task(job, index, partition, submitted_at)
            for index, partition in chunk]


# -- process-pool worker side ----------------------------------------------
# The job is pickled once in the parent and installed per worker via the
# pool initializer; tasks then reference it by this module-level global,
# so per-task messages carry only splits / partition data.
_WORKER_JOB: Optional[MapReduceJob] = None


def _process_worker_init(payload: bytes) -> None:
    """Pool initializer: unpickle the job once per worker process."""
    global _WORKER_JOB
    _WORKER_JOB = pickle.loads(payload)


def _process_run_map_chunk(chunk: Sequence[Tuple[int, Any]],
                           submitted_at: float) -> List[MapTaskResult]:
    """Worker-side map chunk runner against the installed job."""
    return _run_map_chunk(_WORKER_JOB, chunk, submitted_at)


def _process_run_reduce_chunk(chunk: Sequence[Tuple[int, List[Tuple[Any, Any]]]],
                              submitted_at: float) -> List[ReduceTaskResult]:
    """Worker-side reduce chunk runner against the installed job."""
    return _run_reduce_chunk(_WORKER_JOB, chunk, submitted_at)


# ---------------------------------------------------------------------------
# Backends.
# ---------------------------------------------------------------------------


class ExecutionBackend:
    """Interface: run a job's map / reduce phases, results in task order.

    Backends are context managers; the process backend opens its pool
    on first use and tears it down on exit, so both phases of one job
    share one pool and one shipped job payload.
    """

    #: Backend name as reported to the tracker and the metrics gauge.
    name = "serial"
    #: Number of workers executing tasks.
    workers = 1

    def run_map_phase(self, job: MapReduceJob,
                      splits: Sequence[Any]) -> List[MapTaskResult]:
        """Execute one map task per split; results in split order."""
        raise NotImplementedError

    def run_reduce_phase(self, job: MapReduceJob,
                         units: Sequence[Tuple[int, List[Tuple[Any, Any]]]],
                         ) -> List[ReduceTaskResult]:
        """Execute one reduce task per (index, partition) unit, in order."""
        raise NotImplementedError

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


class SerialBackend(ExecutionBackend):
    """Tasks run in order on the calling thread (the classic engine)."""

    name = "serial"
    workers = 1

    def run_map_phase(self, job, splits):
        """Execute map tasks sequentially in split order."""
        return [run_map_task(job, split, i)
                for i, split in enumerate(splits)]

    def run_reduce_phase(self, job, units):
        """Execute reduce tasks sequentially in partition order."""
        return [run_reduce_task(job, index, partition)
                for index, partition in units]


class ProcessPoolBackend(ExecutionBackend):
    """Tasks run on a process pool (true multi-core parallelism).

    The job payload is pickled once and installed per worker by the pool
    initializer; task messages carry only splits and partition data.
    Tasks travel in contiguous chunks and results merge back in task
    order.
    """

    name = "processes"

    def __init__(self, workers: int, payload: bytes) -> None:
        self.workers = max(1, workers)
        self._payload = payload
        self._pool: Optional[ProcessPoolExecutor] = None

    def __exit__(self, *exc_info: Any) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def run_map_phase(self, job, splits):
        """Fan map tasks out over the pool; merge back in split order."""
        indexed = list(enumerate(splits))
        if len(indexed) <= INLINE_PHASE_TASKS:
            # Too small to pay pool dispatch for; identical results
            # either way (tasks still run against private Counters).
            return _run_map_chunk(job, indexed, time.monotonic())
        return self._fan_out(_process_run_map_chunk, indexed)

    def run_reduce_phase(self, job, units):
        """Fan reduce-task chunks out over the pool; merge in partition
        order."""
        units = list(units)
        if len(units) <= INLINE_PHASE_TASKS:
            return _run_reduce_chunk(job, units, time.monotonic())
        return self._fan_out(_process_run_reduce_chunk, units)

    def _fan_out(self, run_chunk, items: List[Any]) -> List[Any]:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_process_worker_init,
                initargs=(self._payload,))
        futures = [self._pool.submit(run_chunk, chunk, time.monotonic())
                   for chunk in _chunk(items, self.workers * 2)]
        results = [result for future in futures for result in future.result()]
        results.sort(key=lambda r: r.index)
        return results


def _chunk(items: List[Any], n_chunks: int) -> List[List[Any]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, even chunks."""
    n_chunks = max(1, min(len(items), n_chunks))
    base, extra = divmod(len(items), n_chunks)
    chunks, start = [], 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        if size:
            chunks.append(items[start:start + size])
        start += size
    return chunks


def prepare_backend(job: MapReduceJob, backend: Optional[str],
                    max_workers: Optional[int]) -> ExecutionBackend:
    """Resolve a backend name to a ready :class:`ExecutionBackend`.

    ``"processes"`` is probed for pickle-ability first: jobs built from
    closures (or over unpicklable input formats) cannot cross a process
    boundary, so they run ``"serial"`` after a clear warning rather than
    failing deep inside the pool.
    """
    name = backend or "serial"
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
    if name == "serial":
        return SerialBackend()
    try:
        payload = pickle.dumps(job)
    except Exception as exc:  # noqa: BLE001 - any pickling failure
        warnings.warn(
            f"job {job.name!r} cannot run on the 'processes' backend: "
            f"{exc!r}. The mapper/combiner/reducer and input format must "
            f"be picklable (module-level functions or callable classes, "
            f"not closures/lambdas); falling back to 'serial'.",
            RuntimeWarning, stacklevel=3)
        return SerialBackend()
    return ProcessPoolBackend(max_workers or default_worker_count(), payload)
