"""The local MapReduce execution engine.

Executes jobs faithfully to the Hadoop dataflow -- map over splits,
per-task combine, stable hash-partition, sort, reduce -- with exact
accounting of records, bytes scanned, and shuffle volume.  Execution is
delegated to a pluggable backend (:mod:`repro.mapreduce.backends`):
``serial`` runs on the calling thread, ``processes`` fans tasks out over
a :mod:`concurrent.futures` process pool.  Per-task
:class:`Counters` are merged deterministically at each phase barrier, so
counter totals, tracker accounting, and output are identical across
backends; the :class:`CostModel` still translates counts into the
parallel latency a real cluster would see.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Tuple

from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry
from repro.mapreduce.backends import (  # noqa: F401 - re-exported API
    BACKEND_NAMES,
    ExecutionBackend,
    MapTaskResult,
    ProcessPoolBackend,
    ReduceTaskResult,
    SerialBackend,
    TaskFailedError,
    prepare_backend,
    sizeof,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobResult, MapReduceJob
from repro.mapreduce.jobtracker import JobTracker


def run_job(job: MapReduceJob,
            tracker: Optional[JobTracker] = None,
            backend: Optional[str] = None,
            max_workers: Optional[int] = None) -> JobResult:
    """Execute one job and return its output and counters.

    ``backend`` selects how tasks execute: ``"serial"`` (default) or
    ``"processes"``; ``max_workers`` sizes the pool.
    When ``backend`` is None the tracker's configured default applies.
    Output, counter totals, and tracker accounting are identical across
    backends: per-task counters merge at the phase barrier in task
    order, and partitioning is content-stable
    (:mod:`repro.mapreduce.partition`), not ``hash()``-salted.

    Besides the returned :class:`Counters`, every run is bridged into the
    process-wide metrics registry: the job's counters become
    ``mapreduce_<group>_<name>_total{job=...}`` counters, its real
    execution time lands in ``mapreduce_job_wall_time_seconds``, each
    task's execution and queue-wait times land in
    ``mapreduce_task_wall_time_seconds`` / ``_queue_wait_seconds``
    (labelled by phase), and ``mapreduce_workers`` gauges the pool size.
    """
    started = time.perf_counter()
    if tracker is not None:
        if backend is None:
            backend = tracker.backend
        if max_workers is None:
            max_workers = tracker.max_workers
    counters = Counters()
    splits = job.input_format.splits()
    registry = get_default_registry()
    output: List[Tuple[Any, Any]] = []

    with prepare_backend(job, backend, max_workers) as engine_backend:
        registry.gauge(obs_names.MAPREDUCE_WORKERS, job=job.name,
                       backend=engine_backend.name).set(engine_backend.workers)

        # -- map phase: one task per split, merged in split order ---------
        num_partitions = 1 if job.reducer is None else job.num_reducers
        partitions: List[List[Tuple[Any, Any]]] = [
            [] for __ in range(num_partitions)
        ]
        for result in engine_backend.run_map_phase(job, splits):
            counters.merge(result.counters)
            for partition, pairs in zip(partitions, result.partitions):
                partition.extend(pairs)
            _observe_task(registry, job.name, "map", result)

        # -- reduce phase: one task per partition, merged in order --------
        if job.reducer is None:
            output = partitions[0]
        else:
            # With zero input splits there is nothing to reduce; with any
            # input, even empty partitions run a (counted) reduce task,
            # exactly as the serial engine always has.
            units = [(i, partition)
                     for i, partition in enumerate(partitions)
                     if splits or partition]
            for result in engine_backend.run_reduce_phase(job, units):
                counters.merge(result.counters)
                output.extend(result.output)
                _observe_task(registry, job.name, "reduce", result)

    wall_time_s = time.perf_counter() - started
    if tracker is not None:
        tracker.record(job.name, counters, backend=engine_backend.name,
                       workers=engine_backend.workers,
                       wall_time_s=wall_time_s)
    _bridge_counters(job.name, counters, wall_time_s)
    return JobResult(name=job.name, output=output, counters=counters)


def _observe_task(registry, job_name: str, phase: str, result) -> None:
    """Record one task's wall time and queue wait into the registry."""
    registry.histogram(obs_names.MAPREDUCE_TASK_WALL_TIME, job=job_name,
                       phase=phase).observe(result.wall_time_s)
    registry.histogram(obs_names.MAPREDUCE_TASK_QUEUE_WAIT, job=job_name,
                       phase=phase).observe(result.queue_wait_s)


def _bridge_counters(job_name: str, counters: Counters,
                     wall_time_s: float) -> None:
    """Mirror one job's counters and wall time into the registry."""
    registry = get_default_registry()
    registry.counter(obs_names.MAPREDUCE_JOBS, job=job_name).inc()
    registry.histogram(obs_names.MAPREDUCE_JOB_WALL_TIME,
                       job=job_name).observe(wall_time_s)
    for group, name, value in counters:
        registry.counter(
            f"{obs_names.MAPREDUCE_COUNTER_PREFIX}{group}_{name}_total",
            job=job_name).inc(value)
