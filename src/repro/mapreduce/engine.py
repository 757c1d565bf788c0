"""The local MapReduce execution engine.

Executes jobs faithfully to the Hadoop dataflow -- map over splits,
per-task combine, stable hash-partition, sort, reduce -- with exact
accounting of records, bytes scanned, and shuffle volume.  Tasks run in
order on the calling thread (:mod:`repro.mapreduce.backends`); the
:class:`CostModel` translates the counts into the parallel latency a
real cluster would see.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Tuple

from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry
from repro.mapreduce.backends import (  # noqa: F401 - re-exported API
    TaskFailedError,
    run_map_task,
    run_reduce_task,
    sizeof,
)
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import JobResult, MapReduceJob
from repro.mapreduce.jobtracker import JobTracker


def run_job(job: MapReduceJob,
            tracker: Optional[JobTracker] = None) -> JobResult:
    """Execute one job and return its output and counters.

    Per-task counters merge at the phase barrier in task order, and
    partitioning is content-stable (:mod:`repro.mapreduce.partition`),
    not ``hash()``-salted, so output and counter totals repeat exactly.

    Besides the returned :class:`Counters`, every run is bridged into the
    process-wide metrics registry: the job's counters become
    ``mapreduce_<group>_<name>_total{job=...}`` counters, its real
    execution time lands in ``mapreduce_job_wall_time_seconds``, and each
    task's execution time lands in ``mapreduce_task_wall_time_seconds``
    (labelled by phase).
    """
    started = time.perf_counter()
    counters = Counters()
    splits = job.input_format.splits()
    registry = get_default_registry()
    output: List[Tuple[Any, Any]] = []

    # -- map phase: one task per split, merged in split order -------------
    num_partitions = 1 if job.reducer is None else job.num_reducers
    partitions: List[List[Tuple[Any, Any]]] = [
        [] for __ in range(num_partitions)
    ]
    for split in splits:
        result = run_map_task(job, split)
        counters.merge(result.counters)
        for partition, pairs in zip(partitions, result.partitions):
            partition.extend(pairs)
        _observe_task(registry, job.name, "map", result.wall_time_s)

    # -- reduce phase: one task per partition, merged in order ------------
    if job.reducer is None:
        output = partitions[0]
    else:
        # With zero input splits there is nothing to reduce; with any
        # input, even empty partitions run a (counted) reduce task.
        for partition in partitions:
            if splits or partition:
                result = run_reduce_task(job, partition)
                counters.merge(result.counters)
                output.extend(result.output)
                _observe_task(registry, job.name, "reduce",
                              result.wall_time_s)

    wall_time_s = time.perf_counter() - started
    if tracker is not None:
        tracker.record(job.name, counters, wall_time_s=wall_time_s)
    _bridge_counters(job.name, counters, wall_time_s)
    return JobResult(name=job.name, output=output, counters=counters)


def _observe_task(registry, job_name: str, phase: str,
                  wall_time_s: float) -> None:
    """Record one task's wall time into the registry."""
    registry.histogram(obs_names.MAPREDUCE_TASK_WALL_TIME, job=job_name,
                       phase=phase).observe(wall_time_s)


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
