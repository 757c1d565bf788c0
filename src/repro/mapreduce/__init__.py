"""Simulated Hadoop MapReduce: jobs, splits, engine, backends, jobtracker."""

from repro.mapreduce.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    prepare_backend,
)
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
    SPLITS_SKIPPED,
)
from repro.mapreduce.inputformats import (
    FileInputFormat,
    InMemoryInputFormat,
    InputSplit,
)
from repro.mapreduce.job import JobResult, MapReduceJob, TaskContext
from repro.mapreduce.jobtracker import CostModel, JobRun, JobTracker
from repro.mapreduce.engine import TaskFailedError, run_job, sizeof
from repro.mapreduce.partition import (
    serialize_key,
    stable_hash,
    stable_partition,
)

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "prepare_backend",
    "serialize_key",
    "stable_hash",
    "stable_partition",
    "Counters",
    "GROUP_IO",
    "GROUP_TASK",
    "INPUT_BYTES",
    "INPUT_RECORDS",
    "MAP_TASKS",
    "OUTPUT_RECORDS",
    "REDUCE_INPUT_GROUPS",
    "REDUCE_OUTPUT_RECORDS",
    "REDUCE_TASKS",
    "SHUFFLE_BYTES",
    "SHUFFLE_RECORDS",
    "SPLITS_SKIPPED",
    "FileInputFormat",
    "InMemoryInputFormat",
    "InputSplit",
    "JobResult",
    "MapReduceJob",
    "TaskContext",
    "CostModel",
    "JobRun",
    "JobTracker",
    "TaskFailedError",
    "run_job",
    "sizeof",
]
