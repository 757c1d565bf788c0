"""The jobtracker: task bookkeeping and a task startup-cost model.

§4.1: session-reconstruction jobs "routinely spawned tens of thousands of
mappers and clogged our Hadoop jobtracker"; §4.2 notes "Hadoop tasks have
relatively high startup costs, and we would like to avoid this overhead".
The tracker records every task each job launches and converts the counts
into a simulated wall-clock cost so benchmarks can compare query plans on
the same axis the paper argues about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.mapreduce.counters import (
    Counters,
    GROUP_IO,
    GROUP_TASK,
    INPUT_BYTES,
    MAP_TASKS,
    REDUCE_TASKS,
    SHUFFLE_BYTES,
)


@dataclass
class CostModel:
    """Converts counter totals into simulated milliseconds.

    Defaults are loosely calibrated to the 2012-era numbers the paper
    implies: ~1 s of task startup (JVM spawn + scheduling), scan
    throughput ~50 MB/s per task, shuffle ~20 MB/s.
    """

    task_startup_ms: float = 1000.0
    jobtracker_ms_per_task: float = 50.0  # serialized dispatch/track cost
    scan_ms_per_byte: float = 1.0 / (50 * 1024 * 1024 / 1000)
    shuffle_ms_per_byte: float = 1.0 / (20 * 1024 * 1024 / 1000)
    slots: int = 100  # cluster-wide parallel task slots

    def simulated_ms(self, counters: Counters) -> float:
        """Simulated job latency given full parallelism up to ``slots``.

        Task startup parallelizes across slots (one wave at a time), but
        the jobtracker dispatches and tracks tasks serially -- the
        "clogged our Hadoop jobtracker" effect that makes a
        tens-of-thousands-of-mappers job slow regardless of cluster size.
        """
        map_tasks = counters.get(GROUP_TASK, MAP_TASKS)
        reduce_tasks = counters.get(GROUP_TASK, REDUCE_TASKS)
        tasks = map_tasks + reduce_tasks
        waves = -(-tasks // self.slots) if tasks else 0
        startup = waves * self.task_startup_ms
        tracking = tasks * self.jobtracker_ms_per_task
        scan = counters.get(GROUP_IO, INPUT_BYTES) * self.scan_ms_per_byte
        shuffle = counters.get(GROUP_IO, SHUFFLE_BYTES) * self.shuffle_ms_per_byte
        # Scan and shuffle parallelize across slots too.
        parallel = max(min(tasks, self.slots), 1)
        return startup + tracking + (scan + shuffle) / parallel


@dataclass
class JobRun:
    """One completed job's record in the tracker."""

    job_name: str
    map_tasks: int
    reduce_tasks: int
    input_records: int
    input_bytes: int
    shuffle_records: int
    shuffle_bytes: int
    simulated_ms: float
    #: Real (not simulated) wall-clock execution time of the job.
    wall_time_s: float = 0.0


class JobTracker:
    """Accumulates :class:`JobRun` entries across a benchmark session."""

    def __init__(self, cost_model: Optional[CostModel] = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.runs: List[JobRun] = []

    def record(self, job_name: str, counters: Counters,
               wall_time_s: float = 0.0) -> JobRun:
        """Record one finished job's counters as a :class:`JobRun`."""
        from repro.mapreduce.counters import (
            INPUT_RECORDS,
            SHUFFLE_RECORDS,
        )

        run = JobRun(
            job_name=job_name,
            map_tasks=counters.get(GROUP_TASK, MAP_TASKS),
            reduce_tasks=counters.get(GROUP_TASK, REDUCE_TASKS),
            input_records=counters.get(GROUP_IO, INPUT_RECORDS),
            input_bytes=counters.get(GROUP_IO, INPUT_BYTES),
            shuffle_records=counters.get(GROUP_IO, SHUFFLE_RECORDS),
            shuffle_bytes=counters.get(GROUP_IO, SHUFFLE_BYTES),
            simulated_ms=self.cost_model.simulated_ms(counters),
            wall_time_s=wall_time_s,
        )
        self.runs.append(run)
        return run

    # -- aggregate views -------------------------------------------------
    def total_map_tasks(self) -> int:
        """Map tasks spawned across all recorded runs."""
        return sum(run.map_tasks for run in self.runs)

    def total_simulated_ms(self) -> float:
        """Summed simulated latency across all recorded runs."""
        return sum(run.simulated_ms for run in self.runs)

    def last(self) -> Optional[JobRun]:
        """The most recent run, or None."""
        return self.runs[-1] if self.runs else None
