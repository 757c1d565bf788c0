"""MapReduce job definitions.

A job is an input format plus a mapper, an optional combiner, and an
optional reducer. Mappers and reducers emit through a context object so
the engine can do exact I/O accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.mapreduce.counters import Counters


class TaskContext:
    """Collects a task's emitted pairs and exposes counters."""

    def __init__(self, counters: Counters) -> None:
        self.counters = counters
        self._emitted: List[Tuple[Any, Any]] = []

    def emit(self, key: Any, value: Any) -> None:
        """Emit one (key, value) pair from the task."""
        self._emitted.append((key, value))

    def drain(self) -> List[Tuple[Any, Any]]:
        """Take and clear the task's emitted pairs."""
        emitted, self._emitted = self._emitted, []
        return emitted


Mapper = Callable[[Any, TaskContext], None]
Reducer = Callable[[Any, List[Any], TaskContext], None]
Combiner = Callable[[Any, List[Any], TaskContext], None]


@dataclass
class MapReduceJob:
    """Declarative description of one job.

    ``mapper(record, ctx)`` emits intermediate pairs; ``reducer(key,
    values, ctx)`` emits output pairs. A map-only job (reducer=None)
    outputs the mapper's pairs directly. ``combiner`` runs per map task to
    pre-aggregate, shrinking shuffle volume the way Pig's algebraic
    aggregations do.
    """

    name: str
    input_format: Any
    mapper: Mapper
    reducer: Optional[Reducer] = None
    combiner: Optional[Combiner] = None
    num_reducers: int = 4
    #: Hadoop-style task retry: a map task that raises is re-executed up
    #: to this many times before the whole job fails.
    max_task_attempts: int = 1

    def __post_init__(self) -> None:
        if self.num_reducers <= 0:
            raise ValueError("num_reducers must be positive")
        if self.max_task_attempts <= 0:
            raise ValueError("max_task_attempts must be positive")


@dataclass
class JobResult:
    """Output pairs plus counters and the tracker's task accounting."""

    name: str
    output: List[Tuple[Any, Any]]
    counters: Counters
