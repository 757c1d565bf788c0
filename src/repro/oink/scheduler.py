"""Oink: the workflow manager (§3).

"Production analytics jobs are coordinated by our workflow manager called
Oink, which schedules recurring jobs at fixed intervals (e.g., hourly,
daily). Oink handles dataflow dependencies between jobs; for example, if
job B requires data generated by job A, then Oink will schedule A, verify
that A has successfully completed, and then schedule job B."

Jobs are periodic; each period boundary creates one *instance* (job,
period_start). An instance runs only after the same-period instances of
all its dependencies have succeeded. A data-availability gate (e.g. "all
of yesterday's logs have been moved") can be attached per job; the log
mover pipeline is "one common Oink data dependency".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.clock import LogicalClock, MILLIS_PER_DAY, MILLIS_PER_HOUR
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry
from repro.oink.traces import ExecutionTrace, TraceLog

JobFn = Callable[[int], None]  # receives the period_start it covers
GateFn = Callable[[int], bool]


class OinkError(Exception):
    """Base error for workflow configuration problems."""


class UnknownDependencyError(OinkError):
    """A job depends on an unregistered job."""


class CycleError(OinkError):
    """The dependency graph contains a cycle."""


@dataclass
class OinkJob:
    """One recurring job registration."""

    name: str
    fn: JobFn
    interval_ms: int
    depends_on: Tuple[str, ...] = ()
    gate: Optional[GateFn] = None
    max_retries: int = 0

    def __post_init__(self) -> None:
        if self.interval_ms <= 0:
            raise OinkError(f"job {self.name!r}: interval must be positive")


class Oink:
    """The scheduler. Drive it by advancing the clock and calling
    :meth:`run_pending`."""

    def __init__(self, clock: LogicalClock) -> None:
        self._clock = clock
        self._jobs: Dict[str, OinkJob] = {}
        self._completed: Set[Tuple[str, int]] = set()
        self._attempts: Dict[Tuple[str, int], int] = {}
        self._registered_at: Dict[str, int] = {}
        self.traces = TraceLog()

    # -- registration ----------------------------------------------------
    def schedule(self, name: str, fn: JobFn, interval_ms: int,
                 depends_on: Sequence[str] = (),
                 gate: Optional[GateFn] = None,
                 max_retries: int = 0) -> OinkJob:
        """Register a recurring job."""
        if name in self._jobs:
            raise OinkError(f"job already registered: {name!r}")
        for dep in depends_on:
            if dep not in self._jobs:
                raise UnknownDependencyError(
                    f"job {name!r} depends on unknown job {dep!r}"
                )
        job = OinkJob(name=name, fn=fn, interval_ms=interval_ms,
                      depends_on=tuple(depends_on), gate=gate,
                      max_retries=max_retries)
        self._jobs[name] = job
        self._registered_at[name] = self._clock.now()
        return job

    def hourly(self, name: str, fn: JobFn, **kwargs) -> OinkJob:
        """Register a job recurring every hour."""
        return self.schedule(name, fn, MILLIS_PER_HOUR, **kwargs)

    def daily(self, name: str, fn: JobFn, **kwargs) -> OinkJob:
        """Register a job recurring every day."""
        return self.schedule(name, fn, MILLIS_PER_DAY, **kwargs)

    # -- execution ---------------------------------------------------------
    def run_pending(self) -> List[ExecutionTrace]:
        """Run every due, unblocked job instance; returns new traces.

        Instances run in dependency order within this call, so a daily
        chain A -> B -> C completes in one invocation once A's gate opens.

        Within one job, instances run strictly *in period order*: the
        scan stops at the first blocked (gate-closed or dependency-
        unmet) or failed-but-retriable period, so hour 2 of an
        incremental job can never execute before hour 1. The blocked
        period is retried first on a later call; a period whose retries
        are exhausted stops being due, unblocking its successors.
        """
        new_traces: List[ExecutionTrace] = []
        for name in self._topo_order():
            job = self._jobs[name]
            for period_start in self._due_periods(job):
                if self._blocked(job, period_start):
                    break
                trace = self._try_run(job, period_start)
                new_traces.append(trace)
                if not trace.success:
                    break
        return new_traces

    def run_until(self, when_ms: int,
                  step_ms: int = MILLIS_PER_HOUR) -> List[ExecutionTrace]:
        """Advance the clock to ``when_ms``, running pending jobs as we go."""
        traces: List[ExecutionTrace] = []
        while self._clock.now() < when_ms:
            self._clock.advance(min(step_ms, when_ms - self._clock.now()))
            traces.extend(self.run_pending())
        return traces

    # -- queries ----------------------------------------------------------
    def completed(self, name: str, period_start: int) -> bool:
        """Did the named job succeed for a period start?"""
        return (name, period_start) in self._completed

    # -- internals -----------------------------------------------------
    def _due_periods(self, job: OinkJob) -> List[int]:
        """Period starts whose data window has fully elapsed.

        A period [t, t+interval) is runnable once now >= t + interval.
        Periods before the job's registration are not owed.
        """
        now = self._clock.now()
        first = (self._registered_at[job.name] // job.interval_ms) \
            * job.interval_ms
        due = []
        period = first
        while period + job.interval_ms <= now:
            key = (job.name, period)
            attempts = self._attempts.get(key, 0)
            if key not in self._completed and attempts <= job.max_retries:
                due.append(period)
            period += job.interval_ms
        return due

    def _blocked(self, job: OinkJob, period_start: int) -> bool:
        """Is this instance held back by an unmet dependency or gate?"""
        for dep in job.depends_on:
            dep_job = self._jobs[dep]
            # The dependency instance covering this period must be done.
            dep_period = (period_start // dep_job.interval_ms) \
                * dep_job.interval_ms
            if (dep, dep_period) not in self._completed:
                return True
        if job.gate is not None and not job.gate(period_start):
            return True
        return False

    def _try_run(self, job: OinkJob, period_start: int) -> ExecutionTrace:
        key = (job.name, period_start)
        self._attempts[key] = self._attempts.get(key, 0) + 1
        trace = ExecutionTrace(job_name=job.name, period_start=period_start,
                               scheduled_at=self._clock.now(),
                               started_at=self._clock.now())
        try:
            job.fn(period_start)
        except Exception as exc:  # noqa: BLE001 - traces record any failure
            trace.finished_at = self._clock.now()
            trace.success = False
            trace.error = f"{type(exc).__name__}: {exc}"
        else:
            trace.finished_at = self._clock.now()
            trace.success = True
            self._completed.add(key)
        self.traces.append(trace)
        self._emit_trace_metrics(trace)
        return trace

    @staticmethod
    def _emit_trace_metrics(trace: ExecutionTrace) -> None:
        """Mirror one execution trace into the metrics registry."""
        registry = get_default_registry()
        outcome = "success" if trace.success else "failure"
        registry.counter(obs_names.OINK_JOB_RUNS, job=trace.job_name,
                         outcome=outcome).inc()
        if trace.duration_ms is not None:
            registry.histogram(obs_names.OINK_JOB_DURATION,
                               job=trace.job_name).observe(trace.duration_ms)

    def _topo_order(self) -> List[str]:
        order: List[str] = []
        state: Dict[str, int] = {}  # 0=unvisited, 1=visiting, 2=done

        def visit(name: str) -> None:
            if state.get(name) == 2:
                return
            if state.get(name) == 1:
                raise CycleError(f"dependency cycle through {name!r}")
            state[name] = 1
            for dep in self._jobs[name].depends_on:
                visit(dep)
            state[name] = 2
            order.append(name)

        for name in sorted(self._jobs):
            visit(name)
        return order
