"""The log mover: staging clusters → main data warehouse.

§2: "Another process is responsible for moving these logs from the
per-datacenter staging clusters into the main Hadoop data warehouse. It
applies certain sanity checks and transformations, such as merging many
small files into a few big ones ... it ensures that by the time logs are
made available in the main data warehouse, all datacenters that produce a
given log category have transferred their logs. Once all of this is done,
the log mover pipeline atomically slides an hour's worth of logs into the
main data warehouse."

:class:`LogMover` is the *hourly policy* over the shared
:class:`~repro.logmover.landing.LandingCore`, which owns every step:
wait for the completeness barrier, collect from every producing
datacenter, publish the hour. ``move_hour`` is *idempotent*: the publish
clears ``/_incoming`` debris of a crashed run, the dedup ledger is
updated only after staged inputs are deleted (the commit point), and --
given a :class:`~repro.faults.retry.RetryPolicy` -- the move retries
through HDFS outages with backoff. The crash windows around the rename
are fault sites ``logmover.<category>.pre_rename`` / ``.pre_cleanup`` so
tests can prove a re-run converges.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.clock import LogicalClock
from repro.faults.injector import crash_point
from repro.faults.retry import RetryPolicy
from repro.hdfs.layout import LOGS_ROOT, LogHour
from repro.hdfs.namenode import HDFS, HDFSUnavailableError
from repro.logmover.checks import SanityCheck
from repro.logmover.landing import (  # noqa: F401 - re-exported names
    INCOMING_ROOT,
    LandingCore,
    MessageIdentity,
    MoveResult,
)
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry


class IncompleteHourError(Exception):
    """Raised when a producing datacenter has not yet transferred its logs."""


class LogMover(LandingCore):
    """Moves per-hour log directories from staging clusters to the warehouse.

    ``retry_policy`` makes :meth:`move_hour` ride through HDFS outages
    (``HDFSUnavailableError``) with bounded backoff on the logical clock;
    the other arguments are :class:`~repro.logmover.landing.LandingCore`'s.
    """

    def __init__(self, staging_clusters: Dict[str, HDFS], warehouse: HDFS,
                 producers: Optional[Dict[str, Sequence[str]]] = None,
                 checks: Optional[List[SanityCheck]] = None,
                 target_file_bytes: int = 256 * 1024,
                 codec: str = "zlib",
                 clock: Optional[LogicalClock] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 columnar_categories: Optional[Sequence[str]] = None) -> None:
        super().__init__(staging_clusters, warehouse, producers, checks,
                         target_file_bytes, codec, clock,
                         columnar_categories)
        self._retry_policy = retry_policy

    # -- completeness barrier -------------------------------------------
    def _missing_datacenters(self, hour: LogHour) -> List[str]:
        return [dc for dc in self.producing_datacenters(hour.category)
                if not self.staged_files(dc, hour)]

    def hour_ready(self, hour: LogHour) -> bool:
        """True when every producing datacenter has staged data for ``hour``."""
        return not self._missing_datacenters(hour)

    def hour_has_data(self, hour: LogHour) -> bool:
        """True when at least one datacenter has staged data for ``hour``.

        Quiet hours may legitimately leave some datacenters empty; the
        operational pattern is to wait for :meth:`hour_ready` up to a
        deadline, then move whatever :meth:`hour_has_data` shows with
        ``require_complete=False``.
        """
        return any(self.staged_files(dc, hour)
                   for dc in self.producing_datacenters(hour.category))

    # -- the move ----------------------------------------------------------
    def move_hour(self, hour: LogHour, require_complete: bool = True,
                  delete_staged: bool = True) -> MoveResult:
        """Merge, check, dedup, and atomically publish one hour; with a
        retry policy, through transient ``HDFSUnavailableError`` -- the
        single-attempt body is idempotent, so a retry converges."""
        attempt = partial(self._move_hour_once, hour, require_complete,
                          delete_staged)
        if self._retry_policy is None:
            return attempt()
        return self._retry_policy.call(
            attempt,
            site=f"logmover.{hour.category}.move_hour",
            clock=self._clock,
            retry_on=(HDFSUnavailableError,),
        )

    def _move_hour_once(self, hour: LogHour, require_complete: bool,
                        delete_staged: bool) -> MoveResult:
        """One complete move attempt (the body of :meth:`move_hour`)."""
        if require_complete:
            missing = self._missing_datacenters(hour)
            if missing:
                raise IncompleteHourError(
                    f"{hour} not transferred by datacenters: {missing}")

        got = self.collect(hour, self.producing_datacenters(hour.category),
                           replaces_hour=True)
        file_counts = self.publish_hour(
            hour, got.messages,
            pre_rename=f"logmover.{hour.category}.pre_rename")
        crash_point(f"logmover.{hour.category}.pre_cleanup")
        self.record_landed(got, hour.path(root=LOGS_ROOT))
        self.build_segment(hour, got.messages, file_counts)

        if delete_staged:
            self.delete_staged(got)
            # Commit point: inputs are gone, so the landed identities are
            # durable facts a future hour's dedup may rely on.
            self._landed[hour] = got.identities

        # Accounting flushes only once the attempt succeeds, so a
        # RetryPolicy retry after a failure at the rename step cannot
        # recount the aborted attempt's duplicates and quarantines.
        result = MoveResult(hour=hour, messages_moved=0, input_files=0,
                            output_files=len(file_counts))
        self.account_published(got, result)
        self.account_consumed(got, result)
        registry = get_default_registry()
        registry.counter(obs_names.MOVER_HOURS_MOVED,
                         category=hour.category).inc()
        registry.counter(obs_names.MOVER_FILES_WRITTEN,
                         category=hour.category).inc(len(file_counts))
        self.moves.append(result)
        return result

    def move_ready_hours(self, hours: Sequence[LogHour]) -> List[MoveResult]:
        """Move every hour in ``hours`` whose barrier is satisfied."""
        return [self.move_hour(hour) for hour in hours
                if self.hour_ready(hour)]
