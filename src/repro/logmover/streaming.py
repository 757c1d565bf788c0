"""Streaming micro-batch landing with event-time watermarks (§6).

The paper lands data hourly and names real-time delivery as the open
frontier ("towards real-time processing"). :class:`StreamingMover` is
that path: the streaming *policy* over the shared
:class:`~repro.logmover.landing.LandingCore` (which owns every check,
dedup, merge, publish, segment and quarantine step). Data is *queryable
minutes after it was logged*, and the hourly contract (one merged,
checked, deduped directory per hour) holds once the hour is **sealed**.

Protocol per hour directory ``/logs/<category>/YYYY/MM/DD/HH``:

* **micro-batches** -- every ``batch_interval_ms`` the mover collects
  whatever each *reachable* datacenter has staged for the hour and
  publishes one ``batch-NNNNN`` file via write-to-``/_incoming`` + atomic
  rename. Identities commit (and delivery traces close) at the rename,
  the durable publish, so a retry after a staged-cleanup failure dedups
  instead of double-landing.
* **watermark** -- per category, ``min`` over producing datacenters of
  that datacenter's *progress*: ``now - watermark_delay_ms`` while its
  staging cluster is reachable, frozen at the last live value during an
  outage. A frozen datacenter therefore holds the watermark back, and an
  unreachable staging cluster can never cause a premature seal.
* **seal** -- when the watermark passes the hour's end, the hour's batch
  files are read back, merged into a few large ``part-NNNNN`` files (the
  §2 small-file merge) and slid into place like an hourly move,
  optionally followed by a columnar segment.
* **late re-open** -- staged data arriving for a sealed hour (a durable
  aggregator restarting with an old write-ahead buffer, say) lands as a
  fresh batch beside the sealed part files and clears the seal; the next
  poll re-seals via the same replace-semantics merge. Re-opens count in
  ``streaming_late_reopens_total`` and surface through the data-quality
  auditor as ``late`` verdicts while the data is in flight.

Crash windows are the fault sites ``logmover.<category>.batch.pre_rename``
/ ``.batch.pre_cleanup`` / ``.seal.pre_commit`` / ``.seal.pre_rename``, so
the chaos soak can prove a re-poll converges. ``moves`` holds one
*cumulative* :class:`MoveResult` per hour (updated in place), so the
conservation audit and the data-quality auditor work on a streaming
pipeline unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.clock import MILLIS_PER_HOUR, MILLIS_PER_MINUTE, LogicalClock
from repro.faults.injector import crash_point
from repro.hdfs.layout import (
    LOGS_ROOT,
    STAGING_ROOT,
    LogHour,
    data_files,
    millis_for_hour,
    parse_hour_path,
)
from repro.hdfs.namenode import HDFS, HDFSUnavailableError
from repro.hdfs.publish import atomic_publish
from repro.logmover.checks import SanityCheck
from repro.logmover.landing import INCOMING_ROOT, LandingCore, MoveResult
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry
from repro.scribe.aggregator import decode_messages, encode_messages

#: Default micro-batch cadence: five logical minutes.
DEFAULT_BATCH_INTERVAL_MS = 5 * MILLIS_PER_MINUTE
#: Default watermark delay: how far event time may trail a *live*
#: staging cluster before the mover considers an hour complete.
DEFAULT_WATERMARK_DELAY_MS = 2 * MILLIS_PER_MINUTE


@dataclass
class BatchResult:
    """One committed micro-batch (or batch-sized cleanup) for one hour."""

    hour: LogHour
    messages_landed: int
    duplicates_skipped: int = 0
    #: True when this batch landed into a previously sealed hour.
    reopened: bool = False


@dataclass
class PollResult:
    """Everything one :meth:`StreamingMover.poll` call did."""

    category: str
    now_ms: int
    watermark_ms: int
    batches: List[BatchResult] = field(default_factory=list)
    sealed: List[LogHour] = field(default_factory=list)

    @property
    def messages_landed(self) -> int:
        """Messages committed across every batch this poll landed."""
        return sum(b.messages_landed for b in self.batches)


@dataclass
class _HourState:
    """Committed per-hour streaming state."""

    #: Committed batch count; ``batch-<n>`` files below this index are
    #: published, anything at or above it is crash debris.
    batches: int = 0
    sealed: bool = False
    reopens: int = 0
    #: The cumulative MoveResult exposed through ``moves``.
    result: Optional[MoveResult] = None


class StreamingMover(LandingCore):
    """Micro-batch mover: staged files → per-hour batches → sealed hours.

    Arguments mirror :class:`~repro.logmover.mover.LogMover`'s; ``clock``
    is required because watermarks are a function of logical time.
    """

    def __init__(self, staging_clusters: Dict[str, HDFS], warehouse: HDFS,
                 clock: LogicalClock,
                 producers: Optional[Dict[str, Sequence[str]]] = None,
                 checks: Optional[List[SanityCheck]] = None,
                 target_file_bytes: int = 256 * 1024,
                 codec: str = "zlib",
                 batch_interval_ms: int = DEFAULT_BATCH_INTERVAL_MS,
                 watermark_delay_ms: int = DEFAULT_WATERMARK_DELAY_MS,
                 columnar_categories: Optional[Sequence[str]] = None) -> None:
        super().__init__(staging_clusters, warehouse, producers, checks,
                         target_file_bytes, codec, clock,
                         columnar_categories)
        if batch_interval_ms <= 0 or watermark_delay_ms < 0:
            raise ValueError("bad batch interval or watermark delay")
        #: The configured micro-batch cadence.
        self.batch_interval_ms = batch_interval_ms
        self._watermark_delay_ms = watermark_delay_ms
        self._states: Dict[LogHour, _HourState] = {}
        #: (category, datacenter) -> last observed progress (ms). Frozen
        #: while the datacenter's staging cluster is unreachable.
        self._progress: Dict[Tuple[str, str], int] = {}
        #: category -> earliest logical instant the next batch may land.
        self._next_batch_ms: Dict[str, int] = {}

    # -- seal state ------------------------------------------------------
    def sealed(self, hour: LogHour) -> bool:
        """Has the hour been sealed (and not re-opened since)?"""
        return hour in self._states and self._states[hour].sealed

    def hours_sealed(self) -> List[LogHour]:
        """Every hour currently in the sealed state, sorted."""
        return sorted(h for h, s in self._states.items() if s.sealed)

    def late_reopens(self) -> int:
        """Total sealed-hour re-opens across all hours."""
        return sum(s.reopens for s in self._states.values())

    def unsealed_hours(self) -> List[LogHour]:
        """Hours that landed at least one batch but are not sealed."""
        return sorted(h for h, s in self._states.items()
                      if s.batches > 0 and not s.sealed)

    # -- watermarks ------------------------------------------------------
    def watermark(self, category: str) -> int:
        """The category's event-time watermark (ms since the epoch).

        ``min`` over producing datacenters of each one's progress; a
        datacenter never yet observed live contributes 0, so nothing
        seals before every producer has been seen at least once.
        """
        return min((self._progress.get((category, dc), 0)
                    for dc in self.producing_datacenters(category)),
                   default=0)

    def _live_datacenters(self, category: str) -> List[str]:
        """The category's producing datacenters whose staging answers.

        Reads never fail in the simulated HDFS; outages surface on the
        mutation path. ``mkdirs`` on the staging root is an idempotent
        mutation, so it is an honest liveness probe: if it raises, batch
        cleanup (the ``delete`` of staged inputs) would raise too.
        """
        live = []
        for datacenter in self.producing_datacenters(category):
            try:
                self._staging[datacenter].mkdirs(
                    f"{STAGING_ROOT}/{datacenter}")
            except HDFSUnavailableError:
                continue
            live.append(datacenter)
        return live

    # -- the poll --------------------------------------------------------
    def poll(self, category: str, force: bool = False) -> PollResult:
        """One streaming turn: land due micro-batches (at most every
        ``batch_interval_ms`` unless ``force=True``), then -- always, so a
        quiet poll still closes hours out -- advance the watermark and
        seal or re-seal every hour it passed."""
        now = self._clock.now()
        result = PollResult(category=category, now_ms=now, watermark_ms=0)
        live = self._live_datacenters(category)
        if force or now >= self._next_batch_ms.get(category, 0):
            self._next_batch_ms[category] = now + self.batch_interval_ms
            for hour in self._staged_hours(category, live):
                batch = self._land_batch(hour, live)
                if batch is not None:
                    result.batches.append(batch)
        for datacenter in live:
            self._progress[(category, datacenter)] = \
                now - self._watermark_delay_ms
        result.watermark_ms = self.watermark(category)
        get_default_registry().gauge(
            obs_names.STREAMING_WATERMARK_LAG, category=category).set(
                max(0, now - result.watermark_ms))
        for hour in self.unsealed_hours():
            if (hour.category == category and millis_for_hour(hour)
                    + MILLIS_PER_HOUR <= result.watermark_ms):
                self._seal_hour(hour)
                result.sealed.append(hour)
        return result

    def _staged_hours(self, category: str,
                      live: List[str]) -> List[LogHour]:
        """Every hour with staged data in a reachable datacenter."""
        hours: Set[LogHour] = set()
        for datacenter in live:
            prefix = f"{STAGING_ROOT}/{datacenter}/{category}"
            for path in self._staging[datacenter].glob_files(prefix):
                hour = parse_hour_path(path.rsplit("/", 1)[0])
                if hour is not None:
                    hours.add(hour)
        return sorted(hours)

    # -- micro-batch landing ---------------------------------------------
    def _land_batch(self, hour: LogHour,
                    live: List[str]) -> Optional[BatchResult]:
        """Land one micro-batch for one hour from every reachable DC (a
        frozen watermark keeps the hour open for the others), beside the
        hour's earlier batches -- so its own committed identities dedup."""
        state = self._states.setdefault(hour, _HourState())
        registry = get_default_registry()
        final_dir = hour.path(root=LOGS_ROOT)
        # Belt and braces against a crashed previous attempt: a final
        # batch file at or above the committed counter is debris (the
        # uncommitted incoming file is swept by the publish itself).
        for path in self._warehouse.glob_files(final_dir):
            name = path.rsplit("/", 1)[-1]
            if name.startswith("batch-") and \
                    int(name.split("-", 1)[1]) >= state.batches:
                self._warehouse.delete(path)

        got = self.collect(hour, live, replaces_hour=False)
        if not got.staged_paths:
            return None
        if state.result is None:
            # One cumulative result per hour, mutated in place: the chaos
            # audit sums over ``moves`` without double counting, and the
            # data-quality auditor's last-per-hour lookup sees the hour's
            # full state.
            state.result = MoveResult(hour=hour, messages_moved=0,
                                      input_files=0, output_files=0,
                                      moved_at_ms=self._clock.now())
            self.moves.append(state.result)

        reopened = state.sealed and bool(got.messages)
        if got.messages:
            name = f"batch-{state.batches:05d}"
            atomic_publish(
                self._warehouse, f"{hour.path(root=INCOMING_ROOT)}/{name}",
                f"{final_dir}/{name}",
                lambda tmp: self._warehouse.create(
                    tmp, encode_messages(got.messages), codec=self._codec),
                pre_rename=f"logmover.{hour.category}.batch.pre_rename")
            # Commit point: the rename is the durable publish, so the
            # identities (and batch counter) become facts *now* -- a
            # failure during staged cleanup must dedup, not re-land.
            state.batches += 1
            self._landed.setdefault(hour, set()).update(got.identities)
            self.record_landed(got, f"{final_dir}/{name}")
            self.account_published(got, state.result)
            if reopened:
                state.sealed = False
                state.reopens += 1
                registry.counter(obs_names.STREAMING_LATE_REOPENS,
                                 category=hour.category).inc()
            registry.counter(obs_names.STREAMING_BATCHES_LANDED,
                             category=hour.category).inc()
        crash_point(f"logmover.{hour.category}.batch.pre_cleanup")
        self.delete_staged(got)
        self.account_consumed(got, state.result)
        return BatchResult(hour=hour, messages_landed=len(got.messages),
                           duplicates_skipped=got.duplicates,
                           reopened=reopened)

    # -- sealing ---------------------------------------------------------
    def _seal_hour(self, hour: LogHour) -> None:
        """Finalize the hour: merge batches into part files atomically.

        Crash-convergent: ``/_incoming`` debris is rebuilt from the
        still-published hour, and the one window that looks fatal (a
        warehouse hiccup after the final directory's delete, before the
        merged one's rename) is repaired by finishing that rename.
        """
        final_dir = hour.path(root=LOGS_ROOT)
        incoming_dir = hour.path(root=INCOMING_ROOT)
        if not self._warehouse.is_dir(final_dir) and \
                self._warehouse.is_dir(incoming_dir):
            # Recovery: the merged directory holds the hour's full content.
            atomic_publish(self._warehouse, incoming_dir, final_dir)
        else:
            messages: List[bytes] = []
            for path in sorted(data_files(self._warehouse, final_dir)):
                messages.extend(
                    decode_messages(self._warehouse.open_bytes(path)))
            self.publish_hour(
                hour, messages,
                pre_delete=f"logmover.{hour.category}.seal.pre_commit",
                pre_rename=f"logmover.{hour.category}.seal.pre_rename")
        self._after_seal_commit(hour)

    def _after_seal_commit(self, hour: LogHour) -> None:
        """Everything that follows a seal's rename: the hour's result, the
        counters and the columnar segment. It reads the *published* hour,
        so a seal whose rename was finished after a crash gets the same as
        one that ran straight through."""
        files = [list(decode_messages(self._warehouse.open_bytes(path)))
                 for path in sorted(data_files(self._warehouse,
                                               hour.path(root=LOGS_ROOT)))]
        state = self._states[hour]
        state.result.output_files = len(files)
        state.result.moved_at_ms = self._clock.now()
        registry = get_default_registry()
        registry.counter(obs_names.MOVER_FILES_WRITTEN,
                         category=hour.category).inc(len(files))
        self.build_segment(hour, [m for part in files for m in part],
                           [len(part) for part in files])
        state.sealed = True
        registry.counter(obs_names.STREAMING_HOURS_SEALED,
                         category=hour.category).inc()
        registry.counter(obs_names.MOVER_HOURS_MOVED,
                         category=hour.category).inc()

    # -- finishing -------------------------------------------------------
    def run_until_sealed(self, category: str, max_steps: int = 240,
                         step_ms: int = MILLIS_PER_MINUTE,
                         on_poll=None) -> List[PollResult]:
        """Advance the clock and poll until every landed hour is sealed
        and no staged data remains. The shutdown path for soaks and
        benchmarks; bounded by ``max_steps`` minutes of logical time."""
        results: List[PollResult] = []
        for _ in range(max_steps):
            result = self.poll(category, force=True)
            results.append(result)
            if on_poll is not None:
                on_poll(result)
            pending = self._staged_hours(category,
                                         self._live_datacenters(category))
            unsealed = [h for h in self.unsealed_hours()
                        if h.category == category]
            if not pending and not unsealed:
                return results
            self._clock.advance(step_ms)
        raise RuntimeError(
            f"streaming mover failed to drain {category!r} within "
            f"{max_steps} steps")

