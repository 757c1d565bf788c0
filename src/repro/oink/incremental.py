"""Incremental sessionization and continuously-updated rollups.

The paper's §3.2 rollups and §4.2 session reconstruction are daily batch
jobs: nothing is aggregated until "all logs for one day have been
successfully imported". With the streaming mover landing minute-level
micro-batches and **sealing** hours as its watermark passes
(:mod:`repro.logmover.streaming`), both jobs can instead run
*incrementally*, keyed off seals and late re-opens:

* :class:`IncrementalSessionizer` maintains per-``(user id, session id)``
  open-session state **across hour (and day) boundaries**. A session
  closes only once the watermark passes its inactivity horizon
  (``last event + gap``), and each closed session is attributed to
  exactly one day -- the day of its first event -- which makes the
  daily-batch bug of double-counting midnight-spanning sessions
  structurally impossible. When a sealed hour re-opens with late data,
  any already-closed session the late events touch (extend, backfill, or
  bridge) is *re-opened*: its emission is retracted, the key is re-split
  from scratch, and corrected sessions close again as the watermark
  allows.
* :class:`IncrementalRollup` folds each sealed hour's event *delta* into
  the day's five rollup tables and re-materializes the day -- via the
  same ``<day>.tmp`` atomic-rename discipline as the batch job, sharing
  :func:`repro.oink.rollups.materialize_rollups` so the artifacts are
  byte-identical to a from-scratch daily rebuild over the same events.
  A re-seal applies a signed correction delta (retraction for counts
  that vanished, addition for late arrivals).

:class:`IncrementalPipeline` bundles both behind one
:meth:`~IncrementalPipeline.observe_poll` hook that consumes
:class:`~repro.logmover.streaming.PollResult` rows -- the integration
point for ``register_standard_pipeline`` and the chaos soak. The parity
invariant both consumers audit: after a final :meth:`finish`, the
incremental sessions and materialized rollups equal a from-scratch batch
rebuild over the warehouse's final contents, no matter how many crashes
and late re-opens happened along the way.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from datetime import timedelta
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.clock import MILLIS_PER_HOUR
from repro.core.event import CLIENT_EVENTS_CATEGORY, ClientEvent
from repro.core.sessionizer import DEFAULT_INACTIVITY_GAP_MS, Session
from repro.hdfs.layout import EPOCH, LOGS_ROOT, LogHour, data_files, \
    millis_for_hour
from repro.hdfs.namenode import HDFS
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry
from repro.oink.rollups import (
    ROLLUPS_ROOT,
    RollupResult,
    materialize_rollups,
    rollup_tables,
)
from repro.scribe.aggregator import decode_messages
from repro.thriftlike.types import ThriftError

logger = logging.getLogger(__name__)

Date = Tuple[int, int, int]
SessionKey = Tuple[int, str]

#: Sentinel watermark that closes every open session (shutdown/audits).
CLOSE_ALL_WATERMARK = float("inf")


def date_of_millis(millis: int) -> Date:
    """The calendar day a timestamp falls on."""
    when = EPOCH + timedelta(milliseconds=millis)
    return (when.year, when.month, when.day)


@dataclass(frozen=True)
class ClosedSession:
    """One incrementally-closed session with its single-day attribution."""

    session: Session
    #: The day the session is attributed to: the day of its *first*
    #: event. Exactly one day per closed session, by construction.
    date: Date
    #: The run's identity when it closed (see :func:`session_signature`).
    signature: Tuple[bytes, ...] = field(default=(), compare=False,
                                         repr=False)

    @property
    def key(self) -> SessionKey:
        """The session's ``(user id, session id)`` grouping key."""
        return (self.session.user_id, self.session.session_id)


#: An event beside its identity: the ``to_bytes()`` computed at ingest.
_Identified = Tuple[ClientEvent, bytes]


def session_signature(run: Sequence[_Identified]) -> Tuple[bytes, ...]:
    """Order-sensitive identity of one session's event run."""
    return tuple(identity for __, identity in run)


@dataclass
class _KeyState:
    """Everything known about one ``(user id, session id)`` group."""

    #: Every event ever observed for the key, each beside its identity,
    #: kept timestamp-sorted.
    events: List[_Identified] = field(default_factory=list)
    #: Payload identities, to drop exact duplicates on ingest.
    seen: Set[bytes] = field(default_factory=set)
    #: Signatures of the runs already emitted as closed, in run order.
    emitted: List[Tuple[bytes, ...]] = field(default_factory=list)
    #: Total runs in the last split (for the opened counter).
    runs: int = 0


class IncrementalSessionizer:
    """Sessionization as a watermark-driven incremental computation.

    Feed events with :meth:`ingest` (any order; duplicates by encoded
    bytes are dropped) and move time forward with :meth:`advance`. The
    class never discards an event: late data re-splits its whole key, so
    a correction is always exact, not approximated.

    An event's identity is computed once, at ingest, and kept beside
    the event: re-splitting a key, comparing its runs with what was
    emitted and retracting a session never encode anything again.
    """

    def __init__(self,
                 inactivity_gap_ms: int = DEFAULT_INACTIVITY_GAP_MS,
                 category: str = CLIENT_EVENTS_CATEGORY) -> None:
        if inactivity_gap_ms <= 0:
            raise ValueError("inactivity gap must be positive")
        self.inactivity_gap_ms = inactivity_gap_ms
        self._category = category
        self._keys: Dict[SessionKey, _KeyState] = {}
        #: Keys touched since the last reconcile pass.
        self._dirty: Set[SessionKey] = set()
        #: Keys with at least one not-yet-emitted run.
        self._open_keys: Set[SessionKey] = set()
        self._closed: List[ClosedSession] = []
        self._closed_by_day: Dict[Date, List[ClosedSession]] = {}
        self.opened_total = 0
        self.closed_total = 0
        self.reopened_total = 0

    # -- feeding ---------------------------------------------------------
    def ingest(self, events: Iterable[ClientEvent]) -> int:
        """Add events to their keys; returns how many were new.

        The one place an event is encoded: its bytes are its identity."""
        new = 0
        for event in events:
            key = (event.user_id, event.session_id)
            state = self._keys.setdefault(key, _KeyState())
            identity = event.to_bytes()
            if identity in state.seen:
                continue
            state.seen.add(identity)
            state.events.append((event, identity))
            self._dirty.add(key)
            new += 1
        return new

    def advance(self, watermark_ms: float) -> List[ClosedSession]:
        """Reconcile and close sessions the watermark has passed.

        Dirty keys are re-split (retracting any emitted run the new
        events changed); every key with open runs is then checked for
        closure against the watermark. Returns the sessions closed by
        this call, in close order.
        """
        registry = get_default_registry()
        closed_now: List[ClosedSession] = []
        for key in sorted(self._dirty | self._open_keys):
            closed_now.extend(self._reconcile(key, watermark_ms))
        self._dirty.clear()
        registry.gauge(obs_names.INCREMENTAL_OPEN_SESSIONS,
                       category=self._category).set(self.open_count())
        return closed_now

    def finish(self) -> List[ClosedSession]:
        """Close every remaining open session (end-of-stream)."""
        return self.advance(CLOSE_ALL_WATERMARK)

    # -- queries ---------------------------------------------------------
    def open_count(self) -> int:
        """Number of runs not yet emitted as closed sessions."""
        return sum(self._keys[key].runs - len(self._keys[key].emitted)
                   for key in self._open_keys)

    def closed_sessions(self) -> List[ClosedSession]:
        """Every closed session still standing, in close order."""
        return list(self._closed)

    def closed_by_day(self) -> Dict[Date, List[ClosedSession]]:
        """Closed sessions bucketed by their one attributed day."""
        return {date: list(rows)
                for date, rows in sorted(self._closed_by_day.items())}

    # -- internals -------------------------------------------------------
    def _split_runs(self, state: _KeyState) -> List[List[_Identified]]:
        state.events.sort(key=lambda pair: pair[0].timestamp)
        runs: List[List[_Identified]] = []
        current: List[_Identified] = []
        for pair in state.events:
            if current and (pair[0].timestamp - current[-1][0].timestamp
                            > self.inactivity_gap_ms):
                runs.append(current)
                current = []
            current.append(pair)
        if current:
            runs.append(current)
        return runs

    def _reconcile(self, key: SessionKey,
                   watermark_ms: float) -> List[ClosedSession]:
        registry = get_default_registry()
        state = self._keys[key]
        runs = self._split_runs(state)
        if len(runs) > state.runs:
            self.opened_total += len(runs) - state.runs
            registry.counter(obs_names.INCREMENTAL_SESSIONS_OPEN,
                             category=self._category).inc(
                                 len(runs) - state.runs)
        state.runs = len(runs)

        # Longest prefix of runs that matches what was already emitted:
        # anything beyond it was changed by late data and must be
        # retracted (a session re-open).
        matching = 0
        for emitted_sig, run in zip(state.emitted, runs):
            if session_signature(run) != emitted_sig:
                break
            matching += 1
        if matching < len(state.emitted):
            reopened = len(state.emitted) - matching
            self._retract(key, matching)
            self.reopened_total += reopened
            registry.counter(obs_names.INCREMENTAL_SESSIONS_REOPENED,
                             category=self._category).inc(reopened)

        # Close runs the watermark has passed, strictly in order.
        closed_now: List[ClosedSession] = []
        for run in runs[len(state.emitted):]:
            if run[-1][0].timestamp + self.inactivity_gap_ms > watermark_ms:
                break
            session = Session(user_id=key[0], session_id=key[1],
                              events=[event for event, __ in run])
            closed = ClosedSession(
                session=session, date=date_of_millis(session.start),
                signature=session_signature(run))
            state.emitted.append(closed.signature)
            self._closed.append(closed)
            self._closed_by_day.setdefault(closed.date, []).append(closed)
            closed_now.append(closed)
            self.closed_total += 1
            registry.counter(obs_names.INCREMENTAL_SESSIONS_CLOSED,
                             category=self._category).inc()
        if len(state.emitted) < state.runs:
            self._open_keys.add(key)
        else:
            self._open_keys.discard(key)
        return closed_now

    def _retract(self, key: SessionKey, keep: int) -> None:
        """Withdraw the key's emitted runs beyond index ``keep``."""
        state = self._keys[key]
        retracted_sigs = set(state.emitted[keep:])
        state.emitted = state.emitted[:keep]

        def stands(closed: ClosedSession) -> bool:
            return not (closed.key == key
                        and closed.signature in retracted_sigs)

        self._closed = [c for c in self._closed if stands(c)]
        for date in list(self._closed_by_day):
            kept = [c for c in self._closed_by_day[date] if stands(c)]
            if kept:
                self._closed_by_day[date] = kept
            else:
                del self._closed_by_day[date]


@dataclass
class RollupDelta:
    """Accounting of one sealed hour folded into its day's tables."""

    hour: LogHour
    date: Date
    #: True when the hour had been folded before (a re-seal correction).
    correction: bool
    #: Rollup-key entries whose count changed, across all levels.
    changed_keys: int


class IncrementalRollup:
    """Continuously-updated §3.2 rollup tables driven by hour seals.

    Each sealed hour contributes its five-level tables; the fold applies
    only the *delta* against the hour's previous contribution, so a
    re-seal after late data issues an exact signed correction. Every
    fold re-materializes the affected day atomically.
    """

    def __init__(self, warehouse: HDFS,
                 category: str = CLIENT_EVENTS_CATEGORY,
                 root: str = ROLLUPS_ROOT,
                 materialize: bool = True) -> None:
        self._warehouse = warehouse
        self._category = category
        self._root = root
        self._materialize = materialize
        self._hour_contrib: Dict[LogHour, Dict[int, Counter]] = {}
        self._day_tables: Dict[Date, Dict[int, Counter]] = {}
        self._results: Dict[Date, RollupResult] = {}
        self.deltas_applied = 0
        self.corrections = 0

    def fold_hour(self, hour: LogHour, events: Sequence[ClientEvent],
                  now_ms: int) -> Optional[RollupDelta]:
        """Fold one sealed hour's *current full contents* into its day.

        Pass everything currently readable in the hour; the fold diffs
        against the hour's previous contribution internally. Returns
        None when nothing changed (an idempotent re-fold).
        """
        registry = get_default_registry()
        new_tables = rollup_tables(events)
        old_tables = self._hour_contrib.get(hour)
        date = (hour.year, hour.month, hour.day)
        day = self._day_tables.setdefault(
            date, {level: Counter() for level in new_tables})

        changed = 0
        for level, new_table in new_tables.items():
            old_table = old_tables[level] if old_tables else {}
            table = day[level]
            for key in set(new_table) | set(old_table):
                delta = new_table.get(key, 0) - (old_table.get(key, 0)
                                                 if old_tables else 0)
                if delta == 0:
                    continue
                changed += 1
                table[key] += delta
                if table[key] <= 0:
                    del table[key]
        correction = old_tables is not None
        self._hour_contrib[hour] = new_tables
        if changed == 0:
            return None

        self.deltas_applied += 1
        registry.counter(obs_names.ROLLUP_DELTAS_APPLIED,
                         category=self._category).inc()
        if correction:
            self.corrections += 1
            # How stale the published day was when the correction
            # landed, measured from the corrected hour's close.
            lag = max(0, now_ms - (millis_for_hour(hour)
                                   + MILLIS_PER_HOUR))
            registry.histogram(obs_names.ROLLUP_CORRECTION_LAG,
                               category=self._category).observe(lag)
        result = RollupResult(date=date, tables=day)
        self._results[date] = result
        if self._materialize:
            materialize_rollups(self._warehouse, result, root=self._root)
        return RollupDelta(hour=hour, date=date, correction=correction,
                           changed_keys=changed)

    # -- queries ---------------------------------------------------------
    def days(self) -> List[Date]:
        """Every day with at least one folded hour, sorted."""
        return sorted(self._results)

    def result_for_day(self, date: Date) -> Optional[RollupResult]:
        """The day's live tables (also materialized on HDFS)."""
        return self._results.get(date)


class IncrementalPipeline:
    """Seal-driven incremental sessionization + rollups over a warehouse.

    Call :meth:`observe_poll` with every
    :class:`~repro.logmover.streaming.PollResult`: each hour the poll
    sealed (or re-sealed after a late re-open) is read back from the
    warehouse, its *new* events feed the sessionizer, its full contents
    diff into the rollup fold, and the poll's watermark then closes
    every session whose inactivity horizon it passed.
    """

    def __init__(self, warehouse: HDFS,
                 category: str = CLIENT_EVENTS_CATEGORY,
                 inactivity_gap_ms: int = DEFAULT_INACTIVITY_GAP_MS,
                 rollup_root: str = ROLLUPS_ROOT) -> None:
        self._warehouse = warehouse
        self._category = category
        self.sessionizer = IncrementalSessionizer(
            inactivity_gap_ms=inactivity_gap_ms, category=category)
        self.rollup = IncrementalRollup(warehouse, category=category,
                                        root=rollup_root)
        self._seen: Dict[LogHour, Set[bytes]] = {}
        self.hours_processed = 0
        self.deltas: List[RollupDelta] = []

    def observe_poll(self, poll) -> List[RollupDelta]:
        """Process one poll's seals, then advance the watermark."""
        new_deltas: List[RollupDelta] = []
        for hour in poll.sealed:
            delta = self.process_hour(hour, now_ms=poll.now_ms)
            if delta is not None:
                new_deltas.append(delta)
        self.sessionizer.advance(poll.watermark_ms)
        self.deltas.extend(new_deltas)
        return new_deltas

    def process_hour(self, hour: LogHour,
                     now_ms: int) -> Optional[RollupDelta]:
        """Read one sealed hour back and fold it into both consumers."""
        payloads = self._read_hour(hour)
        if payloads is None:
            return None
        try:
            decoded = [(p, ClientEvent.from_bytes(p)) for p in payloads]
        except ThriftError as exc:
            logger.warning("incremental fold skipped for %s: "
                           "undecodable client event (%s)", hour, exc)
            return None
        seen = self._seen.setdefault(hour, set())
        self.sessionizer.ingest(event for payload, event in decoded
                                if payload not in seen)
        seen.update(payload for payload, __ in decoded)
        self.hours_processed += 1
        # The fold sees the hour's *full multiset* (duplicates included)
        # so its tables match a batch rebuild over the same files.
        return self.rollup.fold_hour(
            hour, [event for __, event in decoded], now_ms)

    def finish(self) -> List[ClosedSession]:
        """Close every open session (shutdown / parity audits)."""
        return self.sessionizer.finish()

    def _read_hour(self, hour: LogHour) -> Optional[List[bytes]]:
        directory = hour.path(root=LOGS_ROOT)
        if not self._warehouse.is_dir(directory):
            return None
        payloads: List[bytes] = []
        for path in sorted(data_files(self._warehouse, directory)):
            payloads.extend(
                decode_messages(self._warehouse.open_bytes(path)))
        return payloads
