"""The landing core: the one implementation of every log-mover step.

§2's log mover has one contract -- check, merge many small files into a
few big ones, atomically slide an hour into the warehouse.
:class:`~repro.logmover.mover.LogMover` (hourly) and
:class:`~repro.logmover.streaming.StreamingMover` (micro-batches, seals)
are two *policies* over :class:`LandingCore`: they decide when to
collect, from which datacenters and when to seal, and call each step,
counter flush and ledger commit defined here at their own commit points.

Exactly-once: staged frames may carry a delivery envelope (origin host +
per-daemon sequence number, :mod:`repro.scribe.message`). ``collect``
strips it -- analytics readers see raw messages, unchanged -- and dedups
on the ``(origin, seq)`` identity, so aggregator WAL replays and lost-ack
resends land once even when the duplicate shows up in a different hour.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.clock import LogicalClock
from repro.hdfs.layout import LOGS_ROOT, LogHour, quarantine_path, staging_path
from repro.hdfs.namenode import HDFS
from repro.hdfs.publish import atomic_publish
from repro.logmover.checks import DEFAULT_CHECKS, SanityCheck, SanityCheckError
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry
from repro.obs.trace import get_default_tracer
from repro.scribe.aggregator import decode_messages, encode_messages
from repro.scribe.message import decode_envelope

logger = logging.getLogger(__name__)

INCOMING_ROOT = "/_incoming"

#: The ``(origin host, sequence number)`` identity the movers dedup on.
MessageIdentity = Tuple[str, int]


@dataclass
class MoveResult:
    """Outcome of moving one hour of one category."""

    hour: LogHour
    messages_moved: int
    input_files: int
    output_files: int
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    quarantined_messages: int = 0
    #: Warehouse paths the quarantined staging files were preserved at
    #: (parallel to ``quarantined``), so operators can inspect/replay.
    quarantined_to: List[str] = field(default_factory=list)
    duplicates_skipped: int = 0
    #: Logical instant the hour was published (None for clock-less movers).
    #: The data-quality auditor derives per-hour freshness lag from it.
    moved_at_ms: Optional[int] = None


@dataclass
class Collected:
    """What one :meth:`LandingCore.collect` pass read: per-attempt
    accumulators that reach the registry, the ledger and a
    :class:`MoveResult` only at the policy's commit point."""

    hour: LogHour
    #: Checked, envelope-stripped, deduped payloads in staging order.
    messages: List[bytes] = field(default_factory=list)
    identities: Set[MessageIdentity] = field(default_factory=set)
    #: ``(datacenter, path)`` of every staged file read.
    staged_paths: List[Tuple[str, str]] = field(default_factory=list)
    duplicates: int = 0
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    quarantined_to: List[str] = field(default_factory=list)
    quarantined_messages: int = 0
    #: datacenter -> files that failed a sanity check.
    check_failures: Dict[str, int] = field(default_factory=Counter)
    #: Trace ids bound to the files that passed the checks.
    trace_ids: List[str] = field(default_factory=list)


class LandingCore:
    """Shared state and steps of the log movers (see the module doc).

    ``producers`` maps each category to the datacenters that produce it
    (unlisted categories: every datacenter). ``columnar_categories`` get
    a columnar segment beside the raw files of each published hour.
    """

    def __init__(self, staging_clusters: Dict[str, HDFS], warehouse: HDFS,
                 producers: Optional[Dict[str, Sequence[str]]],
                 checks: Optional[List[SanityCheck]],
                 target_file_bytes: int, codec: str,
                 clock: Optional[LogicalClock],
                 columnar_categories: Optional[Sequence[str]]) -> None:
        if not staging_clusters:
            raise ValueError("need at least one staging cluster")
        self._staging = dict(staging_clusters)
        self._warehouse = warehouse
        self._producers = dict(producers or {})
        self._checks = list(DEFAULT_CHECKS if checks is None else checks)
        self._target_file_bytes = target_file_bytes
        self._codec = codec
        # Timestamps trace spans and the end-to-end latency histogram;
        # without a clock, spans fall back to each trace's latest time.
        self._clock = clock
        self._columnar_categories = frozenset(columnar_categories or ())
        # The identity ledger: committed (origin, seq) per hour. A policy
        # adds an attempt's identities only at its commit point (hourly:
        # staged inputs deleted; micro-batch: the rename), so after a crash
        # it holds exactly what a re-run may treat as already landed.
        self._landed: Dict[LogHour, Set[MessageIdentity]] = {}
        self.moves: List[MoveResult] = []

    # -- audit surface ---------------------------------------------------
    def producing_datacenters(self, category: str) -> List[str]:
        """Datacenters expected to stage data for a category."""
        return sorted(self._producers.get(category, self._staging))

    def landed_identities(
            self, hour: Optional[LogHour] = None) -> FrozenSet[MessageIdentity]:
        """Committed ``(origin, seq)`` identities, for one hour or all:
        the audit surface the chaos soak checks conservation against
        (every accepted identity is here, dropped at the daemon, or
        quarantined -- exactly once)."""
        if hour is not None:
            return frozenset(self._landed.get(hour, ()))
        return frozenset(self._landed_outside(None))

    def _landed_outside(self, hour: Optional[LogHour]
                        ) -> Set[MessageIdentity]:
        """Identities committed by every hour but ``hour`` (None: all)."""
        out: Set[MessageIdentity] = set()
        for other, identities in self._landed.items():
            if other != hour:
                out |= identities
        return out

    # -- collect ---------------------------------------------------------
    def staged_files(self, datacenter: str, hour: LogHour) -> List[str]:
        """Files one datacenter has staged for ``hour``."""
        return self._staging[datacenter].glob_files(
            staging_path(datacenter, hour))

    def collect(self, hour: LogHour, datacenters: Iterable[str],
                replaces_hour: bool) -> Collected:
        """Read, check, strip and dedup what ``datacenters`` staged.

        Identities committed by *other* hours always dedup: a resend that
        slipped past an hour boundary must not land twice. The hour's own
        previous commit is the one policy difference: an hourly move
        rebuilds the hour (``replaces_hour``), so it must not; a micro-batch
        lands beside batches whose staged inputs may be gone, so it must.
        """
        tracer = get_default_tracer()
        got = Collected(hour)
        messages, identities = got.messages, got.identities
        landed = self._landed_outside(hour if replaces_hour else None)
        for datacenter in datacenters:
            staging = self._staging[datacenter]
            for path in self.staged_files(datacenter, hour):
                got.staged_paths.append((datacenter, path))
                raw = staging.open_bytes(path)
                file_frames = decode_messages(raw)
                file_ids = tracer.ids_for_path(path)
                try:
                    for check in self._checks:
                        check(path, file_frames)
                except SanityCheckError as exc:
                    got.quarantined.append((exc.path, exc.reason))
                    got.quarantined_to.append(self.preserve_quarantined(
                        datacenter, path, raw, hour))
                    got.quarantined_messages += len(file_frames)
                    got.check_failures[datacenter] += 1
                    for trace_id in file_ids:
                        tracer.record(trace_id,
                                      obs_names.SPAN_MOVER_QUARANTINE,
                                      self._trace_now(tracer, trace_id),
                                      path=path, reason=exc.reason)
                    continue
                for frame in file_frames:
                    origin, seq, payload = decode_envelope(frame)
                    if origin is not None:
                        identity = (origin, seq)
                        if identity in identities or identity in landed:
                            got.duplicates += 1
                            continue
                        identities.add(identity)
                    messages.append(payload)
                for trace_id in file_ids:
                    tracer.record(trace_id, obs_names.SPAN_MOVER_DEMUX,
                                  self._trace_now(tracer, trace_id),
                                  path=path, datacenter=datacenter)
                got.trace_ids.extend(file_ids)
        return got

    def preserve_quarantined(self, datacenter: str, path: str,
                             raw: bytes, hour: LogHour) -> str:
        """Copy one quarantined staging file to ``/quarantine/...``.

        Quarantine is an accounted *sink*, not a loss: the staged bytes
        survive staged cleanup for operators to inspect and replay.
        ``overwrite=True`` keeps a retry or re-move idempotent.
        """
        filename = path.rsplit("/", 1)[-1]
        dest = quarantine_path(datacenter, hour, filename)
        self._warehouse.create(dest, raw, codec=self._codec, overwrite=True)
        return dest

    def delete_staged(self, got: Collected) -> None:
        """Delete the staged inputs a collect pass read."""
        for datacenter, path in got.staged_paths:
            self._staging[datacenter].delete(path)

    # -- publish ---------------------------------------------------------
    def write_merged(self, directory: str,
                     messages: List[bytes]) -> List[int]:
        """Write messages as a small number of large framed files; returns
        the per-file message counts (in ``part-NNNNN`` order) so the segment
        builder can record which rows each raw file holds."""
        self._warehouse.mkdirs(directory)
        if not messages:
            return []
        chunks: List[List[bytes]] = [[]]
        size = 0
        for message in messages:
            if size >= self._target_file_bytes and chunks[-1]:
                chunks.append([])
                size = 0
            chunks[-1].append(message)
            size += len(message)
        for i, chunk in enumerate(chunks):
            self._warehouse.create(f"{directory}/part-{i:05d}",
                                   encode_messages(chunk), codec=self._codec)
        return [len(chunk) for chunk in chunks]

    def publish_hour(self, hour: LogHour, messages: List[bytes],
                     pre_delete: Optional[str] = None,
                     pre_rename: Optional[str] = None) -> List[int]:
        """Merge ``messages`` under ``/_incoming`` and atomically slide
        them in as the hour directory, replacing whatever it held;
        ``pre_delete`` / ``pre_rename`` name the caller's crash sites on
        either side of that drop. Returns :meth:`write_merged`'s counts."""
        return atomic_publish(
            self._warehouse, hour.path(root=INCOMING_ROOT),
            hour.path(root=LOGS_ROOT),
            lambda tmp: self.write_merged(tmp, messages),
            pre_delete=pre_delete, pre_rename=pre_rename)

    def build_segment(self, hour: LogHour, messages: List[bytes],
                      file_counts: List[int]) -> None:
        """Compact a just-published columnar-category hour into a segment.

        Runs after the atomic slide, so a crash or a non-client-event
        payload leaves the raw hour intact, merely without a segment; a
        re-move or the Oink compaction job rebuilds it.
        """
        if hour.category not in self._columnar_categories or not messages:
            return
        from repro.core.event import ClientEvent
        from repro.warehouse.segment import write_hour_segment

        try:
            events = [ClientEvent.from_bytes(m) for m in messages]
        except Exception as exc:
            logger.warning("columnar segment skipped for %s: %s", hour, exc)
            return
        final_dir = hour.path(root=LOGS_ROOT)
        sources = [(f"{final_dir}/part-{i:05d}", count)
                   for i, count in enumerate(file_counts)]
        write_hour_segment(self._warehouse, final_dir, events, sources,
                           built_at_ms=self._now() or 0)

    # -- accounting ------------------------------------------------------
    def _now(self) -> Optional[int]:
        return self._clock.now() if self._clock is not None else None

    def _trace_now(self, tracer, trace_id: str) -> int:
        """Span timestamp: the mover's clock, else the trace's latest time
        (clock-less movers trace in order but contribute zero latency)."""
        if self._clock is not None:
            return self._clock.now()
        return max((s.end_ms for s in tracer.spans(trace_id)), default=0)

    def record_landed(self, got: Collected, destination: str) -> None:
        """Close ``got``'s delivery traces with ``warehouse.land`` at the
        rename that made them queryable under ``destination``, and
        observe their end-to-end latency."""
        tracer = get_default_tracer()
        for trace_id in got.trace_ids:
            tracer.record(trace_id, obs_names.SPAN_WAREHOUSE_LAND,
                          self._trace_now(tracer, trace_id),
                          directory=destination)
            latency = tracer.end_to_end_ms(trace_id)
            if latency is not None:
                get_default_registry().histogram(
                    obs_names.PIPELINE_DELIVERY_LATENCY,
                    category=got.hour.category).observe(latency)

    def account_published(self, got: Collected, result: MoveResult) -> None:
        """Publish-side accounting: what became queryable, and when."""
        registry = get_default_registry()
        category = got.hour.category
        result.messages_moved += len(got.messages)
        result.moved_at_ms = self._now()
        registry.counter(obs_names.MOVER_MESSAGES_MOVED,
                         category=category).inc(len(got.messages))
        registry.counter(obs_names.MOVER_BYTES_MOVED,
                         category=category).inc(sum(map(len, got.messages)))

    def account_consumed(self, got: Collected, result: MoveResult) -> None:
        """Cleanup-side accounting of the staged inputs ``got`` read, by
        the attempt that finishes with them -- a crash between publish and
        cleanup never double-counts a duplicate or a quarantined file."""
        registry = get_default_registry()
        category = got.hour.category
        result.input_files += len(got.staged_paths)
        result.quarantined.extend(got.quarantined)
        result.quarantined_to.extend(got.quarantined_to)
        result.quarantined_messages += got.quarantined_messages
        result.duplicates_skipped += got.duplicates
        if got.duplicates:
            registry.counter(obs_names.MOVER_DUPLICATES_SKIPPED,
                             category=category).inc(got.duplicates)
        for datacenter, failures in sorted(got.check_failures.items()):
            registry.counter(obs_names.MOVER_CHECK_FAILURES,
                             datacenter=datacenter,
                             category=category).inc(failures)
        if got.quarantined_to:
            registry.counter(obs_names.MOVER_QUARANTINED_FILES,
                             category=category).inc(len(got.quarantined_to))
        registry.counter(obs_names.MOVER_FILES_MOVED,
                         category=category).inc(len(got.staged_paths))
