"""Per-host Scribe daemons.

§2: "A Scribe daemon runs on every production host and is responsible for
sending local log data across the network to a cluster of dedicated
aggregators in the same datacenter." On aggregator failure, daemons
"simply check ZooKeeper again to find another live aggregator"; while no
aggregator is reachable they buffer locally and replay on reconnect, which
is what makes the pipeline "robust with respect to transient failures".

Delivery guarantees: every accepted entry is stamped with this host's
name and a monotone sequence number -- the identity the log mover dedups
on -- and the local buffer is strictly FIFO. ``flush`` drains from the
head and stops at the first failure (head-of-line blocking), so replay
always preserves accept order and a failure mid-flush can never lose or
reorder entries; likewise ``log`` never lets a fresh entry overtake a
non-empty backlog. Send failures of *any* kind leave the entry at the
head of the buffer rather than discarding it.

Overload survival: after a send fails through its whole retry budget the
daemon enters a *known-down cool-down* -- subsequent ``log`` calls go
straight to the buffer (O(1), no discovery probes, no backoff on the
logical clock) until the cool-down deadline passes or the discovery
watch reports that the aggregator set changed. Without the cool-down an
outage made the hot path slower exactly when traffic spiked: every
accepted entry paid a full retry-policy flush including its backoff.
Admission control rides the same path: while an aggregator signals
backpressure (or the bounded buffer is half full), ``bulk``-tier
categories are shed by deterministic sampling *before* buffering, and a
full buffer evicts lower :mod:`~repro.scribe.qos` tiers first.

Every daemon records delivery metrics into the process-wide
:class:`~repro.obs.metrics.MetricsRegistry` and, when tracing is enabled,
stamps entries with a trace id and emits the ``daemon.enqueue`` span --
the first hop of an entry's end-to-end trace.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Set, Tuple

from repro.clock import MILLIS_PER_HOUR, MILLIS_PER_MINUTE, LogicalClock
from repro.faults.injector import KIND_ACK_LOST, KIND_ERROR, fault_point
from repro.faults.retry import RetryPolicy
from repro.obs import names
from repro.obs.metrics import get_default_registry
from repro.obs.trace import get_default_tracer
from repro.scribe.aggregator import AggregatorDownError, ScribeAggregator
from repro.scribe.discovery import AggregatorDiscovery
from repro.scribe.message import CategoryRegistry, LogEntry
from repro.scribe.qos import admit as qos_admit
from repro.scribe.qos import drop_rank

#: Cool-down after a failed send for policy-less daemons (with a policy
#: the cool-down escalates along the policy's own backoff schedule).
DEFAULT_COOLDOWN_MS = 1_000

#: How long a daemon honors an aggregator's backpressure signal before
#: re-probing; a non-pressured ack clears it immediately.
BACKPRESSURE_HOLD_MS = 5 * MILLIS_PER_MINUTE


@dataclass
class DaemonStats:
    """Counters for tests and the delivery benchmark.

    ``buffered_total`` counts every enqueue ever made (monotone, like the
    ``*_total`` registry counters) -- the *current* backlog depth is the
    :attr:`ScribeDaemon.buffered` property, which falls as the buffer
    drains. Dashboards wanting backlog must read the latter.

    ``shed`` is the subset of ``dropped`` rejected by QoS sampling at
    admission (never buffered at all); ``send_attempts`` counts wire
    attempts -- the quantity the known-down cool-down bounds.
    """

    accepted: int = 0
    sent: int = 0
    buffered_total: int = 0
    resent: int = 0
    dropped: int = 0
    shed: int = 0
    failovers: int = 0
    send_attempts: int = 0


@dataclass
class HourCounts:
    """One (category, hour)'s acceptance books on one daemon.

    ``ids`` holds the ``(origin, seq)`` delivery identities accepted in
    the hour; ``dropped_ids`` the subset later evicted by drop-oldest or
    shed by QoS sampling. The difference is what the data-quality
    auditor *expects* to find in the warehouse for that hour.
    """

    accepted: int = 0
    dropped: int = 0
    ids: Set[Tuple[str, int]] = field(default_factory=set)
    dropped_ids: Set[Tuple[str, int]] = field(default_factory=set)

    def expected_ids(self) -> Set[Tuple[str, int]]:
        """Identities that should eventually land (accepted - dropped)."""
        return self.ids - self.dropped_ids


#: One buffered entry: the entry itself, the (category, hour) ledger key
#: it was *accepted* under -- carried so an eviction in a later hour is
#: attributed to the accept hour even for unstamped legacy entries --
#: and its QoS drop rank (higher = evicted first).
_Buffered = Tuple[LogEntry, Tuple[str, int], int]


class ScribeDaemon:
    """The daemon on one production host.

    ``resolve`` maps an aggregator name (from ZooKeeper) to the live
    aggregator object -- it models the network connection; a crashed
    aggregator either resolves to a dead object (send raises) or to None
    (connection refused).  ``clock`` timestamps trace spans; without one
    spans are recorded at time 0. ``retry_policy`` bounds how hard one
    send tries across failovers (default: a single re-discovery retry,
    the pre-policy behavior). ``categories`` supplies per-category QoS
    tiers for admission control (omitted: everything is ``standard``).
    """

    def __init__(self, host: str, discovery: AggregatorDiscovery,
                 resolve: Callable[[str], Optional[ScribeAggregator]],
                 max_buffer: Optional[int] = None,
                 clock: Optional[LogicalClock] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 categories: Optional[CategoryRegistry] = None) -> None:
        self.host = host
        self._send_site = f"daemon.{host}.send"
        self._discovery = discovery
        self._resolve = resolve
        self._connected: Optional[str] = None
        # The bound is enforced in _enqueue (not deque(maxlen=...)) so
        # eviction can pick the lowest-QoS-tier victim instead of
        # blindly evicting the head.
        self._buffer: Deque[_Buffered] = deque()
        self._max_buffer = max_buffer
        self._clock = clock
        self._retry_policy = retry_policy
        self._categories = categories or CategoryRegistry()
        self._next_seq = 0
        self.stats = DaemonStats()
        # Known-down cool-down state: while the deadline is ahead and the
        # discovery generation unchanged, log() skips flush/send
        # entirely. The streak escalates consecutive cool-downs along
        # the retry policy's backoff schedule.
        self._down_until: Optional[int] = None
        self._down_generation = -1
        self._down_streak = 0
        # Backpressure hold: set from a pressured aggregator ack,
        # cleared by a non-pressured ack or the deadline.
        self._backpressure_until: Optional[int] = None
        # Per-(category, hour) acceptance books for the data-quality
        # auditor, plus a reverse map so a drop-oldest eviction can be
        # attributed to the evicted entry's *accept* hour (identities of
        # successfully-sent entries are pruned from the map, so it only
        # holds what is still buffered).
        self._hour_ledger: Dict[Tuple[str, int], HourCounts] = {}
        self._ledger_keys: Dict[Tuple[str, int], Tuple[str, int]] = {}

    # -- public API ----------------------------------------------------
    def log(self, entry: LogEntry) -> None:
        """Queue one entry for delivery, sending immediately if possible.

        Entries are stamped with ``(origin, seq)`` on accept; a non-empty
        backlog is drained first so a fresh entry can never be delivered
        ahead of earlier ones (per-host FIFO). During a known-down
        cool-down the entry goes straight to the buffer -- no discovery
        probes, no retries, no logical-clock backoff -- and under
        overload, bulk-tier entries may be shed by deterministic
        sampling before buffering (an accounted drop, not a loss).
        """
        tracer = get_default_tracer()
        trace_id = entry.trace_id
        if tracer.enabled and trace_id is None:
            trace_id = tracer.new_trace_id()
        if entry.origin is None:
            entry = entry.stamped(trace_id, self.host, self._next_seq)
            self._next_seq += 1
        elif trace_id is not entry.trace_id:
            entry = entry.stamped(trace_id, entry.origin, entry.seq)
        self.stats.accepted += 1
        registry = get_default_registry()
        registry.counter(names.DAEMON_ACCEPTED, host=self.host).inc()
        key = self._record_accept(entry)
        # Record the span before sending so the hop order is right even
        # though delivery happens within the same logical instant; the
        # outcome attribute is filled in once it is known.
        span = tracer.record(entry.trace_id, names.SPAN_DAEMON_ENQUEUE,
                             self._now(), host=self.host, outcome="pending")
        config = self._categories.get(entry.category)
        if (entry.origin is not None and entry.seq is not None
                and self._overloaded() and config.sample_rate < 1.0
                and not qos_admit(entry.category, entry.origin, entry.seq,
                                  config.sample_rate)):
            self._shed(entry, key, config.qos)
            outcome = "shed"
        elif self._cooling_down():
            # Known down: skip the per-entry flush and send attempt
            # entirely -- the amplification fix. The backlog replays on
            # the next flush once the cool-down ends.
            outcome = self._enqueue(entry, key, config.qos)
        else:
            if self._buffer:
                self.flush()
            if self._buffer:
                outcome = self._enqueue(entry, key, config.qos)
            elif self._send(entry):
                outcome = "sent"
            else:
                outcome = self._enqueue(entry, key, config.qos)
        if span is not None:
            span.attrs["outcome"] = outcome

    def flush(self) -> int:
        """Replay buffered entries in order; returns how many delivered.

        Drains strictly from the head and stops at the first failure, so
        a partial failure can neither reorder the stream (an entry behind
        a stuck one is never delivered early) nor lose it (entries leave
        the buffer only after a successful send -- even an unexpected
        exception from the transport leaves the backlog intact).

        An explicit flush always attempts the head -- it is the
        operator/drain entry point -- so it also probes (and, on
        success, clears) a standing cool-down.
        """
        registry = get_default_registry()
        tracer = get_default_tracer()
        delivered = 0
        while self._buffer:
            entry = self._buffer[0][0]
            if not self._send(entry):
                break
            self._buffer.popleft()
            delivered += 1
            self.stats.resent += 1
            registry.counter(names.DAEMON_RESENT, host=self.host).inc()
            tracer.record(entry.trace_id, names.SPAN_DAEMON_RESEND,
                          self._now(), host=self.host)
        if delivered:
            self._update_depth_gauge()
        return delivered

    @property
    def buffered(self) -> int:
        """Entries currently buffered awaiting an aggregator."""
        return len(self._buffer)

    @property
    def next_seq(self) -> int:
        """The sequence number the next accepted entry will carry."""
        return self._next_seq

    @property
    def connected_to(self) -> Optional[str]:
        """Name of the currently-connected aggregator, or None."""
        return self._connected

    @property
    def cooling_down(self) -> bool:
        """True while sends are suppressed by the known-down cool-down."""
        return self._cooling_down()

    @property
    def backpressured(self) -> bool:
        """True while an aggregator backpressure signal is honored."""
        return (self._backpressure_until is not None
                and self._now() < self._backpressure_until)

    def hour_ledger(self) -> Dict[Tuple[str, int], HourCounts]:
        """Acceptance books keyed by ``(category, hour_index)``.

        ``hour_index`` is the accept time's hour number on the logical
        clock (``now_ms // MILLIS_PER_HOUR``). The auditor treats the
        returned mapping as read-only.
        """
        return self._hour_ledger

    def dropped_identities(self) -> Set[Tuple[str, int]]:
        """All ``(origin, seq)`` identities dropped or shed on this host."""
        out: Set[Tuple[str, int]] = set()
        for counts in self._hour_ledger.values():
            out |= counts.dropped_ids
        return out

    # -- internals -----------------------------------------------------
    def _now(self) -> int:
        return self._clock.now() if self._clock is not None else 0

    def _record_accept(self, entry: LogEntry) -> Tuple[str, int]:
        key = (entry.category, self._now() // MILLIS_PER_HOUR)
        counts = self._hour_ledger.get(key)
        if counts is None:
            counts = self._hour_ledger[key] = HourCounts()
        counts.accepted += 1
        if entry.origin is not None and entry.seq is not None:
            identity = (entry.origin, entry.seq)
            counts.ids.add(identity)
            self._ledger_keys[identity] = key
        return key

    def _record_drop(self, entry: LogEntry,
                     key: Optional[Tuple[str, int]] = None) -> None:
        """Attribute a drop to the entry's accept hour.

        ``key`` is the accept-hour ledger key carried with the buffered
        entry; it is authoritative even for unstamped legacy entries, so
        an entry accepted in hour H and evicted in hour H+1 books
        against H rather than skewing H+1's quality audit.
        """
        identity = None if entry.seq is None else (entry.origin, entry.seq)
        if identity is not None:
            mapped = self._ledger_keys.pop(identity, None)
            if key is None:
                key = mapped
        if key is None:
            # No carried key and no identity mapping (pre-ledger accept):
            # best effort against the current hour.
            key = (entry.category, self._now() // MILLIS_PER_HOUR)
        counts = self._hour_ledger.get(key)
        if counts is None:
            counts = self._hour_ledger[key] = HourCounts()
        counts.dropped += 1
        if identity is not None:
            counts.dropped_ids.add(identity)

    # -- overload control ----------------------------------------------
    def _overloaded(self) -> bool:
        """True when admission control should shed sampled tiers."""
        if self.backpressured:
            return True
        return (self._max_buffer is not None
                and 2 * len(self._buffer) >= self._max_buffer)

    def _shed(self, entry: LogEntry, key: Tuple[str, int],
              tier: str) -> None:
        """Reject one entry at admission (an accounted per-tier drop)."""
        self.stats.dropped += 1
        self.stats.shed += 1
        registry = get_default_registry()
        registry.counter(names.DAEMON_DROPPED, host=self.host).inc()
        registry.counter(names.QOS_SAMPLED, category=entry.category,
                         tier=tier).inc()
        self._record_drop(entry, key)

    def _note_backpressure(self, pressured: bool) -> None:
        """Honor (or clear) the backpressure flag from an aggregator ack."""
        if pressured:
            if not self.backpressured:
                get_default_registry().counter(
                    names.BACKPRESSURE_HONORED, host=self.host).inc()
            self._backpressure_until = self._now() + BACKPRESSURE_HOLD_MS
        else:
            self._backpressure_until = None

    def _cooling_down(self) -> bool:
        """True while sends should be skipped after a failed budget.

        The cool-down ends at its deadline or the moment the discovery
        watch invalidates the cached aggregator listing (a registration
        or crash changed the set -- new information worth a retry).
        Clock-less daemons never cool down; they keep the classic
        one-probe-per-log behavior, which is already O(1).
        """
        if self._down_until is None or self._clock is None:
            return False
        if self._discovery.generation != self._down_generation:
            self._down_until = None
            return False
        if self._clock.now() >= self._down_until:
            self._down_until = None
            return False
        return True

    def _enter_cooldown(self) -> None:
        if self._clock is None:
            return
        self._down_streak += 1
        policy = self._retry_policy
        if policy is not None:
            cooldown = policy.delay_ms(
                min(self._down_streak, policy.max_attempts))
        else:
            cooldown = DEFAULT_COOLDOWN_MS
        self._down_until = self._clock.now() + max(int(cooldown), 1)
        self._down_generation = self._discovery.generation

    def _send(self, entry: LogEntry) -> bool:
        """One delivery attempt, including failover and bounded retries.

        With a retry policy, failed attempts back off on the logical
        clock and re-discover; without one, behavior matches classic
        Scribe -- one immediate re-discovery retry after a stale
        connection, then buffer. Exhausting the budget enters the
        known-down cool-down; success clears it.
        """
        policy = self._retry_policy
        max_attempts = policy.max_attempts if policy is not None else 2
        exclude: Optional[str] = None
        for attempt in range(1, max_attempts + 1):
            if self._try_once(entry, exclude):
                self.stats.sent += 1
                get_default_registry().counter(names.DAEMON_SENT,
                                               host=self.host).inc()
                if entry.seq is not None:
                    self._ledger_keys.pop((entry.origin, entry.seq), None)
                self._down_until = None
                self._down_streak = 0
                return True
            exclude = self._last_failed
            if attempt == max_attempts:
                break
            if policy is not None:
                delay = policy.delay_ms(attempt)
                if self._clock is not None and delay:
                    self._clock.advance(delay)
                get_default_registry().counter(
                    names.RETRY_ATTEMPTS,
                    site=self._send_site).inc()
            elif self._last_failed is None:
                # Classic behavior: only a stale-connection failure earns
                # the immediate second attempt; "no aggregator at all"
                # goes straight to the buffer.
                break
        self._enter_cooldown()
        return False

    def _try_once(self, entry: LogEntry, exclude: Optional[str]) -> bool:
        """A single wire attempt; sets ``_last_failed`` on stale sends."""
        self._last_failed: Optional[str] = None
        self.stats.send_attempts += 1
        aggregator = self._current_aggregator(exclude=exclude)
        if aggregator is None:
            return False
        rule = fault_point(self._send_site)
        try:
            if rule is not None and rule.kind == KIND_ERROR:
                # The send is lost on the wire; nothing was delivered.
                return False
            if rule is not None and rule.kind == KIND_ACK_LOST:
                # Delivered, but we never learn it: the entry stays
                # buffered and will be resent -- the duplicate the
                # mover's sequence-number dedup must absorb. The ack
                # (and any backpressure flag on it) is lost with it.
                aggregator.receive(entry)
                return False
            pressured = bool(aggregator.receive(entry))
            self._note_backpressure(pressured)
        except AggregatorDownError:
            # Stale connection: the aggregator died between our ZooKeeper
            # lookup and this send.
            self._last_failed = self._connected
            self._connected = None
            self._count_failover()
            return False
        return True

    def _current_aggregator(
            self, exclude: Optional[str] = None) -> Optional[ScribeAggregator]:
        if self._connected is not None:
            aggregator = self._resolve(self._connected)
            if aggregator is not None and aggregator.alive:
                return aggregator
            self._connected = None
            self._count_failover()
        name = self._discovery.pick(exclude=exclude)
        if name is None:
            return None
        aggregator = self._resolve(name)
        if aggregator is None or not aggregator.alive:
            return None
        self._connected = name
        return aggregator

    def _count_failover(self) -> None:
        self.stats.failovers += 1
        get_default_registry().counter(names.DAEMON_FAILOVERS,
                                       host=self.host).inc()

    def _enqueue(self, entry: LogEntry, key: Tuple[str, int],
                 tier: str) -> str:
        """The single accounting path for every buffer append.

        All buffering funnels through here so an eviction on the bounded
        buffer is always counted in ``stats.dropped`` /
        ``daemon_dropped_total``. A full buffer evicts by QoS drop
        priority: the oldest entry of the *lowest* tier present goes
        first; if everything buffered outranks the incoming entry, the
        incoming entry itself is dropped (a ``critical`` backlog is
        never evicted for ``bulk`` arrivals).
        """
        registry = get_default_registry()
        rank = drop_rank(tier)
        dropped = None
        if (self._max_buffer is not None
                and len(self._buffer) >= self._max_buffer):
            victim = self._eviction_index()
            victim_rank = self._buffer[victim][2]
            self.stats.dropped += 1
            registry.counter(names.DAEMON_DROPPED, host=self.host).inc()
            if rank > victim_rank:
                # Incoming entry is lower priority than everything held.
                self._record_drop(entry, key)
                self._update_depth_gauge()
                return "dropped_new"
            victim_entry, victim_key, _ = self._buffer[victim]
            del self._buffer[victim]
            self._record_drop(victim_entry, victim_key)
            dropped = "dropped_oldest"
        self._buffer.append((entry, key, rank))
        self.stats.buffered_total += 1
        registry.counter(names.DAEMON_BUFFERED, host=self.host).inc()
        self._update_depth_gauge()
        return dropped or "buffered"

    def _eviction_index(self) -> int:
        """Index of the eviction victim: oldest of the worst tier held."""
        worst_rank = max(item[2] for item in self._buffer)
        for index, item in enumerate(self._buffer):
            if item[2] == worst_rank:
                return index
        return 0  # unreachable: a non-empty buffer has a max

    def _update_depth_gauge(self) -> None:
        get_default_registry().gauge(names.DAEMON_BUFFER_DEPTH,
                                     host=self.host).set(len(self._buffer))

    def __repr__(self) -> str:
        return (f"ScribeDaemon(host={self.host!r}, "
                f"connected={self._connected!r}, buffered={self.buffered})")
