"""The chaos soak: prove zero-loss/zero-duplicate delivery under faults.

``repro chaos --seed S --hours N`` drives a two-datacenter Scribe
deployment through N hours of traffic while a seeded
:class:`~repro.faults.injector.FaultPlan` injects the §2 failure
catalogue -- staging-HDFS outage windows, aggregator crashes with a
durable write-ahead buffer, lost sends, lost *acks* (the duplicate
generator), ZooKeeper session expiries, and log-mover crashes between
its delete/rename/cleanup steps. At the end it audits conservation:

    accepted == landed + dropped + quarantined

per category, with *landed* counted two independent ways -- unique
payloads actually readable in the warehouse, and the mover's committed
``(origin, seq)`` ledger checked against every daemon's issued sequence
range minus the identities it dropped. Identical seeds give identical
storms, so a failing run is a replayable bug report.

Every soak is one :class:`Scenario` value run by the one driver,
:func:`run_chaos`: :data:`HOURLY` (the default), :data:`STREAMING`
(``--streaming``: micro-batches, a late-data replay, incremental parity)
and :data:`PARTITION` (``--partition``: a sharded warehouse under
overload).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.faults.injector import (
    KIND_ACK_LOST,
    KIND_CRASH,
    KIND_ERROR,
    KIND_EXPIRE_SESSION,
    KIND_UNAVAILABLE,
    FaultInjector,
    FaultPlan,
    FaultRule,
    InjectedCrash,
    get_default_injector,
    set_default_injector,
)
from repro.core.event import ClientEvent
from repro.core.sessionizer import Sessionizer
from repro.faults.retry import RetryExhaustedError, RetryPolicy
from repro.hdfs.layout import LOGS_ROOT, hour_for_millis
from repro.logmover.mover import LogMover
from repro.logmover.sharded import ShardedLogMover
from repro.logmover.streaming import StreamingMover
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry
from repro.obs.monitor import (
    DataQualityAuditor,
    PipelineMonitor,
    VERDICT_COMPLETE,
    standard_rules,
)
from repro.scribe.aggregator import decode_messages
from repro.scribe.cluster import Datacenter, ScribeDeployment
from repro.scribe.message import CategoryConfig, LogEntry, decode_envelope
from repro.scribe.qos import QOS_BULK, QOS_CRITICAL, QOS_STANDARD

#: The category the soak logs under.
CHAOS_CATEGORY = "chaos_events"

HOUR_MS = 3_600_000
MINUTE_MS = 60_000

#: Traffic slices per simulated hour.
SLICES_PER_HOUR = 12
#: Entries each daemon logs per slice.
ENTRIES_PER_SLICE = 4
#: How many times a crashed mover step is restarted before giving up.
MAX_MOVE_RESTARTS = 5

#: The hour-1 slice at which operators "notice" a held datacenter and
#: restart it -- well after the watermark sealed hour 0, so its WAL
#: replay is genuinely late data.
STREAM_HOLD_RESTART_SLICE = 3

#: Each daemon is one user whose session id rotates every SESSION_SLICES
#: slices, so sessions close mid-run as the watermark passes. The gap is
#: wide enough that the held-datacenter replay -- hour 0's last slice, 4
#: minutes after that session's last on-time event -- extends a session
#: closed at the hour-0 seal: a genuine incremental *re-open*.
SESSION_SLICES = 3
CHAOS_SESSION_GAP_MS = 10 * MINUTE_MS

#: Event names the streaming soak cycles through (exercises every rollup
#: level with more than one client / page / action).
CHAOS_EVENT_NAMES = (
    "web:home:main:stream:tweet:impression",
    "web:home:main:stream:tweet:favorite",
    "iphone:profile:header:card:avatar:click",
    "android:home:main:stream:retweet:click",
)
CHAOS_COUNTRIES = ("us", "jp", "de")

#: Staging file size of bulk-tier categories: small files, so a 20-minute
#: staging outage stacks enough disk-buffered rolls to cross the
#: aggregators' backpressure threshold (two buffered files).
BULK_FILE_RECORDS = 10


@dataclass(frozen=True)
class Fault:
    """One rule of a scenario's storm, as data.

    The window is in minutes of the soak; an ``hourly`` rule is armed in
    every hour with its window taken relative to that hour's start.
    ``min_hours`` arms a rule only on soaks at least that long, and
    ``{shard}`` in ``site`` stands for the shard the storm takes down.
    """

    site: str
    kind: str
    start_min: Optional[int] = None
    end_min: Optional[int] = None
    probability: float = 1.0
    max_fires: Optional[int] = None
    hourly: bool = False
    min_hours: int = 1


@dataclass(frozen=True)
class Scenario:
    """One chaos soak as data: traffic, topology, mover and storm.

    ``categories`` lists ``(category, QoS tier, entries per daemon per
    slice)``; ``payload(counter, category, user_id, session_id, now_ms)``
    makes one unique payload. ``mover`` is ``"hourly"`` (a
    :class:`LogMover` moving each hour at its boundary), ``"sharded"``
    (a :class:`ShardedLogMover` over ``shards`` warehouse shards) or
    ``"streaming"`` (a :class:`StreamingMover` polled every slice).
    ``shard_loss`` names the category whose shard the storm takes down;
    ``hold`` the datacenter a faulted multi-hour soak crashes right after
    hour 0's last slice reached it and restarts at hour 1's
    :data:`STREAM_HOLD_RESTART_SLICE`, so its WAL replay is late data.
    """

    name: str
    categories: Tuple[Tuple[str, str, int], ...]
    mover: str
    payload: Callable[[int, str, int, str, int], bytes]
    faults: Tuple[Fault, ...]
    shards: Optional[int] = None
    shard_loss: Optional[str] = None
    hold: Optional[str] = None
    min_hours: int = 1


def _event_payload(counter: int, category: str, user_id: int,
                   session_id: str, now_ms: int) -> bytes:
    """One encoded ClientEvent; ``event_details`` carries the counter so
    every payload's bytes are distinct."""
    event = ClientEvent.make(
        CHAOS_EVENT_NAMES[counter % len(CHAOS_EVENT_NAMES)],
        user_id=user_id, session_id=session_id,
        ip=f"10.0.{user_id}.1", timestamp=now_ms,
        details={"n": str(counter)},
        country=CHAOS_COUNTRIES[counter % len(CHAOS_COUNTRIES)],
        logged_in=bool(counter % 2))
    return event.to_bytes()


def _noise(end_min: int) -> Tuple[Fault, ...]:
    """Flaky sends, lost acks and session expiries from minute 2 to
    ``end_min`` of every hour -- clear of the boundary, so the boundary
    drain always runs fault-free."""
    return (
        Fault("daemon.west-host-*.send", KIND_ERROR, 2, end_min,
              probability=0.05, hourly=True),
        Fault("daemon.east-host-*.send", KIND_ACK_LOST, 2, end_min,
              probability=0.04, max_fires=4, hourly=True),
        Fault("zk.session.*", KIND_EXPIRE_SESSION, 2, end_min,
              probability=0.02, max_fires=2, hourly=True),
    )


def _mover_crash(step: str) -> Fault:
    """One mover crash at the chaos category's ``step`` site."""
    return Fault(f"logmover.{CHAOS_CATEGORY}.{step}", KIND_CRASH,
                 max_fires=1)


#: Hour 0's east staging outage with an aggregator crash inside it, and
#: a west outage in hour 1.
_OUTAGES = (
    Fault("hdfs.staging-east.write", KIND_UNAVAILABLE, 10, 40),
    Fault("aggregator.east-agg-000.receive", KIND_CRASH, 15, 40,
          max_fires=1),
)
_WEST_OUTAGE = Fault("hdfs.staging-west.write", KIND_UNAVAILABLE,
                     60 + 12, 60 + 35, min_hours=2)

#: The standard soak: one category, moved at each hour boundary, with a
#: mover crash at each of the hourly slide's two crash sites.
HOURLY = Scenario(
    name="hourly",
    categories=((CHAOS_CATEGORY, QOS_STANDARD, ENTRIES_PER_SLICE),),
    mover="hourly",
    payload=lambda counter, *_: f"m{counter:06d}".encode(),
    faults=(*_OUTAGES, _mover_crash("pre_rename"),
            _mover_crash("pre_cleanup"), _WEST_OUTAGE, *_noise(50)))

#: Encoded ClientEvents polled into micro-batches, mover crashes inside
#: the batch and seal protocol, the east datacenter held across the
#: hour-0 seal, and noise ending at minute 44 so that hold is
#: deterministic.
STREAMING = Scenario(
    name="streaming",
    categories=((CHAOS_CATEGORY, QOS_STANDARD, ENTRIES_PER_SLICE),),
    mover="streaming",
    payload=_event_payload,
    faults=(*_OUTAGES, _mover_crash("batch.pre_rename"),
            _mover_crash("batch.pre_cleanup"),
            _mover_crash("seal.pre_commit"), _WEST_OUTAGE, *_noise(44)),
    hold="east")

#: Three tiers on three distinct shards of a four-shard warehouse. Hour
#: 0: the east daemons are partitioned from their aggregators (minute
#: 10-26; the known-down cool-down must bound the retry bill), west
#: staging is out (30-50; backpressure and bulk-tier shedding), and the
#: bulk category's shard is down across the boundary (55-70; its move
#: defers to the final sweep while the other shards land on time). Hour
#: 1 crashes both east aggregators and the mover once; light noise rides
#: on top, clear of the backpressure phase.
PARTITION = Scenario(
    name="partition",
    categories=(("chaos_revenue", QOS_CRITICAL, 1),
                (CHAOS_CATEGORY, QOS_STANDARD, 2),
                ("chaos_ads", QOS_BULK, 4)),
    mover="sharded",
    payload=lambda counter, category, *_: f"{category}:{counter:06d}".encode(),
    faults=(
        Fault("daemon.east-host-*.send", KIND_ERROR, 10, 26),
        Fault("hdfs.staging-west.write", KIND_UNAVAILABLE, 30, 50),
        Fault("hdfs.warehouse-shard-{shard}.write", KIND_UNAVAILABLE, 55, 70),
        Fault("aggregator.east-agg-000.receive", KIND_CRASH, 60 + 6, 60 + 20,
              max_fires=1),
        Fault("aggregator.east-agg-001.receive", KIND_CRASH, 60 + 6, 60 + 20,
              max_fires=1),
        _mover_crash("pre_rename"),
        Fault("daemon.west-host-*.send", KIND_ACK_LOST, 2, 26,
              probability=0.04, max_fires=4, hourly=True),
        Fault("zk.session.*", KIND_EXPIRE_SESSION, 2, 50,
              probability=0.02, max_fires=2, hourly=True)),
    shards=4,
    shard_loss="chaos_ads",
    min_hours=2)


@dataclass
class ChaosReport:
    """Outcome of one chaos soak, with the conservation audit."""

    seed: int
    hours: int
    scenario: Scenario = HOURLY
    accepted: int = 0
    landed: int = 0
    dropped: int = 0
    quarantined: int = 0
    duplicates_skipped: int = 0
    faults_injected: int = 0
    retry_attempts: int = 0
    mover_restarts: int = 0
    alerts_fired: int = 0
    alerts_resolved: int = 0
    alerts_unresolved: int = 0
    #: Streaming accounting: micro-batches, seals, late re-opens, and the
    #: incremental consumer's sessions closed/re-opened, rollup days
    #: materialized and correction deltas applied.
    batches_landed: int = 0
    hours_sealed: int = 0
    late_reopens: int = 0
    sessions_closed: int = 0
    sessions_reopened: int = 0
    rollup_days: int = 0
    rollup_corrections: int = 0
    #: Overload accounting: moves deferred by a shard loss, aggregator
    #: backpressure episodes, and entries shed by QoS sampling.
    moves_deferred: int = 0
    backpressure_engaged: int = 0
    qos_sampled: int = 0
    hour_verdicts: Dict[str, str] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    #: The live monitor of a monitored soak (carries the series, audit
    #: and alert state for rendering).
    monitor: Optional[PipelineMonitor] = None

    @property
    def ok(self) -> bool:
        """True when every conservation and coverage check held."""
        return not self.violations

    def summary(self) -> str:
        """A one-screen human-readable account of the run."""
        complete = sum(1 for v in self.hour_verdicts.values()
                       if v == VERDICT_COMPLETE)
        values = dict(vars(self), shards=self.scenario.shards,
                      hours_complete=f"{complete}/{len(self.hour_verdicts)}")
        groups = [("accepted", "landed", "dropped", "quarantined"),
                  ("faults_injected", "retry_attempts", "duplicates_skipped",
                   "mover_restarts")]
        if self.scenario.shards:
            groups.append(("shards", "moves_deferred", "backpressure_engaged",
                           "qos_sampled"))
        if self.scenario.mover == "streaming":
            groups.append(("batches_landed", "hours_sealed", "late_reopens"))
            groups.append(("sessions_closed", "sessions_reopened",
                           "rollup_days", "rollup_corrections"))
        if self.monitor is not None:
            groups.append(("alerts_fired", "alerts_resolved",
                           "alerts_unresolved", "hours_complete"))
        variant = ("" if self.scenario.mover == "hourly"
                   else f" ({self.scenario.name})")
        lines = [f"chaos soak{variant}: seed={self.seed} hours={self.hours} "
                 f"{'PASS' if self.ok else 'FAIL'}"]
        for group in groups:
            lines.append("  " + " ".join(f"{name}={values[name]}"
                                         for name in group))
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


def chaos_plan(scenario: Scenario, hours: int,
               shard: Optional[int] = None) -> FaultPlan:
    """The scenario's storm for an ``hours``-long soak.

    One-shot rules come first, in declaration order, then each hour's
    noise; the injector matches rules in plan order, so this order is
    part of the storm. The seed only shifts *which* probabilistic calls
    fire (through the injector's RNG), never the plan.
    """
    armed = [(fault, 0) for fault in scenario.faults
             if not fault.hourly and hours >= fault.min_hours]
    armed += [(fault, 60 * h) for h in range(hours)
              for fault in scenario.faults if fault.hourly]
    plan = FaultPlan()
    for fault, offset in armed:
        start, end = (None if minute is None
                      else (offset + minute) * MINUTE_MS
                      for minute in (fault.start_min, fault.end_min))
        plan.add(fault.site.format(shard=shard), fault.kind,
                 start_ms=start, end_ms=end, probability=fault.probability,
                 max_fires=fault.max_fires)
    return plan


def run_chaos(seed: int, hours: int = 2, scenario: Scenario = HOURLY, *,
              monitor: bool = False, faults: bool = True,
              quiet_hours: Optional[Set[int]] = None) -> ChaosReport:
    """Run one soak of ``scenario`` and return its audited report.

    The deployment is two datacenters (east/west) of three hosts and two
    durable aggregators each, sharing one retry policy. An hourly or
    sharded mover moves every category's hour at its boundary after a
    full drain; a streaming mover is polled after every slice. A
    fault-free final sweep lands what backoff spilled past the last
    boundary.

    ``monitor=True`` (always on for a streaming soak) attaches a
    :class:`PipelineMonitor` that ticks after every slice and boundary,
    and the audit additionally asserts alert coverage: on a faulted run
    every injected outage/crash class must fire -- and later resolve --
    its alert; on a fault-free run (``faults=False``) any fired alert is
    a false positive. ``quiet_hours`` suppresses traffic during the given
    absolute hour indices (the seasonal-rule demo knob; it also disables
    the false-positive check).
    """
    if hours < scenario.min_hours:
        raise ValueError(f"the {scenario.name} soak needs at least "
                         f"{scenario.min_hours} hour(s)")
    quiet = quiet_hours or set()
    streaming = scenario.mover == "streaming"
    report = ChaosReport(seed=seed, hours=hours, scenario=scenario)
    policy = RetryPolicy(max_attempts=5, base_delay_ms=100,
                         max_delay_ms=5_000, seed=seed)
    deployment = ScribeDeployment(
        ["east", "west"], num_hosts=3, num_aggregators=2,
        durable_aggregators=True, seed=seed, retry_policy=policy,
        warehouse_shards=scenario.shards)
    for category, tier, __ in scenario.categories:
        deployment.categories.register(CategoryConfig(
            category=category, codec="zlib", qos=tier,
            max_file_records=BULK_FILE_RECORDS if tier == QOS_BULK else 50))
    clock = deployment.clock
    warehouse = deployment.warehouse
    staging = {name: dc.staging
               for name, dc in deployment.datacenters.items()}
    daemons = [daemon for dc in deployment.datacenters.values()
               for daemon in dc.daemons]
    if streaming:
        from repro.oink.incremental import IncrementalPipeline

        mover = StreamingMover(staging, warehouse, clock,
                               batch_interval_ms=MINUTE_MS,
                               watermark_delay_ms=2 * MINUTE_MS)
        incremental = IncrementalPipeline(
            warehouse, category=CHAOS_CATEGORY,
            inactivity_gap_ms=CHAOS_SESSION_GAP_MS)
    elif scenario.mover == "sharded":
        # The serial backend: per-shard movers retry with backoff on the
        # shared logical clock, and a deterministic storm needs those
        # clock advances in one thread.
        mover = ShardedLogMover(staging, warehouse, backend="serial",
                                clock=clock, retry_policy=policy)
    else:
        mover = LogMover(staging, warehouse=warehouse, clock=clock,
                         retry_policy=policy)
    shard = (warehouse.shard_index(scenario.shard_loss)
             if scenario.shard_loss else None)
    plan = chaos_plan(scenario, hours, shard) if faults else FaultPlan()
    injector = FaultInjector(plan, clock=clock, seed=seed)
    previous = get_default_injector()
    set_default_injector(injector)
    registry = get_default_registry()
    if monitor or streaming:
        report.monitor = PipelineMonitor(
            auditor=DataQualityAuditor(mover, daemons=daemons),
            rules=standard_rules(),
            max_samples=max(2048, (hours + 1) * (SLICES_PER_HOUR + 2)))

    def tick() -> None:
        if report.monitor is not None:
            report.monitor.tick(clock.now())

    def observe(poll) -> None:
        incremental.observe_poll(poll)
        tick()

    sent: Dict[str, List[bytes]] = {
        category: [] for category, __, __ in scenario.categories}
    user_ids = {daemon.host: index + 1 for index, daemon in enumerate(daemons)}
    late_leg = (scenario.hold is not None and faults and hours >= 2
                and 0 not in quiet)
    held: Optional[Datacenter] = None
    counter = 0
    try:
        for h in range(hours):
            for s in range(SLICES_PER_HOUR):
                _advance_to(clock, h * HOUR_MS + (2 + 4 * s) * MINUTE_MS)
                block = (h * SLICES_PER_HOUR + s) // SESSION_SLICES
                for dc in deployment.datacenters.values():
                    for daemon in dc.daemons if h not in quiet else ():
                        session_id = f"{daemon.host}-b{block:03d}"
                        for category, __, per_slice in scenario.categories:
                            for _ in range(per_slice):
                                payload = scenario.payload(
                                    counter, category, user_ids[daemon.host],
                                    session_id, clock.now())
                                counter += 1
                                sent[category].append(payload)
                                daemon.log(LogEntry(category, payload))
                    # Operators restart crashed aggregators promptly; the
                    # restart replays the durable WAL. (The streaming
                    # drain below restarts them every slice itself.)
                    if s >= 2 and not streaming:
                        _restart_dead(deployment)
                if streaming:
                    if late_leg and h == 0 and s == SLICES_PER_HOUR - 1:
                        held = _hold(deployment.datacenters[scenario.hold])
                    elif h >= 1 and s >= STREAM_HOLD_RESTART_SLICE:
                        held = None  # operators finally notice; WALs replay
                    drain(deployment, passes=2, held=held)
                    incremental.observe_poll(_restarting(
                        report, lambda: mover.poll(CHAOS_CATEGORY,
                                                   force=True)))
                tick()
            if not streaming:
                _advance_to(clock, (h + 1) * HOUR_MS)
                drain(deployment)
                _move_hours(report, mover, scenario, [h])
                tick()
        # The final sweep, fault-free: deferred hours and backoff
        # spillover into the trailing hour land now; a streaming mover
        # keeps polling until every landed hour is sealed.
        injector.disable()
        drain(deployment)
        if streaming:
            mover.run_until_sealed(CHAOS_CATEGORY, on_poll=observe)
        else:
            _move_hours(report, mover, scenario, range(hours + 1))
        if report.monitor is not None:
            # Cooldown ticks: monitoring outlives the traffic, so event
            # alerts (failovers, mover crashes) get their quiet samples
            # and resolve before the coverage audit inspects them.
            tick()
            for _ in range(4):
                clock.advance(MINUTE_MS)
                tick()
    finally:
        set_default_injector(previous)

    report.faults_injected = injector.injected_total
    report.retry_attempts = int(registry.total(obs_names.RETRY_ATTEMPTS))
    report.duplicates_skipped = sum(r.duplicates_skipped
                                    for r in mover.moves)
    report.backpressure_engaged = int(
        registry.total(obs_names.BACKPRESSURE_ENGAGED))
    report.qos_sampled = int(registry.total(obs_names.QOS_SAMPLED))
    _audit(report, daemons, warehouse, mover, plan, sent,
           faults=faults, quiet_hours=quiet)
    if streaming:
        report.batches_landed = int(
            registry.total(obs_names.STREAMING_BATCHES_LANDED))
        report.hours_sealed = len(mover.hours_sealed())
        report.late_reopens = mover.late_reopens()
        _check_streaming(report, warehouse, mover, incremental, late_leg)
    if scenario.shards:
        _check_partition(report, registry, plan)
    return report


# -- orchestration helpers -------------------------------------------------
def _advance_to(clock, target_ms: int) -> None:
    """Move the logical clock forward to ``target_ms`` (never back)."""
    if clock.now() < target_ms:
        clock.advance(target_ms - clock.now())


def _restart_dead(deployment: ScribeDeployment,
                  held: Optional[Datacenter] = None) -> None:
    """Restart every crashed aggregator outside ``held`` (WAL replay
    happens in start)."""
    for dc in deployment.datacenters.values():
        if dc is not held:
            for aggregator in dc.aggregators.values():
                aggregator.start()


def drain(deployment: ScribeDeployment, passes: Optional[int] = None,
          held: Optional[Datacenter] = None) -> None:
    """Restart crashed aggregators, then flush the deployment toward
    staging HDFS: until nothing is buffered short of staging (at most
    eight passes, enough outside every noise window) or, given
    ``passes``, exactly that many best-effort passes. The ``held``
    datacenter's aggregators stay down and unflushed."""
    _restart_dead(deployment, held)
    for _ in range(passes or 8):
        for dc in deployment.datacenters.values():
            if dc is held:
                for daemon in dc.daemons:
                    daemon.flush()
            else:
                dc.flush()
        if passes is None and _fully_drained(deployment):
            return


def _fully_drained(deployment: ScribeDeployment) -> bool:
    """True when no message is buffered anywhere short of staging."""
    for dc in deployment.datacenters.values():
        if dc.total_daemon_buffered():
            return False
        for aggregator in dc.aggregators.values():
            if (aggregator.pending_messages or
                    aggregator.disk_buffered_files or
                    aggregator.wal_depth):
                return False
    return True


def _hold(dc: Datacenter) -> Datacenter:
    """Deliver the datacenter's daemon backlogs, then crash its
    aggregators before they roll: the just-logged slice survives only
    in their write-ahead buffers. Returns ``dc`` (the hold)."""
    for daemon in dc.daemons:
        daemon.flush()
    for aggregator in dc.aggregators.values():
        if aggregator.alive:
            aggregator.crash()
    return dc


def _restarting(report: ChaosReport, step: Callable[[], object]):
    """Run one idempotent mover step through injected crashes, counting
    each restart in ``report.mover_restarts``; returns the successful
    attempt's result. A :class:`~repro.faults.retry.RetryExhaustedError`
    (a warehouse shard down through the whole retry budget) leaves the
    hour staged for a later sweep, counts in ``report.moves_deferred``
    and returns None."""
    for _ in range(MAX_MOVE_RESTARTS):
        try:
            return step()
        except InjectedCrash:
            report.mover_restarts += 1
        except RetryExhaustedError:
            report.moves_deferred += 1
            return None
    raise RuntimeError(f"mover failed to converge after "
                       f"{MAX_MOVE_RESTARTS} restarts")


def _move_hours(report: ChaosReport, mover, scenario: Scenario,
                hour_indices) -> None:
    """Move each category's hour ``h`` that has staged data, for every
    ``h`` in ``hour_indices``."""
    for h in hour_indices:
        for category, __, __ in scenario.categories:
            hour = hour_for_millis(category, h * HOUR_MS)
            if mover.hour_has_data(hour):
                _restarting(report, lambda: mover.move_hour(
                    hour, require_complete=False))


# -- the audit -------------------------------------------------------------
def _fired(plan: FaultPlan, prefix: str,
           kind: Optional[str] = None) -> List[FaultRule]:
    """The plan's rules at sites under ``prefix`` (of ``kind``, when
    given) that fired at least once."""
    return [rule for rule in plan.rules
            if rule.fires and rule.site.startswith(prefix)
            and kind in (None, rule.kind)]


def _require(report: ChaosReport, evidence) -> None:
    """Record the message of every ``(observed, message)`` pair whose
    observation is empty or zero, in order."""
    for observed, message in evidence:
        if not observed:
            report.violations.append(message)


def _landed_frames(warehouse, category: str) -> List[bytes]:
    """Every frame under the category's ``/logs`` tree, file by file in
    path order -- read back the way a consumer would."""
    root = f"{LOGS_ROOT}/{category}"
    if not warehouse.is_dir(root):
        return []
    return [frame for path in warehouse.glob_files(root)
            for frame in decode_messages(warehouse.open_bytes(path))]


def _audit(report: ChaosReport, daemons, warehouse, mover: LogMover,
           plan: FaultPlan, sent_payloads: Dict[str, List[bytes]],
           faults: bool = True,
           quiet_hours: Optional[Set[int]] = None) -> None:
    """Check conservation, uniqueness, fault and alert coverage.

    ``sent_payloads`` maps each category to the payloads logged under
    it. Each category's missing payloads must balance exactly against
    the drops its daemons recorded for it -- "every accepted payload
    landed" on a drop-free soak; under overload it pins QoS sheds to the
    categories allowed to shed (a critical-tier category drops nothing).
    """
    report.accepted = sum(d.stats.accepted for d in daemons)
    report.dropped = sum(d.stats.dropped for d in daemons)
    report.quarantined = sum(r.quarantined_messages for r in mover.moves)
    for category, tier, __ in sorted(report.scenario.categories):
        landed_payloads: List[bytes] = []
        for frame in _landed_frames(warehouse, category):
            origin, __, payload = decode_envelope(frame)
            if origin is not None:
                report.violations.append(
                    f"unstripped envelope in a {category} warehouse file")
            landed_payloads.append(payload)
        report.landed += len(landed_payloads)

        dupes = len(landed_payloads) - len(set(landed_payloads))
        if dupes:
            report.violations.append(
                f"{dupes} duplicate {category} payload(s) in the "
                f"warehouse")
        expected = set(sent_payloads[category])
        missing = expected - set(landed_payloads)
        extra = set(landed_payloads) - expected
        dropped_here = sum(
            counts.dropped for daemon in daemons
            for (cat, __), counts in daemon.hour_ledger().items()
            if cat == category)
        if len(missing) != dropped_here:
            report.violations.append(
                f"{len(missing)} accepted {category} payload(s) never "
                f"landed but its daemons recorded {dropped_here} "
                f"drop(s) (e.g. {sorted(missing)[:3]})")
        if extra:
            report.violations.append(
                f"{len(extra)} unexpected {category} payload(s) landed")
        if tier == QOS_CRITICAL and dropped_here:
            report.violations.append(
                f"critical category {category} dropped {dropped_here} "
                f"entr(ies) under overload")
    if report.accepted != (report.landed + report.dropped +
                           report.quarantined):
        report.violations.append(
            f"conservation broken: accepted={report.accepted} != "
            f"landed={report.landed} + dropped={report.dropped} + "
            f"quarantined={report.quarantined}")

    # Sequence audit: the mover's committed ledger must cover exactly the
    # sequence ranges the daemons issued, minus the identities the
    # daemons themselves dropped (QoS sheds, drop-oldest evictions) --
    # an accounted drop must never land, an undropped identity must.
    issued: Set[Tuple[str, int]] = set()
    dropped_ids: Set[Tuple[str, int]] = set()
    for daemon in daemons:
        issued |= {(daemon.host, s) for s in range(daemon.next_seq)}
        dropped_ids |= daemon.dropped_identities()
    ledger = set(mover.landed_identities())
    expected_ledger = issued - dropped_ids
    if ledger != expected_ledger:
        report.violations.append(
            f"sequence ledger mismatch: "
            f"{len(expected_ledger - ledger)} issued undropped "
            f"identities unledgered, {len(ledger - expected_ledger)} "
            f"ledgered identities dropped or never issued")

    # Coverage: the acceptance faults must actually have fired.
    if faults:
        _require(report, (
            (_fired(plan, "", KIND_UNAVAILABLE), "fault coverage gap: no "
             f"HDFS outage window ({KIND_UNAVAILABLE}) fired"),
            (_fired(plan, "", KIND_CRASH),
             f"fault coverage gap: no process crash ({KIND_CRASH}) fired"),
            (_fired(plan, "logmover."),
             "fault coverage gap: no mover crash fired"),
            (_fired(plan, "aggregator."),
             "fault coverage gap: no aggregator crash fired")))
    if report.monitor is not None:
        _check_alerts(report, plan, faults=faults,
                      quiet_hours=quiet_hours or set())


#: Injected fault classes mapped to the alert each must fire: site
#: prefix, fault kind, alert rule name.
ALERT_EXPECTATIONS = (
    ("hdfs.staging-", KIND_UNAVAILABLE, "staging_outage"),
    ("aggregator.", KIND_CRASH, "aggregator_failover"),
    ("logmover.", KIND_CRASH, "mover_crash"),
)


def _check_alerts(report: ChaosReport, plan: FaultPlan, faults: bool,
                  quiet_hours: Set[int]) -> None:
    """Audit the monitor itself against the injected storm.

    Faulted runs must show zero false *negatives* (every outage/crash
    class fired its alert, one episode per distinct outage window) and
    no stuck alerts; fault-free runs must show zero false *positives*.
    The per-hour verdicts must also agree with the conservation audit:
    a conserved, fully-landed run is ``complete`` across the board.
    """
    engine = report.monitor.engine
    report.alerts_fired = len(engine.history())
    report.alerts_resolved = sum(1 for a in engine.history()
                                 if not a.active)
    report.alerts_unresolved = len(engine.active())

    if faults:
        for prefix, kind, alert_name in ALERT_EXPECTATIONS:
            fired_rules = _fired(plan, prefix, kind)
            if not fired_rules:
                continue
            # Each outage window is a separate firing episode; crashes
            # inside one inter-tick interval may share an episode.
            required = len(fired_rules) if kind == KIND_UNAVAILABLE else 1
            if engine.fired(alert_name) < required:
                report.violations.append(
                    f"alert coverage gap: {len(fired_rules)} fired "
                    f"{kind} fault(s) at {prefix}* but "
                    f"{alert_name!r} fired {engine.fired(alert_name)} "
                    f"episode(s) (need {required})")
            _check_resolved(report, alert_name, "recovery")
    elif not quiet_hours and report.alerts_fired:
        names = sorted({a.rule for a in engine.history()})
        report.violations.append(
            f"false positive: {report.alerts_fired} alert episode(s) "
            f"({', '.join(names)}) fired on a fault-free run")

    # Verdict agreement with the conservation audit.
    audits = report.monitor.audits
    for audit in audits:
        label = (f"{audit.hour.category}/{audit.hour.date_str}/"
                 f"{audit.hour.hour:02d}")
        report.hour_verdicts[label] = audit.verdict
        if not audit.conserved:
            report.violations.append(
                f"hour audit not conserved for {label}: "
                f"accepted={audit.accepted} landed={audit.landed} "
                f"dropped={audit.dropped} "
                f"quarantined={audit.quarantined} "
                f"outstanding={audit.outstanding}")
    for key in ("accepted", "landed", "dropped", "quarantined"):
        value = sum(getattr(audit, key) for audit in audits)
        if value != getattr(report, key):
            report.violations.append(
                f"verdicts disagree with conservation audit: per-hour "
                f"{key} sums to {value}, run total is "
                f"{getattr(report, key)}")
    if not report.violations:
        bad = [label for label, verdict in report.hour_verdicts.items()
               if verdict != VERDICT_COMPLETE]
        if bad:
            report.violations.append(
                f"conserved run left non-complete verdicts: {bad}")


def _check_resolved(report: ChaosReport, alert_name: str,
                    after: str) -> None:
    """Every episode of ``alert_name`` must have resolved ``after`` the
    fault that fired it cleared."""
    for episode in report.monitor.engine.episodes(alert_name):
        if episode.active:
            report.violations.append(
                f"alert {alert_name!r} never resolved after {after} "
                f"(fired at {episode.fired_at_ms}ms)")


def _check_streaming(report: ChaosReport, warehouse,
                     mover: StreamingMover, incremental,
                     late_leg: bool) -> None:
    """Streaming acceptance: every landed hour ends sealed, and after a
    final ``finish()`` the seal-driven incremental consumer equals a
    from-scratch batch rebuild -- closed sessions equal a batch
    :class:`Sessionizer` over all landed events, each attributed to one
    day, and each day's ``level-*.json`` files are byte-identical to a
    :class:`RollupJob` rebuild. When the held-datacenter leg ran
    (``late_leg``), its replay must have re-opened a sealed hour and a
    closed session, applied a rollup correction delta, and driven the
    ``completeness`` alert through a fire/resolve cycle.
    """
    from repro.oink.rollups import ROLLUPS_ROOT, RollupJob, rollup_day_dir

    unsealed = [str(hour) for hour in mover.unsealed_hours()]
    if unsealed:
        report.violations.append(
            f"streaming left hour(s) unsealed: {unsealed}")

    incremental.finish()
    sessionizer = incremental.sessionizer
    report.sessions_closed = sessionizer.closed_total
    report.sessions_reopened = sessionizer.reopened_total
    report.rollup_days = len(incremental.rollup.days())
    report.rollup_corrections = incremental.rollup.corrections

    # -- session parity ---------------------------------------------------
    all_events = [ClientEvent.from_bytes(frame)
                  for frame in _landed_frames(warehouse, CHAOS_CATEGORY)]
    batch = Sessionizer(sessionizer.inactivity_gap_ms)

    def signature(user_id, session_id, events):
        return (user_id, session_id,
                tuple(event.to_bytes() for event in events))

    batch_sigs = sorted(signature(s.user_id, s.session_id, s.events)
                        for s in batch.sessionize(all_events))
    closed = sessionizer.closed_sessions()
    incr_sigs = sorted(signature(*c.key, c.session.events)
                       for c in closed)
    if batch_sigs != incr_sigs:
        only_batch = len(set(batch_sigs) - set(incr_sigs))
        only_incr = len(set(incr_sigs) - set(batch_sigs))
        report.violations.append(
            f"session parity broken: batch rebuild found "
            f"{len(batch_sigs)} session(s), incremental closed "
            f"{len(incr_sigs)} ({only_batch} batch-only, "
            f"{only_incr} incremental-only)")
    by_day_total = sum(len(rows) for rows
                       in sessionizer.closed_by_day().values())
    if by_day_total != len(closed):
        report.violations.append(
            f"session day attribution broken: {len(closed)} closed "
            f"session(s) attributed {by_day_total} time(s) across days")

    # -- rollup parity ----------------------------------------------------
    days = sorted({(h.year, h.month, h.day)
                   for h in mover.hours_sealed()})
    if days != incremental.rollup.days():
        report.violations.append(
            f"rollup coverage broken: sealed days {days}, "
            f"incremental materialized {incremental.rollup.days()}")
    rebuild_root = "/rollups_rebuild"
    rebuild_job = RollupJob(warehouse, category=CHAOS_CATEGORY,
                            root=rebuild_root)
    for day in days:
        rebuild_job.run(*day)
        live_dir = rollup_day_dir(*day, root=ROLLUPS_ROOT)
        rebuilt_dir = rollup_day_dir(*day, root=rebuild_root)
        for path in sorted(warehouse.glob_files(rebuilt_dir)):
            live_path = path.replace(rebuilt_dir, live_dir, 1)
            if (not warehouse.exists(live_path)
                    or warehouse.open_bytes(live_path)
                    != warehouse.open_bytes(path)):
                report.violations.append(
                    f"rollup parity broken: {live_path} differs from "
                    f"batch rebuild")

    if late_leg:
        _require(report, (
            (report.late_reopens, "streaming late-data scenario never "
             "re-opened a sealed hour"),
            (report.monitor.engine.fired("completeness"),
             "late re-open never fired the completeness alert"),
            (report.sessions_reopened,
             "late replay never re-opened a closed session"),
            (report.rollup_corrections,
             "late re-seal never applied a rollup correction delta")))
        _check_resolved(report, "completeness", "the late data landed")


def _check_partition(report: ChaosReport, registry,
                     plan: FaultPlan) -> None:
    """Partition-soak acceptance: the overload machinery must engage --
    conservation alone would hold trivially if the storm never bit. QoS
    sampling must shed bulk traffic and *only* bulk traffic, and the
    shard loss must defer exactly the lost shard's boundary move."""
    _require(report, (
        (_fired(plan, "daemon.east-host-"), "partition coverage gap: the "
         "east daemon partition never fired"),
        (_fired(plan, "hdfs.warehouse-shard-"), "partition coverage gap: "
         "the warehouse shard outage never fired"),
        (report.backpressure_engaged,
         "staging outage never pushed an aggregator into backpressure"),
        (registry.total(obs_names.BACKPRESSURE_HONORED),
         "no daemon ever honored a backpressure signal"),
        (report.qos_sampled, "overload never shed a sampled bulk entry")))
    for labels, metric in registry.series(obs_names.QOS_SAMPLED):
        if labels.get("tier") != QOS_BULK and metric.value:
            report.violations.append(
                f"QoS sampling shed {int(metric.value)} entr(ies) of "
                f"protected tier {labels.get('tier')!r} "
                f"(category {labels.get('category')!r})")
    if report.moves_deferred != 1:
        report.violations.append(
            f"shard loss should defer exactly the lost shard's boundary "
            f"move; {report.moves_deferred} move(s) deferred")
