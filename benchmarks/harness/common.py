"""What every workload shares: the generated day, sizes, small statistics.

The generator lives here, outside the system: the program under test
only ever sees the :class:`~repro.scribe.message.LogEntry` objects and
warehouses built from what this module produces from ``--seed``.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import statistics
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.clock import MILLIS_PER_DAY
from repro.core.event import CLIENT_EVENTS_CATEGORY, ClientEvent
from repro.core.names import EventPattern
from repro.scribe.cluster import ScribeDeployment
from repro.scribe.message import CategoryConfig, LogEntry
from repro.workload.generator import WorkloadGenerator

#: The logical clock's epoch day, so event timestamps are clock instants.
DATE = (2012, 1, 1)
NEEDLE_PATTERN = "web:signup:step_confirm:*"
BROAD_PATTERN = "*:impression"

#: Users generated per wanted event. A generated user yields 13-20
#: events a day depending on the seed; 0.09 leaves every seed a surplus
#: to trim, so all seeds give a day of exactly the stated size.
USERS_PER_EVENT = 0.09

#: Run id of the one-off probe spans (never a round).
PROBE_RUN = -1


def usable_cpus() -> int:
    """Cores this process may run on (the affinity mask, not the host)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def median(values: Sequence[float]) -> float:
    """Median, 0.0 for no samples (a layer the workload never entered)."""
    return statistics.median(values) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       int(round(fraction * (len(ordered) - 1))))]


def payload_digest(payloads: Iterable[bytes]) -> str:
    """sha256 over the sorted payloads: order-free multiset identity."""
    return hashlib.sha256(b"\x00".join(sorted(payloads))).hexdigest()


@dataclass
class Day:
    """One generated client-events day of an exact, stated size."""

    events: List[ClientEvent]          # time-ordered
    payloads: List[bytes]              # ``to_bytes`` of each, same order
    generate_s: float
    encode_s: float

    def matching(self, pattern: str) -> int:
        """Reference count in plain Python, the ground truth of a query
        over :data:`DATE` (a session's tail past midnight is not in it)."""
        matcher = EventPattern(pattern)
        return sum(1 for event in self.events
                   if is_day_one(event) and matcher.matches(event.event_name))


def generate_day(seed: int, num_events: int) -> Day:
    """A day of exactly ``num_events`` events, the same for the same seed.

    The repo's generator sizes a day by users, and the events that gives
    vary by a tenth from seed to seed -- which would show up as run-to-run
    spread in every timing. So a surplus of users is generated and whole
    sessions are kept, in a seeded order, until the day holds
    ``num_events``; the last session kept is cut short to land exactly.
    Sessions holding a needle event are kept first, so the needle
    pattern keeps its few matches at every size.
    """
    started = time.perf_counter()
    users = max(8, math.ceil(num_events * USERS_PER_EVENT))
    generated = WorkloadGenerator(num_users=users,
                                  seed=seed).generate_day(*DATE)
    sessions: Dict[str, List[ClientEvent]] = {}
    for event in generated.events:
        sessions.setdefault(event.session_id, []).append(event)
    needle = EventPattern(NEEDLE_PATTERN)
    order = sorted(sessions)
    random.Random(seed).shuffle(order)
    order.sort(key=lambda sid: not any(needle.matches(e.event_name)
                                       for e in sessions[sid]))
    kept: List[ClientEvent] = []
    for session_id in order:
        room = num_events - len(kept)
        if room <= 0:
            break
        kept.extend(sessions[session_id][:room])
    if len(kept) != num_events:
        raise RuntimeError(
            f"seed {seed} generated {len(kept)} events from {users} users, "
            f"fewer than the {num_events} the workload is sized for")
    kept.sort(key=lambda e: (e.timestamp, e.user_id, e.session_id))
    generate_s = time.perf_counter() - started

    started = time.perf_counter()
    payloads = [event.to_bytes() for event in kept]
    encode_s = time.perf_counter() - started
    return Day(events=kept, payloads=payloads, generate_s=generate_s,
               encode_s=encode_s)


def decode_events_per_s(payloads: Sequence[bytes]) -> float:
    """Probe: ``ClientEvent.from_bytes`` over the day's payloads."""
    started = time.perf_counter()
    for payload in payloads:
        ClientEvent.from_bytes(payload)
    return len(payloads) / (time.perf_counter() - started)


#: (logical instant, host key, entry): what a client hands to Scribe.
TimedEntry = Tuple[int, int, LogEntry]


def timed_entries(day: Day) -> List[TimedEntry]:
    """The day as pre-built log entries, so the timed part is ``log()``."""
    return [(event.timestamp, event.user_id,
             LogEntry(CLIENT_EVENTS_CATEGORY, payload))
            for event, payload in zip(day.events, day.payloads)]


def slice_entries(entries: Sequence[TimedEntry], width_ms: int,
                  slices: int) -> List[List[TimedEntry]]:
    """Bucket time-ordered entries into ``slices`` windows of
    ``width_ms``; entries past the last window go into a final extra
    bucket (sessions run a little past midnight)."""
    out: List[List[TimedEntry]] = [[] for _ in range(slices + 1)]
    for entry in entries:
        out[min(entry[0] // width_ms, slices)].append(entry)
    return out


def scribe_deployment(**kwargs) -> ScribeDeployment:
    """2 datacenters x 3 hosts x 2 aggregators: the one deployment shape
    of every ingest workload, so their ``scribe`` numbers compare.

    The topology is the system's configuration, not an input: its
    discovery seed stays fixed, so ``--seed`` changes what is logged and
    never which aggregator a daemon happens to pick.
    """
    return ScribeDeployment(["east", "west"], num_hosts=3,
                            num_aggregators=2, seed=1, **kwargs)


def client_events_deployment() -> ScribeDeployment:
    """:func:`scribe_deployment` with ``client_events`` registered."""
    deployment = scribe_deployment()
    deployment.categories.register(
        CategoryConfig(CLIENT_EVENTS_CATEGORY, max_file_records=200))
    return deployment


def log_entries(deployment: ScribeDeployment,
                entries: Sequence[TimedEntry]) -> None:
    """Log a block of entries at their own instants on the logical clock,
    odd users from the first datacenter and even users from the second."""
    clock = deployment.clock
    east, west = deployment.datacenters.values()
    for instant, host_key, entry in entries:
        clock.advance_to(instant)
        (east if host_key % 2 else west).log_from(host_key, entry,
                                                   wrap=True)


def is_day_one(event: ClientEvent) -> bool:
    """Did the event land in an hour of :data:`DATE`?"""
    return event.timestamp < MILLIS_PER_DAY


class Workload:
    """One workload: inputs made in set-up, then identical timed rounds.

    The runner calls :meth:`set_up` (timed as ``setup_s``), then cycles
    :meth:`prepare_round` (untimed), :meth:`run_round` (timed) and
    :meth:`inspect_round` (untimed), and finishes with
    :meth:`final_check` on the state the last round left behind. Every
    round starts from a fresh deployment or the set-up's read-only
    warehouses, so rounds are the same work.
    """

    name = ""

    def __init__(self, seed: int, scale: float, tracer) -> None:
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        #: Events one round carries through the system.
        self.events_per_round = 0
        #: Per-layer numbers known after set-up (generator, encode).
        self.setup_metrics: Dict[str, float] = {}
        #: Per-layer counts of the last inspected round.
        self.counts: Dict[str, float] = {}

    def set_up(self) -> None:
        """Generate and serialise inputs; build what rounds only read."""
        raise NotImplementedError

    def prepare_round(self) -> None:
        """Untimed: the fresh deployment (and registry) a round starts on."""

    def run_round(self) -> None:
        """The timed part: one pass of the workload through the system."""
        raise NotImplementedError

    def inspect_round(self, collect: bool) -> Tuple[int, int]:
        """Cheap checks on the round just run: (operations attempted,
        operations failed). With ``collect`` also read the per-layer
        counts into :attr:`counts`."""
        raise NotImplementedError

    def final_check(self) -> int:
        """The expensive checks, once, on the last round's outputs:
        operations found failed."""
        return 0

    def probe(self) -> Dict[str, float]:
        """Traced run only: one-off measurements of single layers, their
        spans recorded under :data:`PROBE_RUN`."""
        return {}

    def day_setup_metrics(self, day: Day) -> None:
        """The generator's and the encoder's share of set-up."""
        self.setup_metrics = {
            "workload.generate_s": day.generate_s,
            "workload.events": len(day.events),
            "thriftlike.encode_events_per_s": len(day.events) / day.encode_s,
        }
