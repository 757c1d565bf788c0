"""Event counting over session sequences (§5.2).

The paper's canonical script::

    define CountClientEvents CountClientEvents('$EVENTS');
    raw = load '/session_sequences/$DATE/' using SessionSequencesLoader();
    generated = foreach raw generate CountClientEvents(symbols);
    grouped = group generated all;
    count = foreach grouped generate SUM(generated);

"an arbitrary regular expression can be supplied which is automatically
expanded to include all matching events (via the dictionary) ... Since a
session sequence is simply a unicode string, the UDF translates into
string manipulations after consulting the client event dictionary."
"""

from __future__ import annotations

import operator
import re
from typing import Any, Optional, Tuple

from repro.core.dictionary import EventDictionary
from repro.core.names import EventPattern
from repro.core.sequences import SessionSequenceRecord
from repro.hdfs.namenode import HDFS
from repro.mapreduce.jobtracker import JobTracker
from repro.pig.loaders import ClientEventsLoader, SessionSequencesLoader
from repro.pig.relation import PigServer
from repro.pig.udf import EvalFunc


class CountClientEvents(EvalFunc):
    """Counts occurrences of matching events within one session sequence."""

    def __init__(self, pattern: str, dictionary: EventDictionary) -> None:
        self.pattern = pattern
        self._regex = re.compile(dictionary.symbol_class(pattern))

    def exec(self, record: Any) -> int:  # noqa: A003
        """Count matching events in one session sequence."""
        sequence = _sequence_of(record)
        return len(self._regex.findall(sequence))


class SessionsWithEvent(EvalFunc):
    """1 if the session contains at least one matching event, else 0.

    "A common variant ... returns the number of user sessions that contain
    at least one instance of a particular client event. These analyses are
    useful for understanding what fraction of users take advantage of a
    particular feature."
    """

    def __init__(self, pattern: str, dictionary: EventDictionary) -> None:
        self.pattern = pattern
        self._regex = re.compile(dictionary.symbol_class(pattern))

    def exec(self, record: Any) -> int:  # noqa: A003
        """1 if the session contains a matching event, else 0."""
        return 1 if self._regex.search(_sequence_of(record)) else 0


def _sequence_of(record: Any) -> str:
    if isinstance(record, SessionSequenceRecord):
        return record.session_sequence
    if isinstance(record, str):
        return record
    raise TypeError(f"expected SessionSequenceRecord or str, got "
                    f"{type(record).__name__}")


# ---------------------------------------------------------------------------
# Script-shaped entry points, over sequences and (for comparison) raw logs.
# ---------------------------------------------------------------------------

#: Backend names the counting queries accept. Both run the engine's one
#: in-process task loop; the names stay so existing callers keep working.
QUERY_BACKENDS = ("serial", "processes")


def _pig_server(tracker: Optional[JobTracker], backend: str) -> PigServer:
    """The query's Pig server, once ``backend`` names a known backend."""
    if backend not in QUERY_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {QUERY_BACKENDS}")
    return PigServer(tracker)


def _sum_bag(group: dict) -> int:
    """SUM over a grouped relation's bag."""
    return sum(group["bag"])


class _MatchFlag:
    """Row UDF: 1 if the event's name matches the pattern, else 0."""

    #: Projection declaration: a columnar scan materializes only this.
    columns_read = ("event_name",)

    def __init__(self, pattern: str) -> None:
        self.matcher = EventPattern(pattern)

    def __call__(self, event: Any) -> int:
        return 1 if self.matcher.matches(event.event_name) else 0


class _SessionMatchFlag:
    """Row UDF: ((user, session), flag) pair for the sessions variant."""

    #: Projection declaration: the three columns the flag pair needs.
    columns_read = ("event_name", "session_id", "user_id")

    def __init__(self, pattern: str) -> None:
        self.matcher = EventPattern(pattern)

    def __call__(self, event: Any) -> Tuple[Tuple[Any, Any], int]:
        return ((event.user_id, event.session_id),
                1 if self.matcher.matches(event.event_name) else 0)


def _session_has_event(group: dict) -> int:
    """1 if any event of the session's bag matched, else 0."""
    return 1 if any(v for __, v in group["bag"]) else 0


_first_of = operator.itemgetter(0)


def count_events_sequences(warehouse: HDFS, date: Tuple[int, int, int],
                           pattern: str, dictionary: EventDictionary,
                           tracker: Optional[JobTracker] = None,
                           mode: str = "sum",
                           backend: str = "serial",
                           max_workers: Optional[int] = None) -> int:
    """The paper's counting script over the session-sequence store.

    ``mode='sum'`` totals event occurrences; ``mode='sessions'`` is the
    COUNT variant (sessions containing the event).  ``backend`` must
    name one of :data:`QUERY_BACKENDS`; neither it nor ``max_workers``
    changes how the query runs.
    """
    pig = _pig_server(tracker, backend)
    if mode == "sum":
        udf: EvalFunc = CountClientEvents(pattern, dictionary)
    elif mode == "sessions":
        udf = SessionsWithEvent(pattern, dictionary)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    year, month, day = date
    generated = (
        pig.load(SessionSequencesLoader(warehouse, year, month, day))
        .foreach(udf, description="CountClientEvents")
    )
    grouped = generated.group_all()
    count = grouped.foreach(_sum_bag, description="SUM")
    out = count.dump()
    return out[0] if out else 0


def count_events_raw(warehouse: HDFS, date: Tuple[int, int, int],
                     pattern: str,
                     tracker: Optional[JobTracker] = None,
                     mode: str = "sum",
                     backend: str = "serial",
                     max_workers: Optional[int] = None) -> int:
    """The same query over raw client event logs (the §4.1 baseline).

    Project onto the event name early, filter, then (for the sessions
    variant) group by session to dedupe -- the brute-force plan whose
    scans and group-bys session sequences were built to avoid.
    ``backend`` / ``max_workers`` as for :func:`count_events_sequences`.
    """
    pig = _pig_server(tracker, backend)
    year, month, day = date
    raw = pig.load(ClientEventsLoader(warehouse, year, month, day))
    if mode == "sum":
        projected = raw.foreach(_MatchFlag(pattern),
                                description="project_match")
        out = projected.group_all().foreach(_sum_bag,
                                            description="SUM").dump()
        return out[0] if out else 0
    if mode == "sessions":
        flagged = raw.foreach(_SessionMatchFlag(pattern),
                              description="project_session_match")
        per_session = (
            flagged.group_by(_first_of, description="group_session")
            .foreach(_session_has_event, description="session_has_event")
        )
        out = per_session.group_all().foreach(_sum_bag,
                                              description="SUM").dump()
        return out[0] if out else 0
    raise ValueError(f"unknown mode {mode!r}")


def count_events_selective(warehouse: HDFS, date: Tuple[int, int, int],
                           pattern: str,
                           tracker: Optional[JobTracker] = None,
                           backend: str = "serial",
                           max_workers: Optional[int] = None) -> int:
    """Count raw events matching ``pattern`` via Elephant Twin pushdown.

    The §6 "highly-selective query" path: a ``load(...).filter_events``
    plan whose filter carries an index hint, so the executor swaps the
    full day scan for the per-hour index partitions when they exist.
    Without partitions (or with stale ones) the plan degrades to
    scanning exactly the uncovered splits -- the count is identical to
    :func:`count_events_raw` either way. ``backend`` / ``max_workers``
    as for :func:`count_events_sequences`.
    """
    pig = _pig_server(tracker, backend)
    year, month, day = date
    rows = (
        pig.load(ClientEventsLoader(warehouse, year, month, day))
        .filter_events(pattern)
        .dump()
    )
    return len(rows)


def events_for_user(warehouse: HDFS, date: Tuple[int, int, int],
                    user_id: int,
                    tracker: Optional[JobTracker] = None) -> list:
    """One user's client events for a day, via the ``user`` index field.

    The multi-field payoff: the same per-hour partitions that serve event
    -name selections also serve exact-user retrieval, pruning every split
    the user never touched.
    """
    from repro.pig.udf import UserEventsFilter

    pig = PigServer(tracker)
    year, month, day = date
    return (
        pig.load(ClientEventsLoader(warehouse, year, month, day))
        .filter(UserEventsFilter(user_id), description=f"user[{user_id}]")
        .dump()
    )
