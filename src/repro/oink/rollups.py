"""Automatic rollup aggregations over client events (§3.2).

"Oink jobs automatically aggregate counts of events according to the
following schemas:

    (client, page, section, component, element, action)
    (client, page, section, component, *, action)
    (client, page, section, *, *, action)
    (client, page, *, *, *, action)
    (client, *, *, *, *, action)

These counts are presented as top-level metrics in our internal dashboard,
further broken down by country and logged in/logged out status. Thus,
without any additional intervention from the application developer,
rudimentary statistics are computed and made available on a daily basis."

Materialized days commit atomically: all five ``level-*.json`` files are
written into a ``<day>.tmp`` sibling directory and slid into place by
:func:`repro.hdfs.publish.atomic_publish` -- the same primitive as
``_index``/``_columnar`` -- so a reader never observes a day mixing old
and new levels. The continuously updated variant of this job lives in
:mod:`repro.oink.incremental`; both paths share
:func:`materialize_rollups`, so their on-disk artifacts are
byte-identical for identical tables.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.event import CLIENT_EVENTS_CATEGORY
from repro.core.names import EventName
from repro.faults.injector import crash_point
from repro.hdfs.namenode import HDFS
from repro.hdfs.publish import atomic_publish
from repro.mapreduce.jobtracker import JobTracker
from repro.pig.loaders import ClientEventsLoader
from repro.pig.relation import PigServer

#: The five schemas, by how many leading components are kept (action is
#: always kept).
ROLLUP_LEVELS = (5, 4, 3, 2, 1)

RollupKey = Tuple[Tuple[str, ...], str, str]  # (name key, country, status)

ROLLUPS_ROOT = "/rollups"


class MissingRollupError(Exception):
    """A requested day has no (or only a partial) materialized rollup.

    Raised by :func:`load_rollups` instead of surfacing an opaque HDFS
    path error, so dashboards can render "no data" rather than crash.
    """

    def __init__(self, date: Tuple[int, int, int], detail: str) -> None:
        year, month, day = date
        super().__init__(
            f"no materialized rollups for {year:04d}-{month:02d}-{day:02d}"
            f": {detail}")
        self.date = date
        self.detail = detail


def rollup_day_dir(year: int, month: int, day: int,
                   root: str = ROLLUPS_ROOT) -> str:
    """The directory holding one day's ``level-*.json`` tables."""
    return f"{root}/{year:04d}/{month:02d}/{day:02d}"


@dataclass
class RollupResult:
    """One day's rollup tables, one Counter per schema level."""

    date: Tuple[int, int, int]
    tables: Dict[int, Counter]
    #: Lazily-built exact-lookup index: level -> name key -> breakdown
    #: rows. Rebuilt whenever a table's entry count changes, so callers
    #: that add or remove keys need no explicit invalidation; callers
    #: that *only mutate counts in place* must call
    #: :meth:`invalidate_index`.
    _index: Dict[int, Dict[Tuple[str, ...], List[Tuple[str, str, int]]]] = \
        field(default_factory=dict, repr=False, compare=False)
    _index_sizes: Dict[int, int] = field(default_factory=dict, repr=False,
                                         compare=False)

    def invalidate_index(self) -> None:
        """Drop the exact-lookup index (after in-place table mutation)."""
        self._index.clear()
        self._index_sizes.clear()

    def _level_index(
            self, level: int
    ) -> Dict[Tuple[str, ...], List[Tuple[str, str, int]]]:
        table = self.tables[level]
        if (level not in self._index
                or self._index_sizes.get(level) != len(table)):
            index: Dict[Tuple[str, ...],
                        List[Tuple[str, str, int]]] = {}
            for (name_key, country, status), count in table.items():
                index.setdefault(name_key, []).append(
                    (country, status, count))
            self._index[level] = index
            self._index_sizes[level] = len(table)
        return self._index[level]

    def count(self, level: int, key: Tuple[str, ...],
              country: str = "*", status: str = "*") -> int:
        """Count for one rollup key; '*' sums over a breakdown dimension.

        Exact lookups go through a per-level index keyed by the name
        key, so one call costs O(breakdowns of that key) instead of a
        linear scan of the whole table (dashboard panels issue many of
        these per render).
        """
        total = 0
        for entry_country, entry_status, count in \
                self._level_index(level).get(tuple(key), ()):
            if country != "*" and entry_country != country:
                continue
            if status != "*" and entry_status != status:
                continue
            total += count
        return total

    def top(self, level: int, n: int = 10) -> List[Tuple[RollupKey, int]]:
        """Most frequent rollup keys at one level."""
        return self.tables[level].most_common(n)


def rollup_keys(event_name: str) -> List[Tuple[int, Tuple[str, ...]]]:
    """All five rollup keys of one event name."""
    parsed = EventName.parse(event_name)
    return [(level, parsed.rollup(level)) for level in ROLLUP_LEVELS]


def rollup_tables(events) -> Dict[int, Counter]:
    """Fold an event iterable into the five per-level tables.

    The in-process equivalent of :meth:`RollupJob.run`'s fan-out +
    group-by; the incremental path uses it to compute one sealed hour's
    contribution.
    """
    tables: Dict[int, Counter] = {level: Counter()
                                  for level in ROLLUP_LEVELS}
    for event in events:
        country = event.country or "unknown"
        status = "logged_in" if event.logged_in else "logged_out"
        for level, key in rollup_keys(event.event_name):
            tables[level][(key, country, status)] += 1
    return tables


def materialize_rollups(warehouse: HDFS, result: RollupResult,
                        root: str = ROLLUPS_ROOT) -> str:
    """Write one day's tables to HDFS, committing the day atomically.

    All five ``level-*.json`` files land in a ``<day>.tmp`` sibling
    directory first; the commit is the directory rename. A crash before
    the rename leaves the previous materialization (if any) intact; the
    window between delete and rename leaves the day *missing* -- never
    mixed -- which :func:`load_rollups` reports as
    :class:`MissingRollupError` and the next materialization repairs.
    Returns the committed directory path.
    """
    directory = rollup_day_dir(*result.date, root=root)

    def write_levels(tmp: str) -> None:
        crash_point("oink.rollups.pre_levels")
        for level, table in result.tables.items():
            payload = [
                {"key": list(name_key), "country": country,
                 "status": status, "count": count}
                for (name_key, country, status), count in
                sorted(table.items())
            ]
            warehouse.create(
                f"{tmp}/level-{level}.json",
                json.dumps(payload).encode("utf-8"),
                codec="zlib", overwrite=True,
            )

    atomic_publish(warehouse, f"{directory}.tmp", directory, write_levels,
                   pre_delete="oink.rollups.pre_commit",
                   pre_rename="oink.rollups.pre_rename")
    return directory


def load_rollups(warehouse: HDFS, year: int, month: int, day: int,
                 root: str = ROLLUPS_ROOT) -> RollupResult:
    """Read back a materialized day of rollups.

    Raises :class:`MissingRollupError` when the day was never
    materialized or (pre-atomic-commit debris) only some levels exist.
    """
    directory = rollup_day_dir(year, month, day, root=root)
    date = (year, month, day)
    if not warehouse.is_dir(directory):
        raise MissingRollupError(date, "day directory does not exist")
    tables: Dict[int, Counter] = {}
    for level in ROLLUP_LEVELS:
        path = f"{directory}/level-{level}.json"
        if not warehouse.exists(path):
            raise MissingRollupError(
                date, f"partially materialized: level-{level}.json "
                      f"is missing")
        payload = json.loads(warehouse.open_bytes(path))
        table: Counter = Counter()
        for item in payload:
            key = (tuple(item["key"]), item["country"], item["status"])
            table[key] = item["count"]
        tables[level] = table
    return RollupResult(date=date, tables=tables)


class RollupJob:
    """The daily aggregation job Oink triggers after the log mover."""

    def __init__(self, warehouse: HDFS,
                 tracker: Optional[JobTracker] = None,
                 category: str = CLIENT_EVENTS_CATEGORY,
                 root: str = ROLLUPS_ROOT) -> None:
        self._warehouse = warehouse
        self._pig = PigServer(tracker)
        self._category = category
        self._root = root

    @property
    def category(self) -> str:
        """The log category the job aggregates."""
        return self._category

    @property
    def root(self) -> str:
        """The warehouse root the job materializes under."""
        return self._root

    def run(self, year: int, month: int, day: int,
            materialize: bool = True) -> RollupResult:
        """Aggregate one day of client events into the five tables.

        One pass over the logs: the mapper fans each event out to its
        five rollup keys; the group-by does the counting.
        """
        loader = ClientEventsLoader(self._warehouse, year, month, day,
                                    category=self._category)

        def fan_out(event) -> List[Tuple[int, RollupKey]]:
            country = event.country or "unknown"
            status = "logged_in" if event.logged_in else "logged_out"
            return [(level, (key, country, status))
                    for level, key in rollup_keys(event.event_name)]

        counted = (
            self._pig.load(loader)
            .flatten(fan_out, description="rollup_fanout")
            .group_by(lambda pair: pair, description="rollup_group")
            .foreach(lambda g: (g["group"], len(g["bag"])),
                     description="rollup_count")
        )
        tables: Dict[int, Counter] = {level: Counter()
                                      for level in ROLLUP_LEVELS}
        for (level, key), count in counted.dump():
            tables[level][key] += count

        result = RollupResult(date=(year, month, day), tables=tables)
        if materialize:
            materialize_rollups(self._warehouse, result, root=self._root)
        return result

    @staticmethod
    def load(warehouse: HDFS, year: int, month: int,
             day: int, root: str = ROLLUPS_ROOT) -> RollupResult:
        """Read back a materialized day of rollups.

        Raises :class:`MissingRollupError` for a missing or partially
        materialized day.
        """
        return load_rollups(warehouse, year, month, day, root=root)
