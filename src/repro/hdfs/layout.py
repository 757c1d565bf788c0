"""Warehouse directory layout: ``/logs/<category>/YYYY/MM/DD/HH``.

§2: "logs arrive in the main data warehouse and are deposited in
per-category, per-hour directories". These helpers build and parse those
paths so the log mover, Oink jobs, and Pig loaders agree on the scheme.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import List, Optional

#: Calendar origin of the simulation's logical clock (t=0 ms).
EPOCH = datetime(2012, 1, 1)

LOGS_ROOT = "/logs"
STAGING_ROOT = "/staging"
SEQUENCES_ROOT = "/session_sequences"

#: Warehouse area where the log mover preserves staging files that fail
#: a sanity check. Quarantine is an accounted *sink*, not a loss: the
#: original bytes stay recoverable for operators to inspect and replay.
QUARANTINE_ROOT = "/quarantine"

#: Name of the per-directory Elephant Twin index subdirectory. Index
#: partitions live *beside* the data they cover (``.../HH/_index/``), so
#: every scanner of warehouse data must exclude them -- use
#: :func:`data_files` rather than raw ``glob_files`` on data trees.
INDEX_SUBDIR = "_index"

#: Name of the per-hour columnar segment subdirectory. Like ``_index``,
#: segments live *beside* the raw files they were compacted from
#: (``.../HH/_columnar/``), so raw-record scanners must never hand their
#: block files to a Thrift decoder -- :func:`data_files` excludes them.
COLUMNAR_SUBDIR = "_columnar"

_HOUR_RE = re.compile(
    r"^(?P<root>/.+?)/(?P<category>[a-z0-9_\-]+)/"
    r"(?P<year>\d{4})/(?P<month>\d{2})/(?P<day>\d{2})/(?P<hour>\d{2})$"
)


@dataclass(frozen=True, order=True)
class LogHour:
    """One hour of one category's logs: the unit the log mover publishes."""

    category: str
    year: int
    month: int
    day: int
    hour: int

    def __post_init__(self) -> None:
        if not 0 <= self.hour <= 23:
            raise ValueError(f"hour out of range: {self.hour}")
        if not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")
        if not 1 <= self.day <= 31:
            raise ValueError(f"day out of range: {self.day}")

    @property
    def date_str(self) -> str:
        """The date part as ``YYYY/MM/DD``."""
        return f"{self.year:04d}/{self.month:02d}/{self.day:02d}"

    def path(self, root: str = LOGS_ROOT) -> str:
        """Directory path for this hour under ``root``."""
        return f"{root}/{self.category}/{self.date_str}/{self.hour:02d}"


def parse_hour_path(path: str) -> Optional[LogHour]:
    """Parse a per-hour directory path; None if it does not match."""
    match = _HOUR_RE.match(path)
    if match is None:
        return None
    return LogHour(
        category=match.group("category"),
        year=int(match.group("year")),
        month=int(match.group("month")),
        day=int(match.group("day")),
        hour=int(match.group("hour")),
    )


def day_path(category: str, year: int, month: int, day: int,
             root: str = LOGS_ROOT) -> str:
    """Directory holding all 24 hours of one category's day."""
    return f"{root}/{category}/{year:04d}/{month:02d}/{day:02d}"


def hours_of_day(category: str, year: int, month: int,
                 day: int) -> List[LogHour]:
    """The 24 :class:`LogHour` values of one day."""
    return [LogHour(category, year, month, day, hour) for hour in range(24)]


def is_index_path(path: str) -> bool:
    """True if ``path`` lies inside an Elephant Twin ``_index`` directory
    (including the build-time ``_index.tmp`` staging directory)."""
    for part in path.split("/"):
        if part == INDEX_SUBDIR or part == f"{INDEX_SUBDIR}.tmp":
            return True
    return False


def is_columnar_path(path: str) -> bool:
    """True if ``path`` lies inside a columnar ``_columnar`` segment
    directory (including the build-time ``_columnar.tmp`` staging dir)."""
    for part in path.split("/"):
        if part == COLUMNAR_SUBDIR or part == f"{COLUMNAR_SUBDIR}.tmp":
            return True
    return False


def data_files(fs, directory: str) -> List[str]:
    """All *data* files under ``directory``: glob minus index partitions
    and columnar segments.

    This is the scanner every data reader (loaders, the session-sequence
    builder, columnar projections) must use once indexes and segments
    live alongside the data -- a raw ``glob_files`` would hand index
    JSON or column blocks to a Thrift decoder.
    """
    return [p for p in fs.glob_files(directory)
            if not is_index_path(p) and not is_columnar_path(p)]


def hour_dirs_of_day(fs, category: str, year: int, month: int,
                     day: int) -> List[str]:
    """Hour directories of one day that hold raw data files."""
    return sorted({path.rsplit("/", 1)[0] for path in
                   data_files(fs, day_path(category, year, month, day))})


def hour_index_dir(hour_path: str) -> str:
    """The ``_index`` directory of one per-hour data directory."""
    return f"{hour_path}/{INDEX_SUBDIR}"


def hour_columnar_dir(hour_path: str) -> str:
    """The ``_columnar`` segment directory of one per-hour data dir."""
    return f"{hour_path}/{COLUMNAR_SUBDIR}"


def staging_path(datacenter: str, hour: LogHour) -> str:
    """Per-datacenter staging directory for one hour of one category."""
    return hour.path(root=f"{STAGING_ROOT}/{datacenter}")


def quarantine_path(datacenter: str, hour: LogHour, filename: str) -> str:
    """Warehouse path preserving one quarantined staging file.

    Layout: ``/quarantine/<category>/YYYY/MM/DD/HH/<datacenter>-<name>``
    -- per-category per-hour like the data itself, with the source
    datacenter prefixed so colliding part names from different staging
    clusters cannot overwrite each other.
    """
    return f"{hour.path(root=QUARANTINE_ROOT)}/{datacenter}-{filename}"


def sequences_day_path(year: int, month: int, day: int) -> str:
    """Directory of materialized session sequences for one day (§4.2)."""
    return f"{SEQUENCES_ROOT}/{year:04d}/{month:02d}/{day:02d}"


def hour_for_millis(category: str, millis: int) -> LogHour:
    """Map a logical timestamp (ms since :data:`EPOCH`) to its LogHour."""
    when = EPOCH + timedelta(milliseconds=millis)
    return LogHour(category, when.year, when.month, when.day, when.hour)


def millis_for_hour(hour: LogHour) -> int:
    """Logical timestamp (ms since :data:`EPOCH`) of the start of an hour."""
    when = datetime(hour.year, hour.month, hour.day, hour.hour)
    return int((when - EPOCH).total_seconds() * 1000)
