"""Pig loaders over warehouse data.

"A custom Pig loader abstracts over details of the physical layout of
session sequences, transparently parsing each field in the tuple and
handling decompression" (§5.2). The same pattern serves the raw client
event logs; Elephant-Bird-derived readers do the record decoding.
"""

from __future__ import annotations

import posixpath
from typing import Any, List, Optional, Sequence

from repro.core.event import CLIENT_EVENTS_CATEGORY, ClientEvent
from repro.core.sequences import SessionSequenceRecord
from repro.hdfs.layout import LogHour, data_files, day_path, sequences_day_path
from repro.hdfs.namenode import HDFS
from repro.mapreduce.inputformats import FileInputFormat, InMemoryInputFormat
from repro.thriftlike.codegen import ThriftFileFormat

_EVENT_FORMAT = ThriftFileFormat(ClientEvent)
_SEQUENCE_FORMAT = ThriftFileFormat(SessionSequenceRecord)


class ClientEventsLoader:
    """LOAD '/logs/client_events/<date>' USING ClientEventsLoader().

    Rows are :class:`ClientEvent` structs. Load a whole day or a list of
    specific hours.
    """

    def __init__(self, warehouse: HDFS, year: int, month: int, day: int,
                 hours: Optional[Sequence[int]] = None,
                 category: str = CLIENT_EVENTS_CATEGORY) -> None:
        self._warehouse = warehouse
        self._category = category
        self._year, self._month, self._day = year, month, day
        self._hours = list(hours) if hours is not None else None
        self._paths: Optional[List[str]] = None

    def paths(self) -> List[str]:
        """The warehouse data files this loader covers (index partitions
        beside the data are never rows).

        Listed once per loader: a loader lives for one query, so its
        index, segment and raw-file views all plan from one snapshot.
        """
        if self._paths is None:
            if self._hours is None:
                directories = [day_path(self._category, self._year,
                                        self._month, self._day)]
            else:
                directories = [LogHour(self._category, self._year,
                                       self._month, self._day, hour).path()
                               for hour in self._hours]
            self._paths = [path for directory in directories
                           for path in data_files(self._warehouse, directory)]
        return list(self._paths)

    def hour_dirs(self) -> List[str]:
        """The hour directories holding the covered data files, sorted."""
        return sorted({posixpath.dirname(path) for path in self.paths()})

    def input_format(self) -> FileInputFormat:
        """Block-per-split input format over the covered files."""
        return FileInputFormat(self._warehouse, self.paths(),
                               _EVENT_FORMAT.decode)

    def indexed_input_format(self, value: str, field: str = "event"
                             ) -> Optional[Any]:
        """Pushdown plan: the covered files filtered through their
        Elephant Twin index partitions.

        Discovers committed per-hour partitions beside the loaded data
        and merges the requested field's postings across them. For the
        ``event`` field ``value`` is an event *pattern* expanded against
        the indexed term universe; other fields match ``value`` exactly.
        Returns None when no partition exists (caller falls back to the
        full scan) -- hours without a partition still flow through the
        returned format as must-scan splits, so pushdown never changes
        query results.
        """
        from repro.elephanttwin.buildjob import WarehouseIndex
        from repro.elephanttwin.inputformat import IndexedInputFormat

        warehouse_index = WarehouseIndex.discover(self._warehouse,
                                                  self.hour_dirs())
        if not warehouse_index:
            return None
        index = warehouse_index.field(field)
        if field == "event":
            from repro.core.names import EventPattern

            matcher = EventPattern(value)
            terms = [t for t in index.terms() if matcher.matches(t)]
        else:
            terms = [value]
        return IndexedInputFormat(self.input_format(), index, terms,
                                  field=field)

    def columnar_input_format(self, base: Optional[Any] = None,
                              projection: Optional[Sequence[str]] = None,
                              predicates: Sequence[Any] = ()
                              ) -> Optional[Any]:
        """Vectorized plan: the covered files served from their per-hour
        columnar segments where committed ones exist.

        ``base`` is the split source being wrapped (defaults to the full
        scan; the executor passes its index-pushdown format here so
        Elephant Twin prunes splits before zone maps prune blocks).
        Returns None when no hour has a committed segment -- the caller
        keeps its raw plan, and hours with stale or missing segments
        inside a returned format still scan raw splits unchanged.
        """
        from repro.mapreduce.inputformats import ColumnarInputFormat
        from repro.warehouse.segment import ColumnarSegment

        if not any(ColumnarSegment.load(self._warehouse, d) is not None
                   for d in self.hour_dirs()):
            return None
        return ColumnarInputFormat(self._warehouse,
                                   base or self.input_format(),
                                   projection=projection,
                                   predicates=predicates)


class SessionSequencesLoader:
    """LOAD '/session_sequences/$DATE' USING SessionSequencesLoader().

    Rows are :class:`SessionSequenceRecord` structs: user_id, session_id,
    ip, session_sequence (unicode string), duration.
    """

    def __init__(self, warehouse: HDFS, year: int, month: int,
                 day: int) -> None:
        self._warehouse = warehouse
        self._year, self._month, self._day = year, month, day

    def paths(self) -> List[str]:
        """The day's session-sequence part files (index partitions
        excluded)."""
        directory = sequences_day_path(self._year, self._month, self._day)
        return data_files(self._warehouse, directory)

    def input_format(self) -> FileInputFormat:
        """Block-per-split input format over the sequence store."""
        return FileInputFormat(self._warehouse, self.paths(),
                               _SEQUENCE_FORMAT.decode)


class FramedMessagesLoader:
    """Loader over raw framed message files (bytes rows)."""

    def __init__(self, fs: HDFS, directory: str) -> None:
        from repro.scribe.aggregator import decode_messages

        self._fs = fs
        self._directory = directory
        self._decode = decode_messages

    def input_format(self) -> FileInputFormat:
        """Input format yielding raw framed message bytes."""
        return FileInputFormat.over_directory(self._fs, self._directory,
                                              self._decode)


class InMemoryLoader:
    """Loader over in-memory rows (tests, small tables like `users`)."""

    def __init__(self, rows: Sequence[Any],
                 records_per_split: int = 10_000) -> None:
        self._rows = list(rows)
        self._per_split = records_per_split

    def input_format(self) -> InMemoryInputFormat:
        """Input format over the in-memory rows."""
        return InMemoryInputFormat(self._rows, self._per_split)
