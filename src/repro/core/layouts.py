"""Alternative physical layouts considered and rejected in §4.2.

"We had originally considered an alternative design where we simply
reorganized (i.e., rewrote) the complete Thrift messages by
reconstructing user sessions. This would have solved the second issue
(large group-by operations) but would have little impact on the first
(too many brute force scans). To mitigate that issue, we could adopt a
columnar storage format such as RCFile. However ... without
modification, RCFiles would not reduce the number of mappers that are
spawned for large analytics jobs."

Both designs are implemented here so the ablation benchmark (E11) can
measure exactly the trade-offs the paper describes:

- :class:`SessionReorganizedLayout` -- full Thrift events rewritten
  session-contiguously: kills the group-by, keeps the scan volume.
- :class:`ColumnarLayout` -- an RCFile-like projection: map tasks read
  only the (user_id, session_id, event_name) columns, but one map task
  is still spawned per *raw* block, because the columnar file shares the
  raw data's block structure.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.event import CLIENT_EVENTS_CATEGORY, ClientEvent
from repro.core.sessionizer import Session, Sessionizer
from repro.hdfs.layout import data_files, day_path
from repro.hdfs.namenode import HDFS
from repro.mapreduce.inputformats import (
    FileInputFormat,
    InputSplit,
    split_record_range,
)
from repro.thriftlike.codegen import ThriftFileFormat, frame, iter_frames

_EVENT_FORMAT = ThriftFileFormat(ClientEvent)

REORGANIZED_ROOT = "/reorganized_events"
COLUMNAR_ROOT = "/columnar_events"


# ---------------------------------------------------------------------------
# Design (a): rewrite complete Thrift messages session-contiguously.
# ---------------------------------------------------------------------------


class SessionReorganizedLayout:
    """Full client events rewritten with sessions contiguous.

    Each stored record is one session: a frame containing the session's
    events as nested frames. Queries over sessions become map-only, but
    every byte of every Thrift message is still on the scan path.
    """

    def __init__(self, warehouse: HDFS, root: str = REORGANIZED_ROOT,
                 sessions_per_file: int = 500,
                 codec: str = "zlib") -> None:
        self._warehouse = warehouse
        self._root = root
        self._per_file = sessions_per_file
        self._codec = codec

    def day_dir(self, year: int, month: int, day: int) -> str:
        """Directory holding one day's reorganized files."""
        return f"{self._root}/{year:04d}/{month:02d}/{day:02d}"

    def materialize(self, sessions: Sequence[Session], year: int,
                    month: int, day: int) -> str:
        """Rewrite the given sessions session-contiguously for one day."""
        directory = self.day_dir(year, month, day)
        if self._warehouse.exists(directory):
            self._warehouse.delete(directory, recursive=True)
        self._warehouse.mkdirs(directory)
        for i in range(0, max(len(sessions), 1), self._per_file):
            chunk = sessions[i:i + self._per_file]
            if not chunk and i > 0:
                break
            buf = io.BytesIO()
            for session in chunk:
                payload = b"".join(frame(e.to_bytes())
                                   for e in session.events)
                buf.write(frame(payload))
            path = f"{directory}/part-{i // self._per_file:05d}"
            self._warehouse.create(path, buf.getvalue(), codec=self._codec)
        return directory

    @staticmethod
    def decode(data: bytes) -> List[List[ClientEvent]]:
        """One record per session: the session's full event list."""
        sessions = []
        for session_payload in iter_frames(data):
            events = [ClientEvent.from_bytes(p)
                      for p in iter_frames(session_payload)]
            sessions.append(events)
        return sessions

    def input_format(self, year: int, month: int,
                     day: int) -> FileInputFormat:
        """Input format over the day's reorganized files."""
        return FileInputFormat.over_directory(
            self._warehouse, self.day_dir(year, month, day), self.decode)


# ---------------------------------------------------------------------------
# Design (b): RCFile-like columnar projection.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRow:
    """The projected columns a name-only query touches."""

    user_id: int
    session_id: str
    event_name: str


class ColumnarLayout:
    """RCFile-style column groups over the raw per-hour files.

    The column data (user_id, session_id, event_name) is stored per raw
    file, but split planning mirrors the *raw* file's blocks: RCFile
    reduces bytes read per map task, not the number of map tasks (§4.2).
    """

    def __init__(self, warehouse: HDFS, root: str = COLUMNAR_ROOT,
                 category: str = CLIENT_EVENTS_CATEGORY,
                 codec: str = "zlib") -> None:
        self._warehouse = warehouse
        self._root = root
        self._category = category
        self._codec = codec

    def day_dir(self, year: int, month: int, day: int) -> str:
        """Directory holding one day's column files."""
        return f"{self._root}/{year:04d}/{month:02d}/{day:02d}"

    def materialize(self, year: int, month: int, day: int) -> str:
        """Project every raw file of the day into a sibling column file."""
        raw_dir = day_path(self._category, year, month, day)
        out_dir = self.day_dir(year, month, day)
        if self._warehouse.exists(out_dir):
            self._warehouse.delete(out_dir, recursive=True)
        self._warehouse.mkdirs(out_dir)
        for i, path in enumerate(data_files(self._warehouse, raw_dir)):
            events = _EVENT_FORMAT.decode(self._warehouse.open_bytes(path))
            rows = [[e.user_id, e.session_id, e.event_name] for e in events]
            payload = json.dumps(rows).encode("utf-8")
            raw_blocks = self._warehouse.status(path).block_count
            self._warehouse.create(
                f"{out_dir}/col-{i:05d}.b{raw_blocks:04d}", payload,
                codec=self._codec)
        return out_dir

    def input_format(self, year: int, month: int, day: int) -> "ColumnarInputFormat":
        """Raw-block-shaped input format over the day's columns."""
        return ColumnarInputFormat(self._warehouse,
                                   self.day_dir(year, month, day))


class ColumnarInputFormat:
    """Input format with raw-block split counts but column-only bytes."""

    def __init__(self, warehouse: HDFS, directory: str) -> None:
        self._warehouse = warehouse
        self._paths = warehouse.glob_files(directory)
        self._cache: dict = {}

    def _rows_of(self, path: str) -> List[ColumnRow]:
        if path not in self._cache:
            payload = json.loads(self._warehouse.open_bytes(path))
            self._cache[path] = [ColumnRow(int(u), s, n)
                                 for u, s, n in payload]
        return self._cache[path]

    def splits(self) -> List[InputSplit]:
        """One split per *raw* block (RCFile's defining limitation)."""
        out: List[InputSplit] = []
        for path in self._paths:
            # raw block count was recorded in the filename at projection
            raw_blocks = int(path.rsplit(".b", 1)[1])
            column_bytes = self._warehouse.stored_bytes(path)
            out.extend(InputSplit(path, i, raw_blocks, column_bytes)
                       for i in range(raw_blocks))
        return out

    def read_split(self, split: InputSplit) -> List[ColumnRow]:
        """The projected rows of one split."""
        rows = self._rows_of(split.path)
        start, end = split_record_range(len(rows), split.of, split.index)
        return rows[start:end]


def reorganize_day(warehouse: HDFS, year: int, month: int,
                   day: int) -> Tuple[SessionReorganizedLayout, str]:
    """Build the session-reorganized layout for one warehouse day."""
    from repro.core.builder import SessionSequenceBuilder

    builder = SessionSequenceBuilder(warehouse)
    events = list(builder.iter_day_events(year, month, day))
    sessions = Sessionizer().sessionize(events)
    layout = SessionReorganizedLayout(warehouse)
    layout.materialize(sessions, year, month, day)
    return layout, layout.day_dir(year, month, day)
