"""Alternative physical layouts considered and rejected in §4.2.

"We had originally considered an alternative design where we simply
reorganized (i.e., rewrote) the complete Thrift messages by
reconstructing user sessions. This would have solved the second issue
(large group-by operations) but would have little impact on the first
(too many brute force scans). To mitigate that issue, we could adopt a
columnar storage format such as RCFile. However ... without
modification, RCFiles would not reduce the number of mappers that are
spawned for large analytics jobs."

:class:`SessionReorganizedLayout` implements the first design -- full
Thrift events rewritten session-contiguously: it kills the group-by but
keeps the scan volume. The columnar design needs no layout of its own:
the warehouse's ``_columnar/`` segments (:mod:`repro.warehouse.segment`)
project each query onto the columns it reads while keeping one map task
per *raw* block, which is the trade-off the ablation benchmark (E11)
measures.
"""

from __future__ import annotations

import io
from typing import List, Sequence, Tuple

from repro.core.event import ClientEvent
from repro.core.sessionizer import Session, Sessionizer
from repro.hdfs.namenode import HDFS
from repro.mapreduce.inputformats import FileInputFormat
from repro.thriftlike.codegen import frame, iter_frames

REORGANIZED_ROOT = "/reorganized_events"


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
