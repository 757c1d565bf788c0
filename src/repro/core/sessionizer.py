"""User session reconstruction (§4.2).

"Sessions are reconstructed from the raw client event logs. This is
accomplished via a group-by on user id and session id; following standard
practices, we use a 30-minute inactivity interval to delimit user
sessions."

Because every client event carries the same user id / session id / ip
fields, "a simple group-by suffices to accurately reconstruct user
sessions (of course, timestamps are still important for ordering events)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.clock import MILLIS_PER_MINUTE
from repro.core.event import ClientEvent

DEFAULT_INACTIVITY_GAP_MS = 30 * MILLIS_PER_MINUTE


@dataclass
class Session:
    """One reconstructed user session: time-ordered client events."""

    user_id: int
    session_id: str
    events: List[ClientEvent]

    @property
    def start(self) -> int:
        """Timestamp of the first event (ms)."""
        return self.events[0].timestamp

    @property
    def end(self) -> int:
        """Timestamp of the last event (ms)."""
        return self.events[-1].timestamp

    @property
    def duration_ms(self) -> int:
        """Interval between the first and last event."""
        return self.end - self.start

    @property
    def duration_seconds(self) -> int:
        """Whole seconds between first and last event."""
        return self.duration_ms // 1000

    @property
    def ip(self) -> str:
        """IP associated with the session (of its first event)."""
        return self.events[0].ip

    @property
    def event_names(self) -> List[str]:
        """The session's event names in time order."""
        return [event.event_name for event in self.events]

    @property
    def client(self) -> str:
        """Client type of the session (from its first event)."""
        return self.events[0].client

    def __len__(self) -> int:
        return len(self.events)


class Sessionizer:
    """Groups client events into sessions with an inactivity cutoff."""

    def __init__(self,
                 inactivity_gap_ms: int = DEFAULT_INACTIVITY_GAP_MS) -> None:
        if inactivity_gap_ms <= 0:
            raise ValueError("inactivity gap must be positive")
        self.inactivity_gap_ms = inactivity_gap_ms

    def sessionize(self, events: Iterable[ClientEvent]) -> List[Session]:
        """Reconstruct sessions from an arbitrarily-ordered event stream.

        The input need not be sorted: logs arrive "in partial
        chronological order" at best (§2), so we sort within each
        (user id, session id) group before splitting on inactivity.
        Output is sorted by (user id, session id, start time).
        """
        groups: Dict[Tuple[int, str], List[ClientEvent]] = {}
        for event in events:
            groups.setdefault((event.user_id, event.session_id), []).append(event)

        sessions: List[Session] = []
        for (user_id, session_id), group in sorted(groups.items()):
            group.sort(key=lambda e: e.timestamp)
            current: List[ClientEvent] = []
            for event in group:
                if current and (event.timestamp - current[-1].timestamp
                                > self.inactivity_gap_ms):
                    sessions.append(Session(user_id, session_id, current))
                    current = []
                current.append(event)
            if current:
                sessions.append(Session(user_id, session_id, current))
        return sessions
