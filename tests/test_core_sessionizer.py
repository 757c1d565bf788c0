"""Sessionization tests: group-by semantics, 30-minute gap, ordering."""

import pytest
from hypothesis import given, strategies as st

from repro.clock import MILLIS_PER_MINUTE
from repro.core.event import ClientEvent
from repro.core.sessionizer import (
    DEFAULT_INACTIVITY_GAP_MS,
    Sessionizer,
)

NAME = "web:home:timeline:stream:tweet:impression"


def _event(user_id, session_id, timestamp, name=NAME):
    return ClientEvent.make(name, user_id=user_id, session_id=session_id,
                            ip=f"10.0.0.{user_id % 250}",
                            timestamp=timestamp)


class TestGrouping:
    def test_default_gap_is_30_minutes(self):
        assert DEFAULT_INACTIVITY_GAP_MS == 30 * MILLIS_PER_MINUTE

    def test_groups_by_user_and_session(self):
        events = [_event(1, "a", 0), _event(1, "b", 0), _event(2, "a", 0)]
        sessions = Sessionizer().sessionize(events)
        assert len(sessions) == 3

    def test_same_session_id_same_user_groups_together(self):
        events = [_event(1, "a", 0), _event(1, "a", 1000)]
        sessions = Sessionizer().sessionize(events)
        assert len(sessions) == 1
        assert len(sessions[0].events) == 2

    def test_unsorted_input_is_sorted(self):
        events = [_event(1, "a", 5000), _event(1, "a", 1000),
                  _event(1, "a", 3000)]
        (session,) = Sessionizer().sessionize(events)
        assert [e.timestamp for e in session.events] == [1000, 3000, 5000]

    def test_empty_input(self):
        assert Sessionizer().sessionize([]) == []

    def test_output_ordering(self):
        events = [_event(2, "a", 0), _event(1, "b", 0), _event(1, "a", 0)]
        sessions = Sessionizer().sessionize(events)
        keys = [(s.user_id, s.session_id) for s in sessions]
        assert keys == sorted(keys)


class TestInactivityGap:
    def test_gap_splits_session(self):
        gap = DEFAULT_INACTIVITY_GAP_MS
        events = [_event(1, "a", 0), _event(1, "a", gap + 1)]
        sessions = Sessionizer().sessionize(events)
        assert len(sessions) == 2

    def test_gap_boundary_exactly_30min_stays_together(self):
        gap = DEFAULT_INACTIVITY_GAP_MS
        events = [_event(1, "a", 0), _event(1, "a", gap)]
        sessions = Sessionizer().sessionize(events)
        assert len(sessions) == 1

    def test_custom_gap(self):
        sessionizer = Sessionizer(inactivity_gap_ms=1000)
        events = [_event(1, "a", 0), _event(1, "a", 1500)]
        assert len(sessionizer.sessionize(events)) == 2

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            Sessionizer(inactivity_gap_ms=0)

    def test_multiple_splits(self):
        gap = 1000
        times = [0, 500, 3000, 3500, 9000]
        events = [_event(1, "a", t) for t in times]
        sessions = Sessionizer(gap).sessionize(events)
        assert [len(s.events) for s in sessions] == [2, 2, 1]


class TestSessionProperties:
    def test_duration(self):
        events = [_event(1, "a", 1000), _event(1, "a", 61_000)]
        (session,) = Sessionizer().sessionize(events)
        assert session.duration_ms == 60_000
        assert session.duration_seconds == 60
        assert session.start == 1000
        assert session.end == 61_000

    def test_single_event_session_zero_duration(self):
        (session,) = Sessionizer().sessionize([_event(1, "a", 5)])
        assert session.duration_ms == 0
        assert len(session) == 1

    def test_ip_and_client(self):
        (session,) = Sessionizer().sessionize([_event(7, "a", 0)])
        assert session.ip == "10.0.0.7"
        assert session.client == "web"

    def test_event_names(self):
        other = "web:search::results:result:click"
        events = [_event(1, "a", 0), _event(1, "a", 10, name=other)]
        (session,) = Sessionizer().sessionize(events)
        assert session.event_names == [NAME, other]


class TestPropertyInvariants:
    @given(st.lists(
        st.tuples(st.integers(min_value=1, max_value=5),      # user
                  st.sampled_from(["s1", "s2"]),              # session id
                  st.integers(min_value=0, max_value=10 ** 8)),  # timestamp
        max_size=80))
    def test_conservation_and_ordering(self, specs):
        events = [_event(u, s, t) for u, s, t in specs]
        sessions = Sessionizer().sessionize(events)
        # every event lands in exactly one session
        assert sum(len(s.events) for s in sessions) == len(events)
        for session in sessions:
            times = [e.timestamp for e in session.events]
            assert times == sorted(times)
            # within a session no gap exceeds the cutoff
            for a, b in zip(times, times[1:]):
                assert b - a <= DEFAULT_INACTIVITY_GAP_MS
            # one user, one session id per session
            assert len({e.user_id for e in session.events}) == 1
            assert len({e.session_id for e in session.events}) == 1

    @given(st.lists(st.integers(min_value=0, max_value=10 ** 7),
                    min_size=2, max_size=40))
    def test_sessions_maximal(self, times):
        """Sessions are split exactly at >gap boundaries: consecutive
        sessions of the same (user, id) are separated by more than the
        gap."""
        events = [_event(1, "a", t) for t in times]
        sessions = Sessionizer(inactivity_gap_ms=1000).sessionize(events)
        for a, b in zip(sessions, sessions[1:]):
            assert b.start - a.end > 1000
