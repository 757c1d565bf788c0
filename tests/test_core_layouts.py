"""Tests for the §4.2 alternative physical layouts (ablation baselines)."""

import pytest

from repro.core.layouts import reorganize_day
from repro.core.builder import SessionSequenceBuilder
from repro.core.event import ClientEvent
from repro.core.sessionizer import Sessionizer


class TestSessionReorganizedLayout:
    @pytest.fixture(scope="class")
    def reorganized(self, warehouse, date):
        layout, directory = reorganize_day(warehouse, *date)
        return layout, directory

    def test_sessions_roundtrip(self, reorganized, warehouse, date):
        layout, __ = reorganized
        builder = SessionSequenceBuilder(warehouse)
        truth = Sessionizer().sessionize(
            list(builder.iter_day_events(*date)))
        fmt = layout.input_format(*date)
        recovered = [session for split in fmt.splits()
                     for session in fmt.read_split(split)]
        assert len(recovered) == len(truth)
        assert sum(len(s) for s in recovered) == \
            sum(len(s.events) for s in truth)

    def test_sessions_are_contiguous_events(self, reorganized, date):
        layout, __ = reorganized
        fmt = layout.input_format(*date)
        split = fmt.splits()[0]
        for session_events in fmt.read_split(split)[:20]:
            assert all(isinstance(e, ClientEvent) for e in session_events)
            keys = {(e.user_id, e.session_id) for e in session_events}
            assert len(keys) == 1
            times = [e.timestamp for e in session_events]
            assert times == sorted(times)

    def test_size_comparable_to_raw(self, reorganized, warehouse, date,
                                    build_result):
        """The rewrite keeps full Thrift payloads: storage stays within
        ~2x of the raw logs (vs ~50x smaller for sequences)."""
        __, directory = reorganized
        reorganized_bytes = warehouse.total_stored_bytes(directory)
        assert reorganized_bytes > build_result.raw_bytes * 0.5
        assert reorganized_bytes < build_result.raw_bytes * 2

    def test_rematerialize_is_idempotent(self, warehouse, date):
        layout1, dir1 = reorganize_day(warehouse, *date)
        files_first = warehouse.glob_files(dir1)
        layout2, dir2 = reorganize_day(warehouse, *date)
        assert warehouse.glob_files(dir2) == files_first
