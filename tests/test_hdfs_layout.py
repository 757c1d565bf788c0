"""Layout tests: per-hour paths, parsing, clock <-> calendar mapping."""

import pytest

from repro.clock import MILLIS_PER_HOUR
from repro.hdfs.layout import (
    LogHour,
    day_path,
    hour_for_millis,
    hours_of_day,
    millis_for_hour,
    parse_hour_path,
    sequences_day_path,
    staging_path,
)


class TestLogHour:
    def test_path(self):
        hour = LogHour("client_events", 2012, 3, 7, 9)
        assert hour.path() == "/logs/client_events/2012/03/07/09"

    def test_path_custom_root(self):
        hour = LogHour("web", 2012, 1, 1, 0)
        assert hour.path(root="/staging/dc1") == "/staging/dc1/web/2012/01/01/00"

    def test_validation(self):
        with pytest.raises(ValueError):
            LogHour("c", 2012, 1, 1, 24)
        with pytest.raises(ValueError):
            LogHour("c", 2012, 13, 1, 0)
        with pytest.raises(ValueError):
            LogHour("c", 2012, 1, 32, 0)

    def test_ordering(self):
        a = LogHour("c", 2012, 1, 1, 5)
        b = LogHour("c", 2012, 1, 1, 6)
        assert a < b


class TestParse:
    def test_roundtrip(self):
        hour = LogHour("client_events", 2012, 12, 31, 23)
        assert parse_hour_path(hour.path()) == hour

    def test_staging_roundtrip(self):
        hour = LogHour("web", 2012, 6, 15, 12)
        parsed = parse_hour_path(staging_path("dc1", hour))
        assert parsed == hour

    @pytest.mark.parametrize("bad", [
        "/logs/client_events/2012/03/07",      # no hour
        "/logs/client_events/2012/3/7/9",      # unpadded
        "not a path",
    ])
    def test_non_matching(self, bad):
        assert parse_hour_path(bad) is None


class TestHelpers:
    def test_day_path(self):
        assert day_path("ce", 2012, 3, 7) == "/logs/ce/2012/03/07"

    def test_hours_of_day(self):
        hours = hours_of_day("ce", 2012, 3, 7)
        assert len(hours) == 24
        assert hours[0].hour == 0 and hours[-1].hour == 23

    def test_sequences_day_path(self):
        assert sequences_day_path(2012, 3, 7) == "/session_sequences/2012/03/07"


class TestClockMapping:
    def test_epoch_is_hour_zero(self):
        hour = hour_for_millis("ce", 0)
        assert (hour.year, hour.month, hour.day, hour.hour) == (2012, 1, 1, 0)

    def test_hour_boundaries(self):
        assert hour_for_millis("ce", MILLIS_PER_HOUR - 1).hour == 0
        assert hour_for_millis("ce", MILLIS_PER_HOUR).hour == 1

    def test_roundtrip(self):
        hour = LogHour("ce", 2012, 2, 29, 13)  # 2012 is a leap year
        assert hour_for_millis("ce", millis_for_hour(hour)) == hour

    def test_millis_monotone_in_hours(self):
        a = millis_for_hour(LogHour("ce", 2012, 1, 31, 23))
        b = millis_for_hour(LogHour("ce", 2012, 2, 1, 0))
        assert b - a == MILLIS_PER_HOUR
