"""Event-counting UDF and script tests (§5.2)."""

import multiprocessing.process

import pytest

from repro.analytics.counting import (
    CountClientEvents,
    SessionsWithEvent,
    count_events_raw,
    count_events_selective,
    count_events_sequences,
)
from repro.core.dictionary import EventDictionary
from repro.core.sequences import SessionSequenceRecord
from repro.mapreduce.jobtracker import JobTracker

NAMES = ["web:home:timeline:stream:tweet:impression",
         "web:home:timeline:stream:tweet:click",
         "iphone:home:timeline:stream:tweet:impression"]


@pytest.fixture
def small_dictionary():
    return EventDictionary(NAMES)


def _record(dictionary, names, user_id=1):
    return SessionSequenceRecord(
        user_id=user_id, session_id="s", ip="1.1.1.1",
        session_sequence=dictionary.encode(names), duration=10)


class TestCountClientEvents:
    def test_counts_exact_event(self, small_dictionary):
        udf = CountClientEvents(NAMES[0], small_dictionary)
        record = _record(small_dictionary, [NAMES[0], NAMES[1], NAMES[0]])
        assert udf(record) == 2

    def test_counts_pattern_expansion(self, small_dictionary):
        """The $EVENTS parameter is a pattern expanded via the dictionary."""
        udf = CountClientEvents("*:impression", small_dictionary)
        record = _record(small_dictionary, NAMES)  # two impressions
        assert udf(record) == 2

    def test_zero_when_absent(self, small_dictionary):
        udf = CountClientEvents(NAMES[1], small_dictionary)
        assert udf(_record(small_dictionary, [NAMES[0]])) == 0

    def test_accepts_plain_string(self, small_dictionary):
        udf = CountClientEvents(NAMES[0], small_dictionary)
        assert udf(small_dictionary.encode([NAMES[0]] * 3)) == 3

    def test_rejects_other_types(self, small_dictionary):
        udf = CountClientEvents(NAMES[0], small_dictionary)
        with pytest.raises(TypeError):
            udf(42)


class TestSessionsWithEvent:
    def test_binary_output(self, small_dictionary):
        udf = SessionsWithEvent(NAMES[1], small_dictionary)
        has = _record(small_dictionary, [NAMES[0], NAMES[1]])
        lacks = _record(small_dictionary, [NAMES[0], NAMES[0]])
        assert udf(has) == 1
        assert udf(lacks) == 0


class TestScriptEquivalence:
    """The sequences-based script and the raw-log script must agree --
    session sequences answer the same query faster, not differently."""

    @pytest.mark.parametrize("pattern", [
        "*:profile_click",
        "web:home:*",
        "*:impression",
        "iphone:*",
    ])
    def test_sum_mode_agrees(self, warehouse, date, dictionary, pattern):
        n_seq = count_events_sequences(warehouse, date, pattern, dictionary)
        n_raw = count_events_raw(warehouse, date, pattern)
        assert n_seq == n_raw
        assert n_seq > 0  # the workload exercises all these patterns

    def test_sessions_mode_agrees(self, warehouse, date, dictionary):
        pattern = "*:query"
        n_seq = count_events_sequences(warehouse, date, pattern, dictionary,
                                       mode="sessions")
        n_raw = count_events_raw(warehouse, date, pattern, mode="sessions")
        assert n_seq == n_raw

    def test_sessions_mode_bounded_by_sessions(self, warehouse, date,
                                               dictionary, sequence_records):
        n = count_events_sequences(warehouse, date, "*:impression",
                                   dictionary, mode="sessions")
        assert 0 < n <= len(sequence_records)

    def test_unknown_mode_rejected(self, warehouse, date, dictionary):
        with pytest.raises(ValueError):
            count_events_sequences(warehouse, date, "*:x", dictionary,
                                   mode="bogus")
        with pytest.raises(ValueError):
            count_events_raw(warehouse, date, "*:x", mode="bogus")


class TestEfficiencyShape:
    def test_sequences_need_fewer_mappers_and_bytes(self, warehouse, date,
                                                    dictionary):
        """§4.2: sequences address both the brute-force-scan and group-by
        problems. Mapper count and bytes scanned must both drop."""
        t_seq, t_raw = JobTracker(), JobTracker()
        count_events_sequences(warehouse, date, "*:impression", dictionary,
                               tracker=t_seq)
        count_events_raw(warehouse, date, "*:impression", tracker=t_raw)
        seq_bytes = sum(r.input_bytes for r in t_seq.runs)
        raw_bytes = sum(r.input_bytes for r in t_raw.runs)
        assert t_seq.total_map_tasks() < t_raw.total_map_tasks()
        assert seq_bytes < raw_bytes / 5

    def test_sessions_variant_avoids_group_by_shuffle(self, warehouse, date,
                                                      dictionary):
        t_seq, t_raw = JobTracker(), JobTracker()
        count_events_sequences(warehouse, date, "*:query", dictionary,
                               tracker=t_seq, mode="sessions")
        count_events_raw(warehouse, date, "*:query", tracker=t_raw,
                         mode="sessions")
        seq_shuffle = sum(r.shuffle_records for r in t_seq.runs)
        raw_shuffle = sum(r.shuffle_records for r in t_raw.runs)
        # raw must shuffle every event into the session group-by
        assert raw_shuffle > seq_shuffle


class TestEmptyDay:
    def test_queries_on_missing_day_return_zero(self, warehouse,
                                                dictionary):
        missing = (2011, 12, 25)
        assert count_events_sequences(warehouse, missing,
                                      "*:impression", dictionary) == 0
        assert count_events_raw(warehouse, missing, "*:impression") == 0
        assert count_events_sequences(warehouse, missing, "*:query",
                                      dictionary, mode="sessions") == 0
        assert count_events_raw(warehouse, missing, "*:query",
                                mode="sessions") == 0


class TestDemographicSubsetting:
    """§5.2: "if the data scientist wishes to restrict consideration of
    the user population by various demographics criteria, a join with the
    users table followed by selection with the appropriate criteria would
    ensue." The Pig-join path must agree with the user_filter shortcut."""

    def test_join_with_users_table_matches_filter(self, warehouse, date,
                                                  dictionary,
                                                  sequence_records):
        from repro.analytics.ctr import ctr
        from repro.pig.loaders import InMemoryLoader, SessionSequencesLoader
        from repro.pig.relation import PigServer
        from repro.workload.generator import WorkloadGenerator

        generator = WorkloadGenerator(num_users=200, seed=42)
        users_table = [{"user_id": u.user_id, "country": u.country}
                       for u in generator.population]
        uk_users = {row["user_id"] for row in users_table
                    if row["country"] == "uk"}

        # Path 1: Pig join sequences with the users table, filter UK.
        pig = PigServer()
        sequences = pig.load(SessionSequencesLoader(warehouse, *date))
        users = pig.load(InMemoryLoader(users_table))
        uk_records = (sequences
                      .join(users, lambda r: r.user_id,
                            lambda u: u["user_id"])
                      .filter(lambda row: row["right"]["country"] == "uk")
                      .foreach(lambda row: row["left"])
                      .dump())

        # Path 2: the user_filter shortcut over the same records.
        shortcut = [r for r in sequence_records if r.user_id in uk_users]
        assert sorted(r.to_bytes() for r in uk_records) == \
            sorted(r.to_bytes() for r in shortcut)

        # And the downstream CTR agrees either way.
        joined_ctr = ctr("wtf", "*:user_card:impression",
                         "*:user_card:click", dictionary, uk_records)
        filtered_ctr = ctr("wtf", "*:user_card:impression",
                           "*:user_card:click", dictionary,
                           sequence_records,
                           user_filter=lambda r: r.user_id in uk_users)
        assert joined_ctr.impressions == filtered_ctr.impressions
        assert joined_ctr.actions == filtered_ctr.actions


class TestBackendNames:
    """The counting queries keep accepting ``backend=`` / ``max_workers=``:
    every accepted name runs the engine's one in-process task loop."""

    def test_processes_gives_the_serial_answer_in_process(
            self, warehouse, dictionary, date, monkeypatch):
        pattern = "*:impression"
        queries = (
            lambda **kw: count_events_raw(warehouse, date, pattern, **kw),
            lambda **kw: count_events_selective(warehouse, date, pattern,
                                                **kw),
            lambda **kw: count_events_sequences(warehouse, date, pattern,
                                                dictionary, **kw),
        )
        serial = [query() for query in queries]
        assert all(serial)

        def no_child(process):
            raise AssertionError(f"child process started: {process!r}")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            no_child)
        assert [query(backend="processes", max_workers=2)
                for query in queries] == serial
        for query in queries:
            for name in ("threads", "procesess"):
                with pytest.raises(ValueError, match="unknown backend"):
                    query(backend=name)
