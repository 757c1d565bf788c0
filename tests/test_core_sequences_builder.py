"""Session-sequence record and daily-builder tests (§4.2)."""

import pytest

from repro.clock import MILLIS_PER_MINUTE
from repro.core.builder import (
    SessionSequenceBuilder,
    catalog_day_path,
    write_day_events,
)
from repro.core.dictionary import EventDictionary
from repro.core.event import ClientEvent
from repro.core.sequences import SessionSequenceRecord
from repro.core.sessionizer import Session
from repro.hdfs.namenode import HDFS

NAMES = ["web:home:timeline:stream:tweet:impression",
         "web:home:timeline:stream:tweet:click",
         "iphone:search::results:result:click"]


def _session(names, user_id=1, start=0, step=1000):
    events = [
        ClientEvent.make(name, user_id=user_id, session_id="sid",
                         ip="1.2.3.4", timestamp=start + i * step)
        for i, name in enumerate(names)
    ]
    return Session(user_id=user_id, session_id="sid", events=events)


class TestSessionSequenceRecord:
    def test_from_session_fields(self):
        dictionary = EventDictionary(NAMES)
        session = _session([NAMES[0], NAMES[1], NAMES[0]], start=5000,
                           step=30_000)
        record = SessionSequenceRecord.from_session(session, dictionary)
        assert record.user_id == 1
        assert record.session_id == "sid"
        assert record.ip == "1.2.3.4"
        assert record.num_events == 3
        assert record.duration == 60  # 2 steps of 30 s
        assert record.event_names(dictionary) == [NAMES[0], NAMES[1],
                                                  NAMES[0]]

    def test_relation_schema_matches_paper(self):
        """user_id: long, session_id: string, ip: string,
        session_sequence: string, duration: int."""
        names = [spec.name for spec in SessionSequenceRecord.FIELDS]
        assert names == ["user_id", "session_id", "ip", "session_sequence",
                         "duration"]

    def test_temporal_information_lost_except_duration(self):
        """§4.2: "session sequences do not preserve any temporal
        information about the events (other than relative ordering)"."""
        dictionary = EventDictionary(NAMES)
        fast = _session([NAMES[0], NAMES[1]], step=1000)
        slow = _session([NAMES[0], NAMES[1]], step=1000)
        # same inter-event spacing pattern encodes identically
        rec_fast = SessionSequenceRecord.from_session(fast, dictionary)
        rec_slow = SessionSequenceRecord.from_session(slow, dictionary)
        assert rec_fast.session_sequence == rec_slow.session_sequence

    def test_client_helper(self):
        dictionary = EventDictionary(NAMES)
        record = SessionSequenceRecord.from_session(_session([NAMES[2]]),
                                                    dictionary)
        assert record.client(dictionary) == "iphone"

    def test_client_of_empty_sequence(self):
        dictionary = EventDictionary(NAMES)
        record = SessionSequenceRecord(user_id=1, session_id="s", ip="i",
                                       session_sequence="", duration=0)
        assert record.client(dictionary) is None

    def test_thrift_roundtrip(self):
        dictionary = EventDictionary(NAMES)
        record = SessionSequenceRecord.from_session(
            _session([NAMES[0], NAMES[2]]), dictionary)
        assert SessionSequenceRecord.from_bytes(record.to_bytes()) == record

    def test_encoded_bytes(self):
        record = SessionSequenceRecord(user_id=1, session_id="s", ip="i",
                                       session_sequence="ȴ",
                                       duration=0)
        assert record.encoded_bytes == 1 + 2  # U+0001 is 1 byte, U+0234 is 2


class TestBuilder:
    def test_build_artifacts_all_materialized(self, warehouse, date,
                                              build_result):
        assert warehouse.is_file(build_result.histogram_path)
        assert warehouse.is_file(build_result.dictionary_path)
        assert warehouse.glob_files(build_result.sequences_dir)
        assert warehouse.is_file(
            f"{catalog_day_path(*date)}/samples.json")

    def test_event_conservation(self, builder, date, build_result):
        total = sum(r.num_events for r in builder.iter_sequences(*date))
        assert total == build_result.events_scanned

    def test_histogram_matches_events(self, builder, date, build_result):
        histogram = builder.load_histogram(*date)
        assert sum(histogram.values()) == build_result.events_scanned
        assert len(histogram) == build_result.distinct_events

    def test_dictionary_covers_all_events(self, builder, dictionary, date):
        histogram = builder.load_histogram(*date)
        for name in histogram:
            dictionary.code_for(name)  # must not raise

    def test_dictionary_frequency_ordered(self, builder, dictionary, date):
        histogram = builder.load_histogram(*date)
        ordered = list(dictionary)
        counts = [histogram[name] for name in ordered]
        assert counts == sorted(counts, reverse=True)

    def test_samples_limited_per_event(self, builder, date):
        samples = builder.load_samples(*date)
        assert samples
        assert all(1 <= len(v) <= 3 for v in samples.values())

    def test_sequences_decode_to_real_event_names(self, builder, dictionary,
                                                  date):
        for record in list(builder.iter_sequences(*date))[:50]:
            for name in record.event_names(dictionary):
                assert name.count(":") == 5

    def test_compression_factor_tens_of_x(self, build_result):
        """§4.2: "about fifty times smaller than the original logs"."""
        assert build_result.compression_factor > 10

    def test_sessions_respect_gap(self, builder, dictionary, date):
        records = list(builder.iter_sequences(*date))
        assert all(r.duration >= 0 for r in records)
        assert len(records) > 0

    def test_rerun_is_idempotent(self, workload, date):
        fs = HDFS()
        from repro.workload.generator import load_warehouse_day

        load_warehouse_day(fs, workload)
        builder = SessionSequenceBuilder(fs)
        first = builder.run(*date)
        second = builder.run(*date)
        assert first.events_scanned == second.events_scanned
        assert first.sessions_built == second.sessions_built
        records = list(builder.iter_sequences(*date))
        assert len(records) == second.sessions_built

    def test_direct_build_decodes_the_day_once(self, monkeypatch):
        """Both passes share one decode, and ``build_histogram`` still
        returns what the build wrote to the catalog."""
        events = [ClientEvent.make(NAMES[i % 3], user_id=i % 4,
                                   session_id="sid", ip="1.2.3.4",
                                   timestamp=i * MILLIS_PER_MINUTE)
                  for i in range(40)]
        fs = HDFS()
        write_day_events(fs, events, 2012, 1, 1)
        decoded = []
        from_bytes = ClientEvent.from_bytes.__func__
        monkeypatch.setattr(ClientEvent, "from_bytes", classmethod(
            lambda cls, data, *args: decoded.append(data)
            or from_bytes(cls, data, *args)))
        builder = SessionSequenceBuilder(fs)
        result = builder.run(2012, 1, 1)
        assert result.events_scanned == len(decoded) == len(events)
        counts, samples = builder.build_histogram(2012, 1, 1)
        assert counts == builder.load_histogram(2012, 1, 1)
        assert samples == builder.load_samples(2012, 1, 1)


class TestWriteDayEvents:
    def test_buckets_by_hour(self):
        fs = HDFS()
        events = [
            ClientEvent.make(NAMES[0], user_id=1, session_id="s",
                             ip="1.1.1.1", timestamp=h * 3600 * 1000)
            for h in (0, 1, 1, 2)
        ]
        write_day_events(fs, events, 2012, 1, 1)
        assert fs.glob_files("/logs/client_events/2012/01/01/00")
        assert fs.glob_files("/logs/client_events/2012/01/01/01")
        assert fs.glob_files("/logs/client_events/2012/01/01/02")

    def test_split_across_files(self):
        fs = HDFS()
        events = [
            ClientEvent.make(NAMES[0], user_id=1, session_id="s",
                             ip="1.1.1.1", timestamp=i)
            for i in range(10)
        ]
        write_day_events(fs, events, 2012, 1, 1, events_per_file=3)
        files = fs.glob_files("/logs/client_events/2012/01/01/00")
        assert len(files) == 4


class TestMapReduceBuild:
    """The paper's second pass is itself "a large group-by": running the
    build on the MR engine must give identical artifacts to the direct
    path, with the build's own footprint measurable."""

    @pytest.fixture(scope="class")
    def both_builds(self, workload, date):
        from repro.mapreduce.jobtracker import JobTracker
        from repro.workload.generator import load_warehouse_day

        direct_fs, mr_fs = HDFS(), HDFS()
        load_warehouse_day(direct_fs, workload)
        load_warehouse_day(mr_fs, workload)
        direct = SessionSequenceBuilder(direct_fs)
        mr = SessionSequenceBuilder(mr_fs)
        tracker = JobTracker()
        direct_result = direct.run(*date)
        mr_result = mr.run(*date, engine="mapreduce", tracker=tracker)
        return direct, direct_result, mr, mr_result, tracker

    def test_identical_record_sets(self, both_builds, date):
        direct, __, mr, __, __ = both_builds
        direct_records = sorted(r.to_bytes()
                                for r in direct.iter_sequences(*date))
        mr_records = sorted(r.to_bytes() for r in mr.iter_sequences(*date))
        assert direct_records == mr_records

    def test_identical_summary_numbers(self, both_builds):
        __, direct_result, __, mr_result, __ = both_builds
        assert mr_result.events_scanned == direct_result.events_scanned
        assert mr_result.sessions_built == direct_result.sessions_built
        assert mr_result.distinct_events == direct_result.distinct_events

    def test_identical_dictionaries(self, both_builds, date):
        direct, __, mr, __, __ = both_builds
        assert direct.load_dictionary(*date).to_bytes() == \
            mr.load_dictionary(*date).to_bytes()

    def test_build_footprint_measured(self, both_builds):
        """The group-by job shuffles every event -- the §4.1 cost the
        materialization pays once so queries never pay it again."""
        __, __, __, mr_result, tracker = both_builds
        session_job = next(r for r in tracker.runs
                           if r.job_name == "session_sequences")
        assert session_job.shuffle_records == mr_result.events_scanned
        assert session_job.map_tasks > 1

    def test_unknown_engine_rejected(self, warehouse, date):
        with pytest.raises(ValueError):
            SessionSequenceBuilder(warehouse).run(*date, engine="spark")
