"""Elephant Twin tests: index build, pushdown correctness, rebuild (§6).

Every case runs on the per-hour ``_index/`` partitions
(:mod:`repro.elephanttwin.buildjob`), merged for querying by
:class:`WarehouseIndex`. The build writes beside the data, so these
tests index a private copy of the generated day, not the shared
session warehouse.
"""

import pytest

from repro.core.builder import SessionSequenceBuilder
from repro.core.event import CLIENT_EVENTS_CATEGORY
from repro.core.names import EventPattern
from repro.elephanttwin.buildjob import (
    WarehouseIndex,
    build_day_indexes,
    build_hour_index,
    load_hour_partition,
)
from repro.elephanttwin.inputformat import (
    IndexedEventsLoader,
    IndexedInputFormat,
)
from repro.elephanttwin.manifest import MANIFEST_FILE, POSTINGS_FILE
from repro.hdfs.layout import (
    data_files,
    hour_dirs_of_day,
    hour_index_dir,
    sequences_day_path,
)
from repro.hdfs.namenode import HDFS
from repro.mapreduce.jobtracker import JobTracker
from repro.pig.loaders import ClientEventsLoader
from repro.pig.relation import PigServer
from repro.workload.generator import load_warehouse_day


@pytest.fixture(scope="module")
def own_warehouse(workload):
    fs = HDFS()
    load_warehouse_day(fs, workload)
    return fs


@pytest.fixture(scope="module")
def hour_dirs(own_warehouse, date):
    return hour_dirs_of_day(own_warehouse, CLIENT_EVENTS_CATEGORY, *date)


@pytest.fixture(scope="module")
def indexed(own_warehouse, date, hour_dirs):
    build_day_indexes(own_warehouse, *date)
    loader = ClientEventsLoader(own_warehouse, *date)
    index = WarehouseIndex.discover(own_warehouse, hour_dirs).field("event")
    return loader, index


class TestBlockIndex:
    def test_postings_cover_all_events(self, indexed, builder, date):
        __, index = indexed
        histogram = builder.load_histogram(*date)
        assert set(index.terms()) == set(histogram)

    def test_splits_for_unknown_term_empty(self, indexed):
        __, index = indexed
        assert index.splits_for(["web:ghost::::nothing"]) == set()

    def test_splits_for_union(self, indexed):
        __, index = indexed
        terms = index.terms()[:2]
        union = index.splits_for(terms)
        assert union == (index.splits_for([terms[0]])
                         | index.splits_for([terms[1]]))

    def test_persistence_roundtrip(self, own_warehouse, hour_dirs):
        built = build_hour_index(own_warehouse, hour_dirs[0])
        loaded = load_hour_partition(own_warehouse, hour_dirs[0])
        assert loaded.manifest == built.manifest
        for name, index in built.fields.items():
            assert loaded.fields[name].total_splits == index.total_splits
            assert loaded.fields[name].postings == index.postings

    def test_index_resides_alongside_data(self, indexed, own_warehouse,
                                          hour_dirs):
        """Indexes live in their own files beside the data -- rebuilding
        never rewrites the data (the anti-Trojan-layout argument) -- and
        data scanners never see them."""
        for directory in hour_dirs:
            index_dir = hour_index_dir(directory)
            assert own_warehouse.is_file(f"{index_dir}/{POSTINGS_FILE}")
            assert own_warehouse.is_file(f"{index_dir}/{MANIFEST_FILE}")
            assert not any(path.startswith(index_dir)
                           for path in data_files(own_warehouse, directory))

    def test_rebuild_from_scratch(self, indexed, own_warehouse, date,
                                  hour_dirs):
        def data_bytes():
            return {path: own_warehouse.stored_bytes(path)
                    for directory in hour_dirs
                    for path in data_files(own_warehouse, directory)}

        before = data_bytes()
        rebuilt = build_day_indexes(own_warehouse, *date, force=True)
        assert rebuilt.built == hour_dirs
        assert rebuilt.splits_indexed > 0
        # data untouched by reindexing
        assert data_bytes() == before


class TestPushdown:
    @pytest.mark.parametrize("pattern", [
        "*:follow",
        "web:signup:*",
        "*:query",
    ])
    def test_identical_results_fewer_splits(self, indexed, pattern):
        loader, index = indexed
        matcher = EventPattern(pattern)
        t_full, t_indexed = JobTracker(), JobTracker()

        full = (PigServer(t_full).load(loader)
                .filter(lambda e: matcher.matches(e.event_name)).dump())
        iloader = IndexedEventsLoader(loader, index, pattern)
        fast = (PigServer(t_indexed).load(iloader)
                .filter(lambda e: matcher.matches(e.event_name)).dump())

        assert sorted(e.to_bytes() for e in full) == \
            sorted(e.to_bytes() for e in fast)
        assert t_indexed.total_map_tasks() <= t_full.total_map_tasks()

    def test_highly_selective_query_skips_most_splits(self, indexed):
        """§6: Elephant Twin targets 'highly-selective queries'."""
        loader, index = indexed
        iloader = IndexedEventsLoader(loader, index, "*:signup:*:*:*:submit")
        fmt = iloader.input_format()
        selected = fmt.splits()
        assert fmt.skipped_splits > 0
        assert len(selected) + fmt.skipped_splits == index.total_splits

    def test_no_matching_terms_reads_nothing(self, indexed):
        loader, index = indexed
        iloader = IndexedEventsLoader(loader, index, "blackberry:*")
        assert iloader.matched_terms == []
        fmt = iloader.input_format()
        assert fmt.splits() == []
        assert fmt.skipped_splits == index.total_splits

    def test_matched_terms_expansion(self, indexed):
        loader, index = indexed
        iloader = IndexedEventsLoader(loader, index, "*:follow")
        assert iloader.matched_terms
        assert all(t.endswith(":follow") for t in iloader.matched_terms)

    def test_index_never_fabricates_matches(self, indexed):
        """Pruned plan without the exactness filter returns a superset --
        whole splits, never fewer records than the true matches."""
        loader, index = indexed
        pattern = "*:follow"
        matcher = EventPattern(pattern)
        iloader = IndexedEventsLoader(loader, index, pattern)
        unfiltered = PigServer().load(iloader).dump()
        true_matches = [e for e in unfiltered
                        if matcher.matches(e.event_name)]
        exact = (PigServer().load(loader)
                 .filter(lambda e: matcher.matches(e.event_name)).dump())
        assert len(true_matches) == len(exact)
        assert len(unfiltered) >= len(exact)


class TestCustomExtractor:
    def test_index_by_custom_terms(self):
        from repro.core.event import ClientEvent
        from repro.core.builder import write_day_events

        fs = HDFS(block_size=256)
        events = [
            ClientEvent.make("web:home:timeline:stream:tweet:impression",
                             user_id=i % 3, session_id=f"s{i}",
                             ip="1.1.1.1", timestamp=i)
            for i in range(30)
        ]
        write_day_events(fs, events, 2012, 1, 1, events_per_file=10)
        directory, = hour_dirs_of_day(fs, CLIENT_EVENTS_CATEGORY, 2012, 1, 1)
        partition = build_hour_index(
            fs, directory,
            extractors={"by_user": lambda e: (f"user:{e.user_id}",)})
        assert set(partition.fields["by_user"].terms()) == {
            "user:0", "user:1", "user:2"}


class TestIndexingSequences:
    """Elephant Twin is generic (§6: "The infrastructure is general,
    although client event logs represent one of the first applications")
    -- here a partition indexes the session-sequence store by contained
    event, beside the sequence files."""

    @pytest.fixture(scope="class")
    def sequence_index(self, own_warehouse, date):
        from repro.core.sequences import SessionSequenceRecord
        from repro.thriftlike.codegen import ThriftFileFormat

        builder = SessionSequenceBuilder(own_warehouse)
        builder.run(*date)
        dictionary = builder.load_dictionary(*date)
        partition = build_hour_index(
            own_warehouse, sequences_day_path(*date),
            extractors={"event": lambda r: set(r.event_names(dictionary))},
            decode=ThriftFileFormat(SessionSequenceRecord).decode)
        return dictionary, partition.fields["event"]

    def test_index_sequence_store(self, sequence_index):
        __, index = sequence_index
        rare = [t for t in index.terms() if t.endswith(":submit")]
        assert rare
        wanted = index.splits_for(rare[:1])
        assert 0 < len(wanted) <= index.total_splits

    def test_pushdown_over_sequences(self, sequence_index, own_warehouse,
                                     date):
        import re

        from repro.pig.loaders import SessionSequencesLoader

        dictionary, index = sequence_index
        loader = SessionSequencesLoader(own_warehouse, *date)
        pattern = "web:signup:step_confirm:*"
        terms = dictionary.expand_pattern(pattern)
        regex = re.compile(dictionary.symbol_class(pattern))

        full = (PigServer(JobTracker()).load(loader)
                .filter(lambda r: bool(regex.search(r.session_sequence)))
                .dump())
        fmt = IndexedInputFormat(loader.input_format(), index, terms)

        class _Loader:
            def input_format(self):
                return fmt

        fast = (PigServer(JobTracker()).load(_Loader())
                .filter(lambda r: bool(regex.search(r.session_sequence)))
                .dump())
        assert sorted(r.to_bytes() for r in full) == \
            sorted(r.to_bytes() for r in fast)
