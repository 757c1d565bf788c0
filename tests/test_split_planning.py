"""Split planning is a metadata pass; decode follows pruning.

Hadoop answers ``getSplits()`` from namenode metadata alone. These tests
pin the same contract here: no ``splits()`` opens or decodes a data
file, a query decodes exactly the raw files whose splits survive index
and segment pruning, and the one record division
(``split_record_range``) means the same rows to ``read_split`` and to a
segment's recording.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytics.counting import count_events_raw, count_events_selective
from repro.core.builder import write_day_events
from repro.core.event import CLIENT_EVENTS_CATEGORY, ClientEvent
from repro.elephanttwin.buildjob import WarehouseIndex, build_day_indexes
from repro.elephanttwin.inputformat import IndexedInputFormat
from repro.hdfs.layout import (
    LogHour,
    data_files,
    is_columnar_path,
    is_index_path,
    millis_for_hour,
)
from repro.hdfs.namenode import HDFS
from repro.mapreduce.inputformats import (
    ColumnarInputFormat,
    FileInputFormat,
    split_record_range,
)
from repro.mapreduce.jobtracker import JobTracker
from repro.pig.loaders import ClientEventsLoader
from repro.thriftlike.codegen import ThriftFileFormat
from repro.warehouse.predicates import EventPatternPredicate
from repro.warehouse.segment import build_day_segments, compact_hour

DATE = (2012, 6, 15)
RARE = "web:signup:step_confirm:form:button:submit"
COMMON = "web:home:timeline:stream:tweet:impression"
RARE_PATTERN = "*:signup:*:*:*:*"
HOURS = (3, 4, 5)

_FMT = ThriftFileFormat(ClientEvent)


class TracingHDFS(HDFS):
    """Records every ``open_bytes`` path; manifests and column files sit
    under ``_index`` / ``_columnar``, everything else is a data file."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.opened = []

    def open_bytes(self, path):
        self.opened.append(path)
        return super().open_bytes(path)

    def data_opens(self):
        return [p for p in self.opened
                if not is_index_path(p) and not is_columnar_path(p)]


class CountingDecode:
    """Event decoder that counts its calls."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, data):
        self.calls += 1
        return _FMT.decode(data)


def _event(name, user, ts):
    return ClientEvent.make(name, user_id=user, session_id=f"s{user}",
                            ip="10.0.0.1", timestamp=ts)


def _hour(h):
    return LogHour(CLIENT_EVENTS_CATEGORY, *DATE, h)


def _world(index=True, segments=True, codec="zlib", block_size=512):
    """Three hours x four files; the only RARE events sit in one file of
    hour 4, so a needle query has almost everything to prune."""
    fs = TracingHDFS(block_size=block_size)
    events = []
    for h in HOURS:
        base = millis_for_hour(_hour(h))
        for i in range(40):
            name = RARE if h == 4 and 20 <= i < 23 else COMMON
            events.append(_event(name, user=i % 5, ts=base + i * 500))
    write_day_events(fs, events, *DATE, events_per_file=10, codec=codec)
    if index:
        build_day_indexes(fs, *DATE)
    if segments:
        build_day_segments(fs, *DATE)
    fs.opened.clear()
    return fs


def _land_late_file(fs, hour=5):
    base = millis_for_hour(_hour(hour))
    path = f"{_hour(hour).path()}/late-00000"
    fs.create(path, _FMT.encode([_event(RARE, user=9, ts=base + i)
                                 for i in range(4)]), codec="zlib")
    return path


class TestPlanningIsMetadataOnly:
    """(a) no ``splits()`` decodes or opens a data file."""

    def test_no_decode_and_no_data_open_at_plan_time(self):
        # Multi-block files, so the per-file split count matters too.
        fs = _world(codec="none", block_size=256)
        decode = CountingDecode()
        paths = data_files(fs, f"/logs/{CLIENT_EVENTS_CATEGORY}")
        hour_dirs = sorted({_hour(h).path() for h in HOURS})
        index = WarehouseIndex.discover(fs, hour_dirs).field("event")

        base = FileInputFormat(fs, paths, decode)
        indexed = IndexedInputFormat(base, index, [RARE])
        columnar = ColumnarInputFormat(
            fs, IndexedInputFormat(base, index, [RARE]),
            projection=("event_name",),
            predicates=(EventPatternPredicate(RARE_PATTERN),))
        fs.opened.clear()

        assert len(base.splits()) > len(paths)
        assert 0 < len(indexed.splits()) < len(base.splits())
        assert columnar.splits()
        assert columnar.columnar_splits > 0 and columnar.raw_splits == 0
        assert decode.calls == 0
        assert fs.data_opens() == []
        assert base._cache == {}

    def test_loader_plans_open_only_manifests(self):
        fs = _world()
        loader = ClientEventsLoader(fs, *DATE)
        indexed = loader.indexed_input_format(RARE_PATTERN)
        composed = loader.columnar_input_format(
            base=indexed, projection=("event_name",))
        assert composed.splits()
        assert fs.opened and fs.data_opens() == []

    def test_loader_lists_the_namespace_once(self):
        fs = _world()
        listings = []
        glob_files = fs.glob_files
        fs.glob_files = lambda d: listings.append(d) or glob_files(d)
        loader = ClientEventsLoader(fs, *DATE)
        indexed = loader.indexed_input_format(RARE_PATTERN)
        loader.columnar_input_format(base=indexed,
                                     projection=("event_name",))
        assert len(listings) == 1


class TestColumnarShape:
    """§4.2: a columnar layout "would not reduce the number of mappers"."""

    def test_segments_keep_the_raw_map_tasks_and_cut_the_bytes(
            self, workload, date):
        """With every raw file one block of ``block_rows`` events, the
        segment scan runs one map task per raw block, reads at most a
        fifth of the raw bytes, still shuffles, and answers the same."""
        runs = []
        for segments in (False, True):
            fs = HDFS()
            write_day_events(fs, workload.events, *date, events_per_file=256)
            if segments:
                build_day_segments(fs, *date, block_rows=256)
            tracker = JobTracker()
            count = count_events_raw(fs, date, "*:query", tracker=tracker,
                                     mode="sessions")
            runs.append((count, tracker.runs[0]))
        (raw_count, raw_scan), (count, scan) = runs
        assert count == raw_count > 0
        assert scan.map_tasks == raw_scan.map_tasks > 1
        assert scan.input_bytes * 5 <= raw_scan.input_bytes
        assert scan.shuffle_records == raw_scan.shuffle_records > 0


class TestDecodeFollowsPruning:
    """(b) a query decodes exactly the raw files it has to."""

    def test_needle_decodes_only_selected_files(self):
        fs = _world(segments=False)
        selected = {split.path for split in ClientEventsLoader(
            fs, *DATE).indexed_input_format(RARE_PATTERN).splits()}
        assert 0 < len(selected) < len(data_files(fs, "/logs"))
        fs.opened.clear()

        assert count_events_selective(fs, DATE, RARE_PATTERN) == 3
        assert sorted(fs.data_opens()) == sorted(selected)

    def test_projected_scan_over_fresh_segments_decodes_no_raw_file(self):
        fs = _world(index=False)
        assert count_events_raw(fs, DATE, RARE_PATTERN) == 3
        assert fs.data_opens() == []

    def test_stale_hour_decodes_exactly_its_own_raw_files(self):
        fs = _world(index=False)
        _land_late_file(fs)
        assert count_events_raw(fs, DATE, RARE_PATTERN) == 3 + 4
        assert sorted(fs.data_opens()) == data_files(fs, _hour(5).path())

    def test_composed_plan_decodes_only_the_late_file(self):
        fs = _world()
        late = _land_late_file(fs)
        assert count_events_selective(fs, DATE, RARE_PATTERN) == 3 + 4
        assert fs.data_opens() == [late]


class TestOneRecordDivision:
    """(c) ``read_split`` and the segment recording divide alike."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(counts=st.lists(st.integers(0, 25), min_size=1, max_size=3),
           block_size=st.integers(16, 2048))
    def test_splits_tile_the_file_and_match_the_segment(self, counts,
                                                        block_size):
        fs = HDFS(block_size=block_size)
        hour_dir = _hour(3).path()
        base = millis_for_hour(_hour(3))
        files = {}
        for n, count in enumerate(counts):
            events = [_event(COMMON, user=n, ts=base + n * 100 + i)
                      for i in range(count)]
            files[f"{hour_dir}/part-{n:05d}"] = events
            fs.create(f"{hour_dir}/part-{n:05d}", _FMT.encode(events))
        fmt = FileInputFormat(fs, sorted(files), _FMT.decode)
        splits = fmt.splits()
        segment = compact_hour(fs, hour_dir)
        everything = [e for path in sorted(files) for e in files[path]]

        for path, events in files.items():
            mine = [s for s in splits if s.path == path]
            assert len(mine) == max(fs.status(path).block_count, 1)
            assert [s.index for s in mine] == list(range(len(mine)))
            assert sum(s.length_bytes for s in mine) == len(fs.open_bytes(path))
            assert [r for s in mine for r in fmt.read_split(s)] == events
            for split in mine:
                lo, hi = split_record_range(len(events), split.of,
                                            split.index)
                assert fmt.read_split(split) == events[lo:hi]
                if segment is not None:
                    glo, ghi = segment.split_row_range(path, split.index)
                    assert everything[glo:ghi] == events[lo:hi]

    def test_division_edges(self):
        assert split_record_range(0, 3, 1) == (0, 0)
        assert split_record_range(2, 5, 1) == (1, 2)
        assert split_record_range(2, 5, 4) == (2, 2)  # more splits than rows
        assert split_record_range(10, 3, 2) == (8, 10)
        assert split_record_range(7, 0, 0) == (0, 7)  # clamped to one split
