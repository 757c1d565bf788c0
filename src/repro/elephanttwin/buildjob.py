"""The Elephant Twin index build: a real MapReduce job per hour directory.

§6 deploys indexing as "a generic indexing infrastructure ... implemented
as a Hadoop job"; here each warehouse hour directory
(``/logs/<category>/YYYY/MM/DD/HH``) gets its own index *partition* built
by the engine -- map tasks extract ``(field, term)`` pairs per split,
reduce tasks merge postings -- so the ``processes`` backend
parallelizes index construction exactly as it does queries.

A partition is two files under ``.../HH/_index/``:

- ``postings.json`` -- per-field term -> [(path, split)] postings,
- ``manifest.json`` -- the coverage contract: every path the build
  scanned with its ``(stored length, split count)`` fingerprint
  (:mod:`repro.elephanttwin.manifest`).

Builds commit a fully-written ``_index.tmp`` through
:func:`repro.hdfs.publish.atomic_publish`; a crash at any of the
``elephanttwin.build.*`` fault sites leaves either the old partition or
no partition -- never a half-written one -- because readers
only consult the committed ``_index/`` directory. Incremental
maintenance: :func:`build_day_indexes` re-indexes only hours whose
manifest no longer matches the live data files.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.event import CLIENT_EVENTS_CATEGORY, ClientEvent
from repro.elephanttwin.index import (
    BlockIndex,
    SplitKey,
    event_name_terms,
    user_id_terms,
)
from repro.elephanttwin.manifest import (
    MANIFEST_FILE,
    POSTINGS_FILE,
    STATUS_FRESH,
    IndexManifest,
    list_partition_dirs,
    load_manifest,
    partition_status,
    tmp_index_dir,
)
from repro.faults.injector import crash_point
from repro.hdfs.layout import (
    data_files,
    day_path,
    hour_dirs_of_day,
    hour_index_dir,
    parse_hour_path,
)
from repro.hdfs.namenode import HDFS
from repro.hdfs.publish import atomic_publish
from repro.mapreduce.engine import run_job
from repro.mapreduce.inputformats import FileInputFormat
from repro.mapreduce.job import MapReduceJob, TaskContext
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry
from repro.thriftlike.codegen import ThriftFileFormat

_EVENT_FORMAT = ThriftFileFormat(ClientEvent)

#: The warehouse default: multi-field indexing by event name (for
#: CountClientEvents-style selective queries) and by user id (for
#: per-user retrieval). Both extractors are module-level functions, so
#: the build job survives pickling onto the ``processes`` backend.
DEFAULT_EXTRACTORS: Dict[str, Callable[[Any], Iterable[str]]] = {
    "event": event_name_terms,
    "user": user_id_terms,
}


class _SplitTaggedInputFormat:
    """Wraps an input format so each record carries its split key.

    The engine's mapper contract is ``mapper(record, ctx)`` with no split
    identity; postings need one, so records are shipped as
    ``((path, split index), record)`` pairs.
    """

    def __init__(self, base: FileInputFormat) -> None:
        self._base = base

    def splits(self):
        return self._base.splits()

    def read_split(self, split):
        key = (split.path, split.index)
        return [(key, record) for record in self._base.read_split(split)]


class _ExtractTermsMapper:
    """Map side of the build: emit ``((field, term), split key)`` pairs."""

    def __init__(self, extractors: Dict[str, Callable]) -> None:
        self.extractors = dict(extractors)

    def __call__(self, tagged: Tuple[SplitKey, Any],
                 ctx: TaskContext) -> None:
        key, record = tagged
        for name in sorted(self.extractors):
            for term in self.extractors[name](record):
                ctx.emit((name, term), key)


def _dedup_combiner(key: Any, values: List[SplitKey],
                    ctx: TaskContext) -> None:
    """Per-map-task dedup: a term repeats per record, its split does not."""
    for value in sorted(set(values)):
        ctx.emit(key, value)


def _postings_reducer(key: Any, values: List[SplitKey],
                      ctx: TaskContext) -> None:
    """Reduce side: one sorted, unique posting list per (field, term)."""
    ctx.emit(key, sorted(set(values)))


@dataclass
class HourPartition:
    """One committed per-hour index partition, loaded for querying."""

    directory: str
    manifest: IndexManifest
    fields: Dict[str, BlockIndex] = field(default_factory=dict)


@dataclass
class DayIndexBuild:
    """Report of one :func:`build_day_indexes` pass."""

    category: str
    date: Tuple[int, int, int]
    built: List[str] = field(default_factory=list)
    skipped_fresh: List[str] = field(default_factory=list)
    splits_indexed: int = 0
    wall_time_s: float = 0.0

    @property
    def hours_built(self) -> int:
        """Hour partitions (re)built by this pass."""
        return len(self.built)


def build_hour_index(fs: HDFS, directory: str,
                     extractors: Optional[Dict[str, Callable]] = None,
                     tracker: Optional[Any] = None,
                     backend: Optional[str] = None,
                     max_workers: Optional[int] = None,
                     decode: Optional[Callable] = None,
                     built_at_ms: int = 0) -> Optional[HourPartition]:
    """Build (or rebuild) the index partition beside one data directory.

    Runs the extract/merge MapReduce job over the directory's data files,
    then commits ``postings.json`` + ``manifest.json`` atomically via
    ``_index.tmp`` rename. Returns the committed partition, or None when
    the directory holds no data. Build wall time lands in the
    ``elephanttwin_index_build_seconds`` histogram.
    """
    extractors = dict(extractors or DEFAULT_EXTRACTORS)
    paths = data_files(fs, directory)
    if not paths:
        return None
    started = time.perf_counter()
    base = FileInputFormat(fs, paths, decode or _EVENT_FORMAT.decode)
    splits = base.splits()
    result = run_job(
        MapReduceJob(name=f"et_index[{directory}]",
                     input_format=_SplitTaggedInputFormat(base),
                     mapper=_ExtractTermsMapper(extractors),
                     combiner=_dedup_combiner,
                     reducer=_postings_reducer),
        tracker, backend=backend, max_workers=max_workers)

    postings: Dict[str, Dict[str, List[SplitKey]]] = {
        name: {} for name in extractors}
    for (name, term), keys in result.output:
        postings[name][term] = keys
    manifest = IndexManifest(
        files={split.path: split.of for split in splits},
        lengths={split.path: split.file_length for split in splits},
        fields=tuple(sorted(extractors)), built_at_ms=built_at_ms)

    _commit_partition(fs, directory, postings, manifest)
    hour = parse_hour_path(directory)
    get_default_registry().histogram(
        obs_names.ELEPHANTTWIN_INDEX_BUILD_SECONDS,
        category=hour.category if hour else "adhoc",
    ).observe(time.perf_counter() - started)
    return load_hour_partition(fs, directory)


def _commit_partition(fs: HDFS, directory: str,
                      postings: Dict[str, Dict[str, List[SplitKey]]],
                      manifest: IndexManifest) -> None:
    """Write-then-rename commit; crash sites between every step.

    Readers only consult the committed ``_index/`` directory, so a crash
    here leaves either the previous partition (before the swap) or no
    partition (after the old one is dropped) -- both of which the query
    side treats as must-scan coverage, never silent pruning.
    """
    def write_partition(tmp: str) -> None:
        crash_point("elephanttwin.build.pre_postings")
        payload = {
            name: {term: [list(key) for key in keys]
                   for term, keys in sorted(terms.items())}
            for name, terms in postings.items()
        }
        fs.create(f"{tmp}/{POSTINGS_FILE}",
                  json.dumps(payload, sort_keys=True).encode("utf-8"),
                  overwrite=True)
        crash_point("elephanttwin.build.pre_manifest")
        fs.create(f"{tmp}/{MANIFEST_FILE}", manifest.to_bytes(),
                  overwrite=True)

    atomic_publish(fs, tmp_index_dir(directory), hour_index_dir(directory),
                   write_partition,
                   pre_delete="elephanttwin.build.pre_commit",
                   pre_rename="elephanttwin.build.pre_rename")


def load_hour_partition(fs: HDFS, directory: str) -> Optional[HourPartition]:
    """Load the committed partition beside ``directory`` (None if absent).

    A half-written ``_index.tmp`` is never consulted: only the committed
    manifest names a readable partition.
    """
    manifest = load_manifest(fs, directory)
    if manifest is None:
        return None
    raw = json.loads(fs.open_bytes(
        f"{hour_index_dir(directory)}/{POSTINGS_FILE}").decode("utf-8"))
    fields = {
        name: BlockIndex(
            postings={term: {(path, index) for path, index in keys}
                      for term, keys in terms.items()},
            total_splits=manifest.total_splits,
            covered=dict(manifest.files), lengths=dict(manifest.lengths))
        for name, terms in raw.items()
    }
    return HourPartition(directory=directory, manifest=manifest,
                         fields=fields)


class WarehouseIndex:
    """All committed index partitions over a set of warehouse hour dirs.

    The query-side merge point: :meth:`field` unions one field's postings
    and coverage across every discovered partition, yielding a single
    :class:`BlockIndex` the :class:`IndexedInputFormat` can consult.
    Directories without a committed partition simply contribute no
    coverage, so their splits fall back to must-scan.
    """

    def __init__(self, partitions: List[HourPartition]) -> None:
        self.partitions = list(partitions)

    @classmethod
    def discover(cls, fs: HDFS, hour_dirs: Iterable[str]) -> "WarehouseIndex":
        """Load every committed partition among ``hour_dirs``."""
        partitions = []
        for directory in sorted(set(hour_dirs)):
            partition = load_hour_partition(fs, directory)
            if partition is not None:
                partitions.append(partition)
        return cls(partitions)

    def __bool__(self) -> bool:
        return bool(self.partitions)

    def hours(self) -> List[str]:
        """Directories with a committed partition, sorted."""
        return [p.directory for p in self.partitions]

    def field(self, name: str) -> BlockIndex:
        """Merged postings + coverage for one indexed field.

        Partitions that never indexed ``name`` contribute no coverage,
        so their splits are treated as unindexed (must-scan) rather than
        silently pruned.
        """
        postings: Dict[str, set] = {}
        covered: Dict[str, int] = {}
        lengths: Dict[str, int] = {}
        total = 0
        for partition in self.partitions:
            index = partition.fields.get(name)
            if index is None:
                continue
            for term, keys in index.postings.items():
                postings.setdefault(term, set()).update(keys)
            covered.update(partition.manifest.files)
            lengths.update(partition.manifest.lengths)
            total += partition.manifest.total_splits
        return BlockIndex(postings=postings, total_splits=total,
                          covered=covered, lengths=lengths)


def build_day_indexes(fs: HDFS, year: int, month: int, day: int,
                      category: str = CLIENT_EVENTS_CATEGORY,
                      extractors: Optional[Dict[str, Callable]] = None,
                      force: bool = False,
                      tracker: Optional[Any] = None,
                      backend: Optional[str] = None,
                      max_workers: Optional[int] = None,
                      built_at_ms: int = 0) -> DayIndexBuild:
    """Incrementally (re)build the day's per-hour index partitions.

    Hours whose manifest still matches the live data files are skipped
    unless ``force`` -- this is what makes the hourly cadence cheap: one
    new hour landing re-indexes one directory, not the day.
    """
    started = time.perf_counter()
    report = DayIndexBuild(category=category, date=(year, month, day))
    for directory in hour_dirs_of_day(fs, category, year, month, day):
        if not force and partition_status(fs, directory) == STATUS_FRESH:
            report.skipped_fresh.append(directory)
            continue
        partition = build_hour_index(
            fs, directory, extractors=extractors, tracker=tracker,
            backend=backend, max_workers=max_workers,
            built_at_ms=built_at_ms)
        if partition is not None:
            report.built.append(directory)
            report.splits_indexed += partition.manifest.total_splits
    report.wall_time_s = time.perf_counter() - started
    return report


def index_status(fs: HDFS, year: int, month: int, day: int,
                 category: str = CLIENT_EVENTS_CATEGORY,
                 ) -> List[Tuple[str, str]]:
    """Per-hour freshness report: ``(hour directory, status)`` rows.

    Covers both hour directories holding data (``fresh``/``stale``/
    ``missing``) and orphaned partitions whose data is gone (``stale``).
    """
    with_data = hour_dirs_of_day(fs, category, year, month, day)
    day_dir = day_path(category, year, month, day)
    orphans = list_partition_dirs(
        fs, (f"{day_dir}/{hour:02d}" for hour in range(24)))
    return [(directory, partition_status(fs, directory))
            for directory in sorted(set(with_data) | set(orphans))]
