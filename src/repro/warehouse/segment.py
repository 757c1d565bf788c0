"""Per-hour columnar segments: write, commit, discover, compact.

A segment is a ``_columnar/`` directory beside one hour's raw files:

    .../HH/_columnar/manifest.json     -- layout, zone maps, sources
    .../HH/_columnar/<column>.col      -- concatenated block payloads

``manifest.json`` records, per column, the block list (rows / offset /
length / encoding / zone map) and optionally the column's complete
sorted distinct values (cardinality permitting -- what lets glob
predicates expand to exact terms); and per *source* raw file the row
count, stored length, and HDFS block count at compaction time. Sources
are the correctness anchor: a reader only trusts the segment for a raw
file whose live length/block-count still match the recording, so data
that lands after compaction is scanned raw (speed lost, rows never).

Commit is write-to-``_columnar.tmp`` then rename through
:func:`repro.hdfs.publish.atomic_publish`, with injectable
``warehouse.segment.*`` crash sites between the steps.
"""

from __future__ import annotations

import json
import posixpath
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.event import CLIENT_EVENTS_CATEGORY, ClientEvent
from repro.faults.injector import crash_point
from repro.hdfs.layout import (
    COLUMNAR_SUBDIR,
    data_files,
    day_path,
    hour_columnar_dir,
    hour_dirs_of_day,
    parse_hour_path,
)
from repro.hdfs.namenode import HDFS
from repro.hdfs.publish import atomic_publish
from repro.mapreduce.inputformats import split_record_range
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry
from repro.thriftlike.codegen import ThriftFileFormat
from repro.warehouse.encodings import decode_block, encode_block
from repro.warehouse.zonemap import ZoneMap

FORMAT_VERSION = 1
MANIFEST_FILE = "manifest.json"
#: Rows per column block (the vectorized batch unit).
DEFAULT_BLOCK_ROWS = 512
#: Record a column's complete distinct-value list only up to this
#: cardinality; beyond it, pattern predicates abstain for the column.
VALUES_CARDINALITY_CAP = 4096
#: Storage codec for column files. Offsets/lengths in the manifest and
#: the ``columnar_bytes_decoded_total`` accounting both refer to the
#: *uncompressed* encoding stream.
COLUMN_FILE_CODEC = "zlib"

#: Segment status values reported by :func:`segment_status`.
STATUS_FRESH = "fresh"
STATUS_STALE = "stale"
STATUS_MISSING = "missing"

_EVENT_FORMAT = ThriftFileFormat(ClientEvent)

#: Column order mirrors the struct's field order.
COLUMN_ORDER: Tuple[str, ...] = tuple(
    spec.name for spec in ClientEvent.FIELDS)

#: Per-column kind, driving encoding choice and value representation.
#: ``json`` columns hold an order-preserving JSON rendering of the map
#: field so reconstruction is byte-identical under ``to_bytes``.
COLUMN_KINDS: Dict[str, str] = {
    "event_initiator": "int",
    "event_name": "str",
    "user_id": "int",
    "session_id": "str",
    "ip": "str",
    "timestamp": "int-delta",
    "event_details": "json",
    "country": "str",
    "logged_in": "bool",
}


def tmp_columnar_dir(hour_dir: str) -> str:
    """Build-time staging directory, renamed into place on commit."""
    return f"{hour_dir}/{COLUMNAR_SUBDIR}.tmp"


def _encode_column(kind: str, values: Sequence) -> Tuple[str, bytes]:
    """Pick an encoding for one block of one column and encode it."""
    if kind in ("int", "int-delta"):
        encoding = "delta" if kind == "int-delta" else "varint"
        return encoding, encode_block(encoding, values)
    if kind == "bool":
        return "bool", encode_block("bool", values)
    present = [v for v in values if v is not None]
    if present and 2 * len(set(present)) <= len(present):
        return "dict", encode_block("dict", values)
    return "plain", encode_block("plain", values)


def _details_to_json(details: Dict[str, str]) -> str:
    # Insertion order preserved: the map round-trips to the exact dict,
    # so reconstructed events serialize byte-identically.
    return json.dumps(details or {}, ensure_ascii=False,
                      separators=(",", ":"))


def _column_array(events: Sequence[ClientEvent], name: str) -> list:
    if COLUMN_KINDS[name] == "json":
        return [_details_to_json(getattr(e, name)) for e in events]
    return [getattr(e, name) for e in events]


@dataclass(frozen=True)
class SourceFile:
    """One raw file a segment was compacted from, as recorded at build."""

    path: str
    rows: int
    length: int
    block_count: int


@dataclass(frozen=True)
class ColumnBlock:
    """One block of one column inside its ``.col`` file."""

    rows: int
    offset: int
    length: int
    encoding: str
    zone: ZoneMap


@dataclass
class ColumnMeta:
    """Manifest entry for one column."""

    kind: str
    file: str
    blocks: List[ColumnBlock] = field(default_factory=list)
    #: Complete sorted distinct non-null values (low cardinality only).
    values: Optional[List] = None


class ColumnarSegment:
    """A committed segment: manifest plus lazily-decoded column blocks.

    Decoded blocks and raw column files are cached on the segment.
    """

    def __init__(self, fs: HDFS, directory: str, manifest: dict) -> None:
        self._fs = fs
        self.directory = directory
        self.rows: int = manifest["rows"]
        self.block_rows: int = manifest["block_rows"]
        self.sources: List[SourceFile] = [
            SourceFile(**src) for src in manifest["sources"]]
        self.columns: Dict[str, ColumnMeta] = {}
        for name, meta in manifest["columns"].items():
            self.columns[name] = ColumnMeta(
                kind=meta["kind"], file=meta["file"],
                blocks=[ColumnBlock(rows=b["rows"], offset=b["offset"],
                                    length=b["length"],
                                    encoding=b["encoding"],
                                    zone=ZoneMap.from_json(b["zone"]))
                        for b in meta["blocks"]],
                values=meta.get("values"))
        self._file_cache: Dict[str, bytes] = {}
        self._block_cache: Dict[Tuple[str, int], list] = {}

    @classmethod
    def load(cls, fs: HDFS, hour_dir: str) -> Optional["ColumnarSegment"]:
        """The committed segment beside ``hour_dir`` (None if absent).

        A half-written ``_columnar.tmp`` is never consulted.
        """
        directory = hour_columnar_dir(hour_dir)
        manifest_path = f"{directory}/{MANIFEST_FILE}"
        if not fs.is_file(manifest_path):
            return None
        manifest = json.loads(fs.open_bytes(manifest_path).decode("utf-8"))
        if manifest.get("version") != FORMAT_VERSION:
            return None
        return cls(fs, directory, manifest)

    # -- geometry --------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Block count: ``ceil(rows / block_rows)``."""
        return -(-self.rows // self.block_rows) if self.rows else 0

    def block_range(self, block: int) -> Tuple[int, int]:
        """Global row range ``[start, end)`` of one block."""
        start = block * self.block_rows
        return start, min(start + self.block_rows, self.rows)

    def source_range(self, path: str) -> Optional[Tuple[int, int]]:
        """Global row range one recorded source file contributed."""
        start = 0
        for source in self.sources:
            if source.path == path:
                return start, start + source.rows
            start += source.rows
        return None

    def source(self, path: str) -> Optional[SourceFile]:
        """The recorded source-file entry for ``path``, if compacted."""
        for src in self.sources:
            if src.path == path:
                return src
        return None

    def covers(self, path: str) -> bool:
        """True when the live file still matches the compacted recording
        -- the precondition for serving its rows from the segment."""
        source = self.source(path)
        if source is None:
            return False
        try:
            status = self._fs.status(path)
        except Exception:
            return False
        return (status.length == source.length
                and status.block_count == source.block_count)

    def split_row_range(self, path: str,
                        split_index: int) -> Optional[Tuple[int, int]]:
        """Global row range of one raw-file input split: the recorded
        rows divided over the recorded block count, exactly as
        ``FileInputFormat.read_split`` divides the live file."""
        source = self.source(path)
        base = self.source_range(path)
        if source is None or base is None:
            return None
        lo, hi = split_record_range(source.rows, source.block_count,
                                    split_index)
        return base[0] + lo, base[0] + hi

    # -- column access ---------------------------------------------------

    def column_values(self, name: str) -> Optional[List]:
        """The column's complete sorted distinct values, if recorded."""
        meta = self.columns.get(name)
        return meta.values if meta is not None else None

    def zone(self, name: str, block: int) -> ZoneMap:
        """One block's zone map for column ``name``."""
        return self.columns[name].blocks[block].zone

    def block_bytes(self, block: int,
                    projection: Optional[Iterable[str]] = None) -> int:
        """Encoded (uncompressed) bytes of one block's projected columns
        -- the unit both pruning and decode accounting are measured in."""
        names = self._projected(projection)
        return sum(self.columns[n].blocks[block].length for n in names)

    def _projected(self, projection: Optional[Iterable[str]]) -> List[str]:
        if projection is None:
            return [n for n in COLUMN_ORDER if n in self.columns]
        wanted = set(projection)
        return [n for n in COLUMN_ORDER if n in self.columns and n in wanted]

    def column_block(self, name: str, block: int) -> list:
        """Decode (with caching) one block of one column.

        Decoded volume lands in ``columnar_bytes_decoded_total`` by
        column -- the metric BENCH_e20 compares against raw-scan volume.
        """
        key = (name, block)
        cached = self._block_cache.get(key)
        if cached is not None:
            return cached
        meta = self.columns[name]
        raw = self._file_cache.get(name)
        if raw is None:
            raw = self._fs.open_bytes(f"{self.directory}/{meta.file}")
            self._file_cache[name] = raw
        info = meta.blocks[block]
        values = decode_block(info.encoding,
                              raw[info.offset:info.offset + info.length])
        get_default_registry().counter(
            obs_names.COLUMNAR_BYTES_DECODED, column=name).inc(info.length)
        self._block_cache[key] = values
        return values

    def materialize(self, block: int, lo: int, hi: int,
                    projection: Optional[Iterable[str]] = None) -> list:
        """Rows ``[lo, hi)`` (global row ids) of one block.

        Full projection reconstructs real :class:`ClientEvent` records
        (byte-identical under ``to_bytes``); a narrower projection
        yields :class:`ProjectedEvent` views carrying only the projected
        columns.
        """
        names = self._projected(projection)
        start, end = self.block_range(block)
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            return []
        columns = {}
        for name in names:
            values = self.column_block(name, block)[lo - start:hi - start]
            if COLUMN_KINDS.get(name) == "json":
                values = [json.loads(v) if v is not None else None
                          for v in values]
            columns[name] = values
        full = len(names) == len(COLUMN_ORDER)
        rows = []
        for i in range(hi - lo):
            if full:
                rows.append(ClientEvent(
                    **{name: columns[name][i] for name in names}))
            else:
                row = ProjectedEvent()
                for name in names:
                    setattr(row, name, columns[name][i])
                rows.append(row)
        return rows


class ProjectedEvent:
    """A client-event row carrying only the projected columns.

    Reading an unprojected column raises ``AttributeError`` -- loudly,
    because a query touching a column its plan did not declare is a
    planning bug, not a data condition.
    """

    __slots__ = COLUMN_ORDER

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in COLUMN_ORDER
                if hasattr(self, name)}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in self.__getstate__().items())
        return f"ProjectedEvent({parts})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectedEvent):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.__getstate__().items(),
                                 key=lambda kv: kv[0])))


# -- writing -------------------------------------------------------------

def write_hour_segment(fs: HDFS, hour_dir: str,
                       events: Sequence[ClientEvent],
                       sources: Sequence[Tuple[str, int]],
                       block_rows: int = DEFAULT_BLOCK_ROWS,
                       built_at_ms: int = 0) -> Optional[ColumnarSegment]:
    """Encode ``events`` into a committed segment beside ``hour_dir``.

    ``sources`` lists ``(raw file path, row count)`` in concatenation
    order; live length/block-count are recorded per file so readers can
    detect post-compaction growth. Commit is atomic via ``_columnar.tmp``
    rename. Returns the committed segment (None for an empty hour).
    """
    if not events:
        return None
    started = time.perf_counter()
    atomic_publish(
        fs, tmp_columnar_dir(hour_dir), hour_columnar_dir(hour_dir),
        lambda tmp: _write_segment_files(fs, tmp, events, sources,
                                         block_rows, built_at_ms),
        pre_delete="warehouse.segment.pre_commit",
        pre_rename="warehouse.segment.pre_rename")

    hour = parse_hour_path(hour_dir)
    category = hour.category if hour else "adhoc"
    registry = get_default_registry()
    registry.histogram(obs_names.COLUMNAR_ENCODE_SECONDS,
                       category=category).observe(
        time.perf_counter() - started)
    registry.counter(obs_names.COLUMNAR_SEGMENTS_BUILT,
                     category=category).inc()
    return ColumnarSegment.load(fs, hour_dir)


def _write_segment_files(fs: HDFS, tmp: str, events: Sequence[ClientEvent],
                         sources: Sequence[Tuple[str, int]],
                         block_rows: int, built_at_ms: int) -> None:
    """Write every ``.col`` file, then the manifest, under ``tmp``."""
    columns_manifest: Dict[str, dict] = {}
    crash_point("warehouse.segment.pre_columns")
    for name in COLUMN_ORDER:
        kind = COLUMN_KINDS[name]
        array = _column_array(events, name)
        payload = bytearray()
        blocks = []
        for lo in range(0, len(array), block_rows):
            chunk = array[lo:lo + block_rows]
            encoding, data = _encode_column(kind, chunk)
            blocks.append({
                "rows": len(chunk),
                "offset": len(payload),
                "length": len(data),
                "encoding": encoding,
                "zone": ZoneMap.build(chunk).to_json(),
            })
            payload.extend(data)
        distinct = {v for v in array if v is not None}
        values = (sorted(distinct)
                  if kind in ("str", "json")
                  and len(distinct) <= VALUES_CARDINALITY_CAP else None)
        columns_manifest[name] = {
            "kind": kind,
            "file": f"{name}.col",
            "blocks": blocks,
            "values": values,
        }
        fs.create(f"{tmp}/{name}.col", bytes(payload),
                  codec=COLUMN_FILE_CODEC, overwrite=True)

    source_meta = []
    for path, rows in sources:
        status = fs.status(path)
        source_meta.append({"path": path, "rows": rows,
                            "length": status.length,
                            "block_count": status.block_count})
    manifest = {
        "version": FORMAT_VERSION,
        "rows": len(events),
        "block_rows": block_rows,
        "built_at_ms": built_at_ms,
        "sources": source_meta,
        "columns": columns_manifest,
    }
    crash_point("warehouse.segment.pre_manifest")
    fs.create(f"{tmp}/{MANIFEST_FILE}",
              json.dumps(manifest, sort_keys=True).encode("utf-8"),
              overwrite=True)


def compact_hour(fs: HDFS, hour_dir: str,
                 block_rows: int = DEFAULT_BLOCK_ROWS,
                 built_at_ms: int = 0) -> Optional[ColumnarSegment]:
    """Decode one hour's raw files and compact them into a segment."""
    paths = data_files(fs, hour_dir)
    if not paths:
        return None
    events: List[ClientEvent] = []
    sources: List[Tuple[str, int]] = []
    for path in paths:
        records = _EVENT_FORMAT.decode(fs.open_bytes(path))
        events.extend(records)
        sources.append((path, len(records)))
    return write_hour_segment(fs, hour_dir, events, sources,
                              block_rows=block_rows,
                              built_at_ms=built_at_ms)


def segment_status(fs: HDFS, hour_dir: str) -> str:
    """``fresh`` / ``stale`` / ``missing`` freshness of one hour's
    segment against the live raw files (same contract as index
    partitions: anything but ``fresh`` means raw files are scanned)."""
    segment = ColumnarSegment.load(fs, hour_dir)
    if segment is None:
        return STATUS_MISSING
    live = data_files(fs, hour_dir)
    if live != [source.path for source in segment.sources]:
        return STATUS_STALE
    if not all(segment.covers(path) for path in live):
        return STATUS_STALE
    return STATUS_FRESH


@dataclass
class DaySegmentBuild:
    """Report of one :func:`build_day_segments` run."""

    category: str
    date: Tuple[int, int, int]
    built: List[str] = field(default_factory=list)
    skipped_fresh: List[str] = field(default_factory=list)
    rows_compacted: int = 0
    wall_time_s: float = 0.0


def build_day_segments(fs: HDFS, year: int, month: int, day: int,
                       category: str = CLIENT_EVENTS_CATEGORY,
                       force: bool = False,
                       block_rows: int = DEFAULT_BLOCK_ROWS,
                       built_at_ms: int = 0) -> DaySegmentBuild:
    """Incrementally compact a day's hours into columnar segments.

    Hours whose segment still matches the live raw files are skipped
    unless ``force`` -- one new hour landing compacts one directory,
    not the day (mirroring the index build's cadence).
    """
    started = time.perf_counter()
    report = DaySegmentBuild(category=category, date=(year, month, day))
    for directory in hour_dirs_of_day(fs, category, year, month, day):
        if not force and segment_status(fs, directory) == STATUS_FRESH:
            report.skipped_fresh.append(directory)
            continue
        segment = compact_hour(fs, directory, block_rows=block_rows,
                               built_at_ms=built_at_ms)
        if segment is not None:
            report.built.append(directory)
            report.rows_compacted += segment.rows
    report.wall_time_s = time.perf_counter() - started
    return report


def day_columnar_input(fs: HDFS, category: str, year: int, month: int,
                       day: int, projection=None, predicates=(),
                       decode=None):
    """A :class:`ColumnarInputFormat` over one day's warehouse files, or
    None when the day holds no data or no hour has a committed segment
    (callers then fall back to their raw input format unchanged)."""
    from repro.mapreduce.inputformats import (
        ColumnarInputFormat,
        FileInputFormat,
    )

    paths = data_files(fs, day_path(category, year, month, day))
    if not paths:
        return None
    hour_dirs = sorted({posixpath.dirname(path) for path in paths})
    if not any(ColumnarSegment.load(fs, d) is not None for d in hour_dirs):
        return None
    base = FileInputFormat(fs, paths, decode or _EVENT_FORMAT.decode)
    return ColumnarInputFormat(fs, base, projection=projection,
                               predicates=predicates)
