"""Input formats: how files on (simulated) HDFS become map-task splits.

One split is produced per file block, matching the Hadoop behaviour that
makes raw client-event queries "routinely spawn tens of thousands of
mappers" (§4.1): the number of map tasks is proportional to the number of
blocks of input data. Splits of the same file divide its records evenly.

Elephant Twin integrates here: §6 says its indexing framework "integrates
with Hadoop at the level of InputFormats", which is why
:class:`repro.elephanttwin.inputformat.IndexedInputFormat` *wraps* a
:class:`FileInputFormat` (same ``splits()``/``read_split()`` surface, not
a subclass) and transparently drops splits the index proves cannot match
a selection predicate -- while passing splits the index has never seen
through as must-scan work.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.hdfs.namenode import HDFS
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry


@dataclass(frozen=True)
class InputSplit:
    """One map task's slice of the input: split ``index`` of the ``of``
    splits its ``file_length``-byte file had when the plan was made.

    It names no record range: planning reads only namenode metadata,
    and ``read_split`` derives the range from the decoded file with
    :func:`split_record_range`. ``(file_length, of)`` is the file's
    plan-time fingerprint, which index manifests and segments record to
    detect a file rewritten since their build.
    """

    path: str
    index: int
    of: int
    file_length: int

    @property
    def length_bytes(self) -> int:
        """This split's share of the file's stored bytes."""
        per_split = -(-self.file_length // self.of)
        # Trailing blocks can overrun the file when the block count
        # exceeds ceil(length / per_split); clamp to >= 0 so no split
        # ever reports negative scan bytes.
        return max(0, min(per_split,
                          self.file_length - self.index * per_split))


def split_record_range(rows: int, splits: int, index: int) -> Tuple[int, int]:
    """Record range ``[start, end)`` of split ``index`` when ``rows``
    records are divided evenly over ``splits`` splits.

    The one definition of the division: index postings, segment source
    recordings and the legacy columnar layout all mean this range by
    ``(path, split index)``.
    """
    per_split = -(-rows // max(splits, 1))
    start = min(index * per_split, rows)
    return start, min(start + per_split, rows)


class FileInputFormat:
    """Block-per-split input over a set of files.

    ``decode`` turns one file's (decompressed) bytes into a record list;
    the default treats the file as framed opaque messages.
    """

    def __init__(self, fs: HDFS, paths: Sequence[str],
                 decode: Callable[[bytes], List[Any]]) -> None:
        self.fs = fs
        self.paths = list(paths)
        self.decode = decode
        self._cache: dict = {}

    @classmethod
    def over_directory(cls, fs: HDFS, directory: str,
                       decode: Callable[[bytes], List[Any]]) -> "FileInputFormat":
        """All data files under a directory prefix (index files excluded:
        an ``_index/`` partition beside the data is never job input)."""
        from repro.hdfs.layout import data_files

        return cls(fs, data_files(fs, directory), decode)

    # -- planning ----------------------------------------------------------
    def splits(self) -> List[InputSplit]:
        """One split per block of each input file, from namenode
        metadata alone: no data file is opened or decoded here."""
        out: List[InputSplit] = []
        for path in self.paths:
            status = self.fs.status(path)
            blocks = max(status.block_count, 1)
            out.extend(InputSplit(path, i, blocks, status.length)
                       for i in range(blocks))
        return out

    # -- reading ----------------------------------------------------------
    def read_split(self, split: InputSplit) -> List[Any]:
        """The records of one split (decoding the file on first touch),
        divided by the split count the plan saw."""
        records = self._records_of(split.path)
        start, end = split_record_range(len(records), split.of, split.index)
        return records[start:end]

    def _records_of(self, path: str) -> List[Any]:
        if path not in self._cache:
            self._cache[path] = self.decode(self.fs.open_bytes(path))
        return self._cache[path]


@dataclass(frozen=True)
class ColumnarBlockSplit:
    """One map task's slice of a columnar segment: a row range of one
    block. ``length_bytes`` is the split's share of the *projected*
    columns' encoded bytes -- what a vectorized read actually decodes,
    and what the engine's input-bytes counter therefore reports."""

    segment_dir: str
    block: int
    start_row: int
    end_row: int
    length_bytes: int

    @property
    def path(self) -> str:
        """The segment directory, in the common split interface slot."""
        return self.segment_dir

    @property
    def index(self) -> int:
        """The block ordinal, in the common split interface slot."""
        return self.block


def _merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(ranges):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class ColumnarInputFormat:
    """Vectorized scan over columnar segments, raw files as fallback.

    Wraps any base input format over warehouse hour files (a plain
    :class:`FileInputFormat` or an Elephant Twin ``IndexedInputFormat``
    -- composition point: the index prunes whole *splits* first, zone
    maps then prune *blocks* within the survivors). Per hour directory,
    the base's surviving splits are remapped onto the committed segment
    when every surviving raw file is still covered by it (recorded
    length/block-count match the live file); otherwise the hour's
    splits pass through untouched and are scanned row-at-a-time, so
    late-landing or regrown files cost speed, never rows.

    ``projection`` names the columns map functions will read (None =
    all columns, reconstructing full, byte-identical ``ClientEvent``
    records). ``predicates`` are zone-map hints from
    ``repro.warehouse.predicates``: a block is skipped only when a
    predicate *proves* it empty -- surviving rows still flow through
    the query's own filters, keeping answers byte-identical.
    """

    def __init__(self, fs: HDFS, base,
                 projection: Optional[Sequence[str]] = None,
                 predicates: Sequence = ()) -> None:
        self.fs = fs
        self.base = base
        self.projection = (tuple(sorted(set(projection)))
                           if projection is not None else None)
        self.predicates = tuple(predicates)
        #: Blocks zone maps proved empty (reporting; metric-mirrored).
        self.blocks_pruned = 0
        #: Projected bytes of those pruned blocks.
        self.pruned_bytes = 0
        #: Base splits passed through for row-at-a-time scanning.
        self.raw_splits = 0
        #: Block splits served from segments.
        self.columnar_splits = 0
        self._segments: Dict[str, Any] = {}

    def _segment_for(self, hour_dir: str):
        if hour_dir not in self._segments:
            from repro.warehouse.segment import ColumnarSegment

            self._segments[hour_dir] = ColumnarSegment.load(self.fs, hour_dir)
        return self._segments[hour_dir]

    def _block_pruned(self, segment, block: int) -> bool:
        for predicate in self.predicates:
            meta = segment.columns.get(predicate.column)
            if meta is None:
                continue
            zone = segment.zone(predicate.column, block)
            values = segment.column_values(predicate.column)
            if not predicate.block_may_match(zone, values):
                return True
        return False

    # -- planning ----------------------------------------------------------
    def splits(self) -> List[Any]:
        """Base splits remapped to block splits, zone-pruned.

        Per hour directory (in base-split order): every surviving raw
        split becomes a global row range against the segment; ranges
        are merged; blocks overlapping a range survive zone-map tests
        or are pruned (``columnar_blocks_pruned_total``); survivors are
        emitted clipped to the merged ranges, so an Elephant
        Twin-pruned split's rows are never resurrected by whole-block
        reads.
        """
        base_splits = self.base.splits()
        groups: Dict[str, List[InputSplit]] = {}
        for split in base_splits:
            groups.setdefault(posixpath.dirname(split.path), []).append(split)
        out: List[Any] = []
        blocks_pruned = pruned_bytes = raw_count = columnar_count = 0
        for hour_dir, hour_splits in groups.items():
            segment = self._segment_for(hour_dir)
            paths = {split.path for split in hour_splits}
            if segment is None or not all(segment.covers(p) for p in paths):
                out.extend(hour_splits)
                raw_count += len(hour_splits)
                continue
            ranges = []
            for split in hour_splits:
                row_range = segment.split_row_range(split.path, split.index)
                if row_range is not None and row_range[1] > row_range[0]:
                    ranges.append(row_range)
            for block in range(segment.num_blocks):
                block_lo, block_hi = segment.block_range(block)
                overlaps = [(max(lo, block_lo), min(hi, block_hi))
                            for lo, hi in _merge_ranges(ranges)
                            if lo < block_hi and hi > block_lo]
                if not overlaps:
                    continue
                size = segment.block_bytes(block, self.projection)
                if self._block_pruned(segment, block):
                    blocks_pruned += 1
                    pruned_bytes += size
                    continue
                span = max(block_hi - block_lo, 1)
                for lo, hi in overlaps:
                    out.append(ColumnarBlockSplit(
                        segment_dir=segment.directory, block=block,
                        start_row=lo, end_row=hi,
                        length_bytes=max(1, size * (hi - lo) // span)))
                    columnar_count += 1
        self.blocks_pruned = blocks_pruned
        self.pruned_bytes = pruned_bytes
        self.raw_splits = raw_count
        self.columnar_splits = columnar_count
        registry = get_default_registry()
        registry.counter(obs_names.COLUMNAR_BLOCKS_PRUNED).inc(blocks_pruned)
        registry.counter(obs_names.COLUMNAR_BYTES_PRUNED).inc(pruned_bytes)
        return out

    # -- reading ----------------------------------------------------------
    def read_split(self, split) -> List[Any]:
        """Materialize a block split's projected rows (or delegate raw
        splits to the base format)."""
        if isinstance(split, ColumnarBlockSplit):
            segment = self._segment_for(posixpath.dirname(split.segment_dir))
            return segment.materialize(split.block, split.start_row,
                                       split.end_row, self.projection)
        return self.base.read_split(split)


class InMemoryInputFormat:
    """Splits over already-materialized records (for tests and tools)."""

    def __init__(self, records: Sequence[Any],
                 records_per_split: int = 1000) -> None:
        if records_per_split <= 0:
            raise ValueError("records_per_split must be positive")
        self._records = list(records)
        self._per_split = records_per_split

    def splits(self) -> List[InputSplit]:
        """Fixed-size splits over the in-memory records."""
        count = max(-(-len(self._records) // self._per_split), 1)
        return [InputSplit("<memory>", i, count, 0) for i in range(count)]

    def read_split(self, split: InputSplit) -> List[Any]:
        """The records of one split."""
        start = split.index * self._per_split
        return self._records[start:start + self._per_split]
