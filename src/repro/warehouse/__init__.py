"""Columnar "mega-table" warehouse segments (ROADMAP item 1).

Landed client-event hours are compacted into per-hour ``_columnar/``
segment directories beside the raw files: one block-structured file per
column, encoded with dictionary / varint-zigzag / delta codings built on
``repro.thriftlike``'s compact-protocol primitives, each block carrying
a min/max + bloom zone map. The MapReduce layer reads them through
``repro.mapreduce.inputformats.ColumnarInputFormat``, which materializes
only projected columns and prunes blocks by pushed predicates before
touching block bytes -- with byte-identical query answers as the
invariant (raw files stay authoritative; segments are a cache).
"""

from repro.warehouse.predicates import (  # noqa: F401
    EqPredicate,
    EventPatternPredicate,
    InPredicate,
    RangePredicate,
)
from repro.warehouse.segment import (  # noqa: F401
    ColumnarSegment,
    build_day_segments,
    compact_hour,
    segment_status,
    write_hour_segment,
)
