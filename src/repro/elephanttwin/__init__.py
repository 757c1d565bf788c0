"""Elephant Twin: InputFormat-level indexing with selection pushdown."""

from repro.elephanttwin.buildjob import (
    DEFAULT_EXTRACTORS,
    DayIndexBuild,
    HourPartition,
    WarehouseIndex,
    build_day_indexes,
    build_hour_index,
    hour_dirs_of_day,
    index_status,
    load_hour_partition,
)
from repro.elephanttwin.index import (
    BlockIndex,
    event_name_terms,
    user_id_terms,
)
from repro.elephanttwin.inputformat import (
    IndexedEventsLoader,
    IndexedInputFormat,
)
from repro.elephanttwin.manifest import (
    STATUS_FRESH,
    STATUS_MISSING,
    STATUS_STALE,
    IndexManifest,
    load_manifest,
    partition_status,
)

__all__ = [
    "BlockIndex",
    "event_name_terms",
    "user_id_terms",
    "IndexedEventsLoader",
    "IndexedInputFormat",
    "DEFAULT_EXTRACTORS",
    "DayIndexBuild",
    "HourPartition",
    "WarehouseIndex",
    "build_day_indexes",
    "build_hour_index",
    "hour_dirs_of_day",
    "index_status",
    "load_hour_partition",
    "IndexManifest",
    "STATUS_FRESH",
    "STATUS_MISSING",
    "STATUS_STALE",
    "load_manifest",
    "partition_status",
]
