"""Simulated HDFS: namespace, block-structured files, codecs, log layout."""

from repro.hdfs.codecs import CodecError, available_codecs, compress, decompress
from repro.hdfs.namenode import (
    DEFAULT_BLOCK_SIZE,
    FileExistsError_,
    FileNotFound,
    FileStatus,
    HDFS,
    HDFSError,
    HDFSUnavailableError,
    normalize,
)
from repro.hdfs.publish import atomic_publish
from repro.hdfs.sharded import CrossShardRenameError, ShardedHDFS, shard_key
from repro.hdfs.layout import (
    LOGS_ROOT,
    SEQUENCES_ROOT,
    STAGING_ROOT,
    LogHour,
    category_path,
    day_path,
    hours_of_day,
    parse_hour_path,
    sequences_day_path,
    staging_path,
)

__all__ = [
    "CodecError",
    "available_codecs",
    "compress",
    "decompress",
    "DEFAULT_BLOCK_SIZE",
    "FileExistsError_",
    "FileNotFound",
    "FileStatus",
    "HDFS",
    "HDFSError",
    "HDFSUnavailableError",
    "normalize",
    "atomic_publish",
    "CrossShardRenameError",
    "ShardedHDFS",
    "shard_key",
    "LOGS_ROOT",
    "SEQUENCES_ROOT",
    "STAGING_ROOT",
    "LogHour",
    "category_path",
    "day_path",
    "hours_of_day",
    "parse_hour_path",
    "sequences_day_path",
    "staging_path",
]
