"""The one write-to-tmp-then-rename commit every publisher shares.

The log mover's hourly slide, its micro-batch publish and seal, the
Elephant Twin ``_index`` partitions, the columnar ``_columnar`` segments
and the rollup day directories all commit the same way: write a complete
copy under a hidden temporary path, drop the previous final copy, and
rename the new one into place in a single namespace operation, so a
reader sees the old version, no version, or the new version -- never a
half-written mix.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from repro.faults.injector import crash_point

T = TypeVar("T")


def atomic_publish(fs, tmp: str, final: str,
                   write: Optional[Callable[[str], T]] = None,
                   pre_delete: Optional[str] = None,
                   pre_rename: Optional[str] = None) -> Optional[T]:
    """Write ``tmp`` afresh, then swap it in as ``final``; returns what
    ``write(tmp)`` returned.

    Stale ``tmp`` debris of a crashed earlier run is swept before
    ``write`` runs. ``pre_delete`` / ``pre_rename`` name optional crash
    sites before the old ``final`` is dropped and before the rename: a
    crash at the first leaves the old ``final`` intact, one at the second
    leaves ``final`` absent and ``tmp`` complete, and the next publish
    converges either way. Without ``write``, ``tmp`` is taken as already
    complete -- how a publisher that finds ``final`` gone and ``tmp``
    whole finishes a commit that died between the two steps. On a
    :class:`~repro.hdfs.sharded.ShardedHDFS`, ``tmp`` and ``final`` must
    co-shard or the rename raises ``CrossShardRenameError``.
    """
    written = None
    if write is not None:
        if fs.exists(tmp):
            fs.delete(tmp, recursive=True)
        written = write(tmp)
    if pre_delete is not None:
        crash_point(pre_delete)
    if fs.exists(final):
        fs.delete(final, recursive=True)
    if pre_rename is not None:
        crash_point(pre_rename)
    fs.rename(tmp, final)
    return written
