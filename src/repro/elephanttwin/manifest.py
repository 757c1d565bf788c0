"""Index manifests: exactly which ``(path, block)`` pairs an index covers.

The original Elephant Twin stub recorded only postings, so the query side
could not distinguish "this split contains no matching records" from
"this split landed after the build". The manifest closes that hole: every
per-hour index partition carries a manifest naming each data file it
scanned with the file's ``(stored length, split count)`` fingerprint at
build time -- the same one columnar segments record per source file. A
split outside the manifest -- a new file, a file that has since grown
more blocks (which shifts every split's record range), or one rewritten
in place to a different length -- is *must-scan* work, never prunable.

Manifests also drive incremental maintenance: a partition is *fresh* when
the live data files of its directory still match the recorded
fingerprints, and *stale* otherwise, so a daily build only re-indexes
the hours that changed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.hdfs.layout import INDEX_SUBDIR, data_files, hour_index_dir
from repro.hdfs.namenode import HDFS

#: File names inside a partition's ``_index/`` directory.
MANIFEST_FILE = "manifest.json"
POSTINGS_FILE = "postings.json"

#: Partition status values reported by :func:`partition_status`.
STATUS_FRESH = "fresh"
STATUS_STALE = "stale"
STATUS_MISSING = "missing"


@dataclass
class IndexManifest:
    """Coverage contract of one index partition.

    ``files`` maps each indexed data-file path to the number of splits
    the build scanned for it (one split per block) and ``lengths`` to
    its stored length then. ``fields`` names the term extractors the
    partition was built with (e.g. ``event``, ``user``), and
    ``built_at_ms`` stamps the build on the logical clock.
    """

    files: Dict[str, int]
    lengths: Dict[str, int]
    fields: Tuple[str, ...] = ()
    built_at_ms: int = 0
    version: int = field(default=1)

    @property
    def total_splits(self) -> int:
        """Splits the partition covers, across all of its files."""
        return sum(self.files.values())

    def covers(self, path: str, index: int) -> bool:
        """True when split ``index`` of ``path`` is inside the manifest."""
        return index < self.files.get(path, 0)

    # -- persistence ----------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize for storage inside the ``_index/`` directory."""
        payload = {
            "version": self.version,
            "built_at_ms": self.built_at_ms,
            "fields": sorted(self.fields),
            "files": dict(sorted(self.files.items())),
            "lengths": dict(sorted(self.lengths.items())),
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "IndexManifest":
        """Inverse of :meth:`to_bytes`."""
        payload = json.loads(data.decode("utf-8"))
        return cls(files={p: int(n) for p, n in payload["files"].items()},
                   lengths={p: int(n)
                            for p, n in payload["lengths"].items()},
                   fields=tuple(payload.get("fields", ())),
                   built_at_ms=int(payload.get("built_at_ms", 0)),
                   version=int(payload.get("version", 1)))


def live_fingerprints(fs: HDFS, directory: str
                      ) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Current ``path -> split count`` and ``path -> stored length`` of
    a data directory.

    Mirrors :meth:`FileInputFormat.splits` planning: one split per block,
    with empty files still occupying one split.
    """
    counts: Dict[str, int] = {}
    lengths: Dict[str, int] = {}
    for path in data_files(fs, directory):
        status = fs.status(path)
        counts[path] = max(status.block_count, 1)
        lengths[path] = status.length
    return counts, lengths


def partition_status(fs: HDFS, directory: str) -> str:
    """Freshness of the index partition beside ``directory``.

    ``missing`` -- no committed ``_index/`` manifest; ``stale`` -- data
    files changed since the build (new file, removed file, or a file
    whose length or block count moved); ``fresh`` -- coverage matches
    the live directory exactly.
    """
    manifest = load_manifest(fs, directory)
    if manifest is None:
        return STATUS_MISSING
    if (manifest.files, manifest.lengths) != live_fingerprints(fs, directory):
        return STATUS_STALE
    return STATUS_FRESH


def load_manifest(fs: HDFS, directory: str) -> "IndexManifest | None":
    """The committed manifest beside ``directory``, or None.

    Only the committed ``_index/`` directory is consulted; a partial
    ``_index.tmp`` left by a crashed build is invisible here.
    """
    path = f"{hour_index_dir(directory)}/{MANIFEST_FILE}"
    if not fs.is_file(path):
        return None
    return IndexManifest.from_bytes(fs.open_bytes(path))


def tmp_index_dir(directory: str) -> str:
    """Build staging directory: written fully, then renamed to commit."""
    return f"{directory}/{INDEX_SUBDIR}.tmp"


def list_partition_dirs(fs: HDFS, hour_dirs: Iterable[str]) -> List[str]:
    """The subset of ``hour_dirs`` holding a committed index partition."""
    return [d for d in hour_dirs if load_manifest(fs, d) is not None]
