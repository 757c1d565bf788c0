"""Elephant Twin: block-level inverted indexes (§6).

"To complement session sequences, we have recently deployed into
production a generic indexing infrastructure for handling
highly-selective queries called Elephant Twin ... Our indexes reside
alongside the data (in contrast to Trojan layouts), and therefore
re-indexing large amounts of data is feasible."

The index maps terms to the input splits that contain them. Terms are
produced by pluggable extractors (for client events: the event name and
the user id), and the index is stored *alongside* the data directory it
covers -- dropping and rebuilding it never rewrites the data, which is
the paper's argument against Trojan layouts. The build is a MapReduce
job per hour directory: :mod:`repro.elephanttwin.buildjob`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Set, Tuple

SplitKey = Tuple[str, int]  # (path, split index)


def event_name_terms(event: Any) -> Iterable[str]:
    """Default extractor for client events: index by event name."""
    return (event.event_name,)


def user_id_terms(event: Any) -> Iterable[str]:
    """Extractor for per-user selective queries: index by user id."""
    return (str(event.user_id),)


@dataclass
class BlockIndex:
    """term -> set of (path, split index) that contain it.

    ``covered`` records, per file path, how many splits the build
    actually indexed, and ``lengths`` the file's stored length then. The
    query side uses them to tell "this split has no matching records"
    (prune) apart from "this split was never indexed" (must scan): a
    path absent from either, or whose live split count or length no
    longer matches the recorded one (the file grew blocks, shifting
    every split's record range, or was rewritten in place), falls back
    to a full scan.
    """

    postings: Dict[str, Set[SplitKey]]
    total_splits: int
    covered: Dict[str, int] = field(default_factory=dict)
    lengths: Dict[str, int] = field(default_factory=dict)

    def splits_for(self, terms: Iterable[str]) -> Set[SplitKey]:
        """All splits containing at least one of the given terms."""
        out: Set[SplitKey] = set()
        for term in terms:
            out.update(self.postings.get(term, set()))
        return out

    def terms(self) -> List[str]:
        """All indexed terms, sorted."""
        return sorted(self.postings)

    def covers(self, path: str, index: int) -> bool:
        """True when split ``index`` of ``path`` was seen by the build."""
        return index < self.covered.get(path, 0)

    # -- persistence ---------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize the index for storage alongside the data."""
        payload = {
            "total_splits": self.total_splits,
            "covered": dict(sorted(self.covered.items())),
            "lengths": dict(sorted(self.lengths.items())),
            "postings": {
                term: sorted([path, index] for path, index in keys)
                for term, keys in self.postings.items()
            },
        }
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "BlockIndex":
        """Inverse of :meth:`to_bytes`."""
        payload = json.loads(data.decode("utf-8"))
        postings = {
            term: {(path, index) for path, index in keys}
            for term, keys in payload["postings"].items()
        }
        return cls(postings=postings, total_splits=payload["total_splits"],
                   covered={path: int(count) for path, count in
                            payload.get("covered", {}).items()},
                   lengths={path: int(length) for path, length in
                            payload.get("lengths", {}).items()})

