"""Hadoop-style job counters.

Counters are the measurement instrument of the reproduction: the paper's
performance argument for session sequences is about *how many mappers are
spawned*, *how many bytes are brute-force scanned*, and *how much data is
shuffled* for the group-by, and those are exactly what the engine counts.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, Tuple


class Counters:
    """Nested (group, name) -> int counters."""

    def __init__(self) -> None:
        self._counts: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))

    def increment(self, group: str, name: str, amount: int = 1) -> None:
        """Add ``amount`` to one (group, name) counter."""
        self._counts[group][name] += amount

    def get(self, group: str, name: str) -> int:
        """Current value of one counter (0 if never incremented)."""
        return self._counts.get(group, {}).get(name, 0)

    def merge(self, other: "Counters") -> None:
        """Fold another counter set into this one."""
        for group, names in other._counts.items():
            for name, amount in names.items():
                self._counts[group][name] += amount

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Plain nested-dict view of all counters."""
        return {group: dict(names) for group, names in self._counts.items()}

    def __iter__(self) -> Iterator[Tuple[str, str, int]]:
        for group in sorted(self._counts):
            for name in sorted(self._counts[group]):
                yield group, name, self._counts[group][name]

    def __repr__(self) -> str:
        return f"Counters({self.as_dict()!r})"


# Canonical counter names used by the engine.
GROUP_TASK = "task"
MAP_TASKS = "map_tasks"
REDUCE_TASKS = "reduce_tasks"

GROUP_IO = "io"
INPUT_RECORDS = "map_input_records"
INPUT_BYTES = "map_input_bytes"
OUTPUT_RECORDS = "map_output_records"
SHUFFLE_RECORDS = "shuffle_records"
SHUFFLE_BYTES = "shuffle_bytes"
REDUCE_INPUT_GROUPS = "reduce_input_groups"
REDUCE_OUTPUT_RECORDS = "reduce_output_records"
SPLITS_SKIPPED = "splits_skipped_by_index"
