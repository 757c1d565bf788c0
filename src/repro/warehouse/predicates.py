"""Pushed-down column predicates evaluated against zone maps.

These are *hints*, never filters: a predicate may only prune a block it
can prove empty; every surviving block's rows still flow through the
query's own row-level filters, so a too-weak predicate costs speed but
never correctness (the same contract Elephant Twin's index pruning
keeps at the split level). All predicate classes are frozen dataclasses
so they pickle cleanly into process-pool workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.warehouse.zonemap import ZoneMap


@dataclass(frozen=True)
class EqPredicate:
    """``column == value``."""

    column: str
    value: object

    def block_may_match(self, zone: ZoneMap,
                        column_values: Optional[Sequence] = None) -> bool:
        """False only when the zone map proves ``value`` absent."""
        return zone.might_contain(self.value)


@dataclass(frozen=True)
class InPredicate:
    """``column in values``."""

    column: str
    values: Tuple[object, ...]

    def block_may_match(self, zone: ZoneMap,
                        column_values: Optional[Sequence] = None) -> bool:
        """False only when the zone map proves every value absent."""
        return any(zone.might_contain(v) for v in self.values)


@dataclass(frozen=True)
class RangePredicate:
    """``lo <= column <= hi`` (either bound may be None)."""

    column: str
    lo: Optional[object] = None
    hi: Optional[object] = None

    def block_may_match(self, zone: ZoneMap,
                        column_values: Optional[Sequence] = None) -> bool:
        """False only when the block's min/max misses ``[lo, hi]``."""
        return zone.overlaps(self.lo, self.hi)


class EventPatternPredicate:
    """``EventPattern(pattern).matches(column)`` -- the six-level
    event-name glob grammar from ``repro.core.names``.

    A pattern cannot be tested against min/max or a bloom directly, so it
    first expands against the *segment's* complete sorted value list for
    the column (recorded at write time when cardinality permits). With
    the expansion in hand it behaves like :class:`InPredicate`; without
    one (high-cardinality column) it abstains. Expansion uses the event
    grammar's matcher, so pushdown agrees exactly with the row filter it
    rides along (``EventNameFilter``). Picklable: the compiled matcher is
    rebuilt on unpickle.
    """

    def __init__(self, pattern: str, column: str = "event_name") -> None:
        from repro.core.names import EventPattern

        self.pattern = pattern
        self.column = column
        self._matcher = EventPattern(pattern)

    def expand(self,
               column_values: Optional[Sequence[str]]) -> Optional[List[str]]:
        """The segment values the pattern matches; None = cannot tell."""
        if column_values is None:
            return None
        return [v for v in column_values
                if isinstance(v, str) and self._matcher.matches(v)]

    def block_may_match(self, zone: ZoneMap,
                        column_values: Optional[Sequence] = None) -> bool:
        """Abstain without a value list; else test the expansion."""
        terms = self.expand(column_values)
        if terms is None:
            return True
        return any(zone.might_contain(t) for t in terms)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_matcher"]
        return state

    def __setstate__(self, state: dict) -> None:
        from repro.core.names import EventPattern

        self.__dict__.update(state)
        self._matcher = EventPattern(self.pattern)

    def __repr__(self) -> str:
        return (f"EventPatternPredicate({self.pattern!r}, "
                f"column={self.column!r})")
