"""The fluent relation API: how scripts build logical plans.

A :class:`PigRelation` wraps a plan node; every method returns a new
relation with one more operator, so scripts read like Pig Latin::

    raw = pig.load(SessionSequencesLoader(warehouse, date))
    generated = raw.foreach(lambda r: count_udf(r.session_sequence))
    total = generated.group_all().foreach(lambda g: sum(g["bag"]))
    result = total.dump()
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.pig.plan import (
    DistinctNode,
    FilterNode,
    FlattenNode,
    ForeachNode,
    GroupAllNode,
    GroupNode,
    JoinNode,
    LimitNode,
    LoadNode,
    OrderNode,
    UnionNode,
)


class PigRelation:
    """One named step of a dataflow; immutable."""

    def __init__(self, server: "PigServer", node: Any) -> None:
        self._server = server
        self.node = node

    # -- per-row operators (fused map-side) ---------------------------------
    def foreach(self, fn: Callable[[Any], Any],
                description: str = "foreach") -> "PigRelation":
        """FOREACH ... GENERATE fn(row)."""
        return PigRelation(self._server,
                           ForeachNode(self.node, fn, description))

    def flatten(self, fn: Callable[[Any], List[Any]],
                description: str = "flatten") -> "PigRelation":
        """FOREACH ... GENERATE FLATTEN(fn(row))."""
        return PigRelation(self._server,
                           FlattenNode(self.node, fn, description))

    def filter(self, predicate: Callable[[Any], bool],
               description: str = "filter") -> "PigRelation":
        """FILTER ... BY predicate(row)."""
        return PigRelation(self._server,
                           FilterNode(self.node, predicate, description))

    def filter_events(self, pattern: str) -> "PigRelation":
        """FILTER client events BY an event-name pattern.

        Sugar for ``filter(EventNameFilter(pattern))``: the UDF carries
        an index-pushdown hint, so when the loaded data has Elephant Twin
        partitions the executor swaps the full scan for a selective one
        (same rows, fewer map tasks).
        """
        from repro.pig.udf import EventNameFilter

        return self.filter(EventNameFilter(pattern),
                           description=f"filter_events[{pattern}]")

    # -- shuffle operators -------------------------------------------------
    def group_by(self, key_fn: Callable[[Any], Any],
                 description: str = "group") -> "PigRelation":
        """GROUP ... BY key. Rows become {"group": key, "bag": [rows]}."""
        return PigRelation(self._server,
                           GroupNode(self.node, key_fn, description))

    def group_all(self) -> "PigRelation":
        """GROUP ... ALL: one row {"group": "all", "bag": [rows]}."""
        return PigRelation(self._server, GroupAllNode(self.node))

    def join(self, other: "PigRelation",
             left_key: Callable[[Any], Any],
             right_key: Callable[[Any], Any],
             description: str = "join") -> "PigRelation":
        """JOIN self BY left_key, other BY right_key.

        Output rows are {"key": k, "left": row, "right": row} for every
        matching pair (inner join).
        """
        return PigRelation(self._server,
                           JoinNode(self.node, other.node, left_key,
                                    right_key, description))

    def distinct(self) -> "PigRelation":
        """DISTINCT (rows must be hashable)."""
        return PigRelation(self._server, DistinctNode(self.node))

    def order_by(self, key_fn: Callable[[Any], Any],
                 reverse: bool = False) -> "PigRelation":
        """ORDER ... BY key."""
        return PigRelation(self._server,
                           OrderNode(self.node, key_fn, reverse))

    def limit(self, count: int) -> "PigRelation":
        """LIMIT count."""
        return PigRelation(self._server, LimitNode(self.node, count))

    def union(self, other: "PigRelation") -> "PigRelation":
        """UNION of two relations."""
        return PigRelation(self._server, UnionNode(self.node, other.node))

    # -- actions ----------------------------------------------------------
    def dump(self) -> List[Any]:
        """Execute the plan and return the rows (Pig's DUMP)."""
        return self._server.execute(self.node)

    def count(self) -> int:
        """Execute and return the row count."""
        return len(self.dump())


class PigServer:
    """Entry point owning the executor and its jobtracker."""

    def __init__(self, tracker: Optional[Any] = None,
                 intermediate_records_per_split: int = 10_000) -> None:
        from repro.mapreduce.jobtracker import JobTracker

        self.tracker = tracker or JobTracker()
        self._per_split = intermediate_records_per_split

    def load(self, loader: Any) -> PigRelation:
        """LOAD ... USING loader."""
        return PigRelation(self, LoadNode(loader))

    def from_rows(self, rows: List[Any]) -> PigRelation:
        """Relation over in-memory rows (tests/tools)."""
        from repro.pig.loaders import InMemoryLoader

        return PigRelation(self, LoadNode(InMemoryLoader(rows)))

    def execute(self, node: Any) -> List[Any]:
        """Execute a plan node through a fresh executor."""
        from repro.pig.executor import PlanExecutor

        return PlanExecutor(self.tracker, self._per_split).execute(node)
