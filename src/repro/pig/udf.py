"""UDF support: the DEFINE mechanism and an EvalFunc base class.

Pig scripts at Twitter retain "the full expressiveness of Java ... through
a library of custom UDFs" (§3). Here a UDF is any callable; `EvalFunc`
gives parameterized UDFs the two-phase construction Pig's DEFINE provides
(constructor args at definition time, row at call time), and
:class:`UDFRegistry` plays the role of the DEFINE statement.
"""

from __future__ import annotations

from typing import Any, Callable, Dict


class EvalFunc:
    """Base class for parameterized row UDFs.

    Subclasses implement :meth:`exec` (named after Pig's EvalFunc.exec).
    Instances are callable so they drop into ``foreach`` directly.
    """

    def exec(self, row: Any) -> Any:  # noqa: A003 - Pig's name
        """Evaluate the UDF on one row (subclasses implement)."""
        raise NotImplementedError

    def __call__(self, row: Any) -> Any:
        return self.exec(row)


class EventNameFilter(EvalFunc):
    """Boolean UDF: does a client event's name match an event pattern?

    Carries an ``index_lookup`` hint -- ``("event", pattern)`` -- so the
    plan executor can push the selection down to an Elephant Twin index
    when one covers the loaded data.
    """

    #: Columns this predicate reads (projection-pruning declaration).
    columns_read = ("event_name",)

    def __init__(self, pattern: str) -> None:
        from repro.core.names import EventPattern
        from repro.warehouse.predicates import EventPatternPredicate

        self.pattern = pattern
        self._matcher = EventPattern(pattern)
        #: Pushdown hint consumed by :class:`repro.pig.executor.PlanExecutor`.
        self.index_lookup = ("event", pattern)
        #: Zone-map hint: prunes columnar blocks the pattern provably misses.
        self.column_predicate = EventPatternPredicate(pattern)

    def exec(self, row: Any) -> bool:  # noqa: A003 - Pig's name
        """True when the row's event name matches the pattern."""
        return self._matcher.matches(row.event_name)


class UserEventsFilter(EvalFunc):
    """Boolean UDF: does a client event belong to one user?

    ``index_lookup`` is ``("user", str(user_id))``: the user field is
    indexed by exact term, no pattern expansion.
    """

    #: Columns this predicate reads (projection-pruning declaration).
    columns_read = ("user_id",)

    def __init__(self, user_id: int) -> None:
        from repro.warehouse.predicates import EqPredicate

        self.user_id = int(user_id)
        #: Pushdown hint consumed by :class:`repro.pig.executor.PlanExecutor`.
        self.index_lookup = ("user", str(self.user_id))
        #: Zone-map hint: min/max + bloom on the user_id column.
        self.column_predicate = EqPredicate("user_id", self.user_id)

    def exec(self, row: Any) -> bool:  # noqa: A003 - Pig's name
        """True when the row's user_id equals the target user."""
        return row.user_id == self.user_id


class UDFRegistry:
    """Named UDF definitions: ``define('CountClientEvents', udf)``."""

    def __init__(self) -> None:
        self._udfs: Dict[str, Callable] = {}

    def define(self, name: str, udf: Callable) -> Callable:
        """Register a UDF under a script-visible name."""
        if not callable(udf):
            raise TypeError(f"UDF {name!r} is not callable")
        self._udfs[name] = udf
        return udf

    def lookup(self, name: str) -> Callable:
        """The UDF registered under ``name`` (KeyError if absent)."""
        try:
            return self._udfs[name]
        except KeyError as exc:
            raise KeyError(f"UDF not defined: {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._udfs

    def names(self):
        """All registered UDF names, sorted."""
        return sorted(self._udfs)
