"""Compiles logical plans into MapReduce jobs and runs them.

Compilation follows Pig's MR compiler shape:

- chains of FOREACH/FLATTEN/FILTER fuse into the mapper of the next job
  downstream (early projection/filtering before the shuffle, which is the
  §4.1 optimization "the early projection and filtering keeps the amount
  of data shuffling to a reasonable amount");
- every GROUP/JOIN/DISTINCT/ORDER runs as its own MR job;
- a plan that ends in map-side operators runs one final map-only job.

Intermediate relations feed the next job through
:class:`InMemoryInputFormat` (standing in for the temporary HDFS files
real Pig writes between jobs).

Mappers and reducers are module-level callables (not closures) so that
compiled jobs can run on the engine's ``processes`` backend whenever the
script's own row functions are picklable; scripts built from lambdas
still work everywhere else and simply run serial.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.mapreduce.engine import run_job
from repro.mapreduce.inputformats import InMemoryInputFormat
from repro.mapreduce.job import MapReduceJob, TaskContext
from repro.mapreduce.jobtracker import JobTracker
from repro.pig.plan import (
    MAP_SIDE_NODES,
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


class PlanError(Exception):
    """Raised for malformed plans."""


class PlanExecutor:
    """Executes one logical plan against the MR engine.

    ``backend`` / ``max_workers`` select the engine execution backend
    for every compiled job; None defers to the tracker's default.
    """

    def __init__(self, tracker: JobTracker,
                 intermediate_records_per_split: int = 10_000,
                 backend: Optional[str] = None,
                 max_workers: Optional[int] = None) -> None:
        self._tracker = tracker
        self._per_split = intermediate_records_per_split
        self._backend = backend
        self._max_workers = max_workers

    def _run_job(self, job: MapReduceJob):
        """Run one compiled job on the configured backend."""
        return run_job(job, self._tracker, backend=self._backend,
                       max_workers=self._max_workers)

    # -- public -----------------------------------------------------------
    def execute(self, node: Any) -> List[Any]:
        """Evaluate a plan node to its rows, running MR jobs as needed."""
        rows, pending = self._execute(node)
        if pending:
            # Trailing map-side operators: run one final map-only job.
            rows = self._run_map_only("final", rows, pending)
        return rows

    # -- recursive compilation -------------------------------------------
    def _execute(self, node: Any) -> Tuple[List[Any], List[Any]]:
        """Evaluate ``node``; returns (rows, pending_map_ops).

        ``pending_map_ops`` are fused map-side operators not yet applied;
        a downstream shuffle folds them into its mapper, or
        :meth:`execute` runs them in a final map-only job.
        """
        if isinstance(node, LoadNode):
            return [], [node]

        if isinstance(node, MAP_SIDE_NODES):
            rows, pending = self._execute(node.child)
            return rows, pending + [node]

        if isinstance(node, LimitNode):
            rows = self.execute(node.child)
            return rows[:node.count], []

        if isinstance(node, UnionNode):
            left = self.execute(node.left)
            right = self.execute(node.right)
            return left + right, []

        if isinstance(node, GroupNode):
            return self._run_shuffle(node, key_fn=node.key_fn,
                                     reducer=_group_reducer), []

        if isinstance(node, GroupAllNode):
            return self._run_shuffle(node, key_fn=_key_all,
                                     reducer=_group_reducer,
                                     num_reducers=1), []

        if isinstance(node, DistinctNode):
            return self._run_shuffle(node, key_fn=_identity,
                                     reducer=_distinct_reducer), []

        if isinstance(node, OrderNode):
            rows = self._run_shuffle(node, key_fn=_key_zero,
                                     reducer=_collect_reducer,
                                     num_reducers=1)
            return sorted(rows, key=node.key_fn, reverse=node.reverse), []

        if isinstance(node, JoinNode):
            return self._run_join(node), []

        raise PlanError(f"unknown plan node: {node!r}")

    # -- job construction ------------------------------------------------
    @staticmethod
    def _scan_hints(map_ops: List[Any]) -> Tuple[Optional[Tuple[str, ...]],
                                                 Tuple[Any, ...]]:
        """(projection, column predicates) for a fused map-side chain.

        Projection pruning: walks the chain accumulating the columns
        each operator declares it reads (``columns_read`` on filter
        predicates and foreach/flatten row functions). The walk stops at
        the first row-shape-changing operator -- columns it does not
        read can never be read downstream. A chain that ends with raw
        rows still flowing (or any operator without a declaration)
        needs the full row, so projection is None.

        Predicate pushdown: filter predicates carrying a
        ``column_predicate`` hint (a ``repro.warehouse.predicates``
        instance) are collected for zone-map pruning. Filters commute
        with scan planning, so collection continues past unhinted
        filters, exactly like the index-pushdown walk.
        """
        needed: set = set()
        predicates: List[Any] = []
        full = False
        for op in map_ops:
            if isinstance(op, FilterNode):
                hint = getattr(op.predicate, "column_predicate", None)
                if hint is not None:
                    predicates.append(hint)
                columns = getattr(op.predicate, "columns_read", None)
                if columns is None:
                    full = True
                else:
                    needed.update(columns)
                continue
            if isinstance(op, (ForeachNode, FlattenNode)):
                columns = getattr(op.fn, "columns_read", None)
                if columns is None:
                    full = True
                else:
                    needed.update(columns)
                break
            break  # pragma: no cover - plan builder prevents this
        else:
            full = True  # raw rows flow to the shuffle/output untransformed
        projection = None if full else tuple(sorted(needed))
        return projection, tuple(predicates)

    @staticmethod
    def _load_input_format(load: LoadNode, map_ops: List[Any]) -> Any:
        """The load's input format, with index and columnar pushdown.

        Index pushdown walks the fused map-side chain looking for a
        filter whose predicate carries an ``index_lookup`` hint (e.g.
        :class:`repro.pig.udf.EventNameFilter`). Filters commute with
        split selection, so the scan continues past unhinted filters and
        stops at the first row-shape-changing operator. When the loader
        can serve the hint (``indexed_input_format``) and an index
        partition exists, the selective format replaces the full scan;
        the filter itself still runs, so rows are identical either way.

        The chosen format (indexed or full) is then wrapped in the
        loader's columnar format when the chain declares a projection or
        pushes column predicates (:meth:`_scan_hints`) and segments
        exist -- composing the two prunings: index drops splits, zone
        maps drop blocks within the survivors.
        """
        base: Any = None
        for op in map_ops:
            if not isinstance(op, FilterNode):
                break
            lookup = getattr(op.predicate, "index_lookup", None)
            if lookup is None:
                continue
            make = getattr(load.loader, "indexed_input_format", None)
            if make is None:
                break
            field, value = lookup
            base = make(value, field=field)
            break
        if base is None:
            base = load.loader.input_format()
        projection, predicates = PlanExecutor._scan_hints(map_ops)
        if projection is not None or predicates:
            make_columnar = getattr(load.loader, "columnar_input_format",
                                    None)
            if make_columnar is not None:
                columnar = make_columnar(base=base, projection=projection,
                                         predicates=predicates)
                if columnar is not None:
                    return columnar
        return base

    def _input_for(self, child: Any) -> Tuple[Any, List[Any]]:
        """Input format + fused map ops for one upstream pipeline."""
        rows, pending = self._execute(child)
        if pending and isinstance(pending[0], LoadNode):
            load, map_ops = pending[0], pending[1:]
            return self._load_input_format(load, map_ops), map_ops
        return (InMemoryInputFormat(rows, self._per_split), pending)

    def _run_shuffle(self, node: Any, key_fn: Callable[[Any], Any],
                     reducer: Callable, num_reducers: int = 4) -> List[Any]:
        input_format, map_ops = self._input_for(node.child)
        mapper = _ShuffleMapper(_FusedTransform(map_ops), key_fn)
        job = MapReduceJob(name=node.description, input_format=input_format,
                           mapper=mapper, reducer=reducer,
                           num_reducers=num_reducers)
        result = self._run_job(job)
        return [value for __, value in result.output]

    def _run_join(self, node: JoinNode) -> List[Any]:
        left_format, left_ops = self._input_for(node.left)
        right_format, right_ops = self._input_for(node.right)
        union = _TaggedUnionInputFormat(left_format, right_format)
        mapper = _JoinMapper(_FusedTransform(left_ops),
                             _FusedTransform(right_ops),
                             node.left_key, node.right_key)
        job = MapReduceJob(name=node.description, input_format=union,
                           mapper=mapper, reducer=_join_reducer)
        result = self._run_job(job)
        return [value for __, value in result.output]

    def _run_map_only(self, name: str, rows: List[Any],
                      pending: List[Any]) -> List[Any]:
        if pending and isinstance(pending[0], LoadNode):
            map_ops = pending[1:]
            input_format = self._load_input_format(pending[0], map_ops)
        else:
            input_format = InMemoryInputFormat(rows, self._per_split)
            map_ops = pending
        mapper = _MapOnlyMapper(_FusedTransform(map_ops))
        job = MapReduceJob(name=name, input_format=input_format,
                           mapper=mapper, reducer=None)
        result = self._run_job(job)
        return [value for __, value in result.output]


class _TaggedSplit:
    """A split of one side of a tagged union (keeps byte accounting)."""

    def __init__(self, tag: int, split: Any) -> None:
        self.tag = tag
        self.split = split
        self.length_bytes = split.length_bytes


class _TaggedUnionInputFormat:
    """Presents two input formats as one, tagging records by side."""

    def __init__(self, left: Any, right: Any) -> None:
        self._left = left
        self._right = right

    def splits(self) -> List[_TaggedSplit]:
        return ([_TaggedSplit(0, s) for s in self._left.splits()]
                + [_TaggedSplit(1, s) for s in self._right.splits()])

    def read_split(self, tagged: _TaggedSplit) -> List[Any]:
        side = self._left if tagged.tag == 0 else self._right
        return [(tagged.tag, r) for r in side.read_split(tagged.split)]


class _FusedTransform:
    """Picklable fusion of a map-side operator chain into one transform.

    (A class rather than a closure so compiled mappers can cross process
    boundaries when the plan's row functions are themselves picklable.)
    """

    def __init__(self, map_ops: List[Any]) -> None:
        self.map_ops = list(map_ops)

    def __call__(self, record: Any) -> List[Any]:
        rows = [record]
        for op in self.map_ops:
            if isinstance(op, ForeachNode):
                rows = [op.fn(row) for row in rows]
            elif isinstance(op, FlattenNode):
                rows = [out for row in rows for out in op.fn(row)]
            elif isinstance(op, FilterNode):
                rows = [row for row in rows if op.predicate(row)]
            else:  # pragma: no cover - plan builder prevents this
                raise PlanError(f"non-fusable op in pipeline: {op!r}")
        return rows


class _ShuffleMapper:
    """Mapper of a shuffle job: transform each record, emit keyed rows."""

    def __init__(self, transform: _FusedTransform,
                 key_fn: Callable[[Any], Any]) -> None:
        self.transform = transform
        self.key_fn = key_fn

    def __call__(self, record: Any, ctx: TaskContext) -> None:
        for row in self.transform(record):
            ctx.emit(self.key_fn(row), row)


class _JoinMapper:
    """Mapper of a join job: key each side's rows, tagged by side."""

    def __init__(self, left_transform: _FusedTransform,
                 right_transform: _FusedTransform,
                 left_key: Callable[[Any], Any],
                 right_key: Callable[[Any], Any]) -> None:
        self.left_transform = left_transform
        self.right_transform = right_transform
        self.left_key = left_key
        self.right_key = right_key

    def __call__(self, tagged: Tuple[int, Any], ctx: TaskContext) -> None:
        tag, record = tagged
        if tag == 0:
            for row in self.left_transform(record):
                ctx.emit(self.left_key(row), (0, row))
        else:
            for row in self.right_transform(record):
                ctx.emit(self.right_key(row), (1, row))


class _MapOnlyMapper:
    """Mapper of a trailing map-only job: transform and emit rows."""

    def __init__(self, transform: _FusedTransform) -> None:
        self.transform = transform

    def __call__(self, record: Any, ctx: TaskContext) -> None:
        for row in self.transform(record):
            ctx.emit(None, row)


def _key_all(row: Any) -> str:
    """GROUP ALL key function: every row to the single group."""
    return "all"


def _identity(row: Any) -> Any:
    """DISTINCT key function: the row is its own key."""
    return row


def _key_zero(row: Any) -> int:
    """ORDER key function: one partition collects everything."""
    return 0


def _join_reducer(key: Any, values: List[Tuple[int, Any]],
                  ctx: TaskContext) -> None:
    lefts = [row for tag, row in values if tag == 0]
    rights = [row for tag, row in values if tag == 1]
    for lrow in lefts:
        for rrow in rights:
            ctx.emit(key, {"key": key, "left": lrow, "right": rrow})


def _group_reducer(key: Any, values: List[Any], ctx: TaskContext) -> None:
    ctx.emit(key, {"group": key, "bag": values})


def _distinct_reducer(key: Any, values: List[Any], ctx: TaskContext) -> None:
    ctx.emit(key, values[0])


def _collect_reducer(key: Any, values: List[Any], ctx: TaskContext) -> None:
    for value in values:
        ctx.emit(key, value)
