"""Pig layer tests: operators, fusion, job boundaries, loaders."""

import pytest

from repro.core.event import ClientEvent
from repro.mapreduce.jobtracker import JobTracker
from repro.pig.loaders import (
    ClientEventsLoader,
    InMemoryLoader,
    SessionSequencesLoader,
)
from repro.pig.relation import PigServer
from repro.pig.udf import EvalFunc, UDFRegistry


@pytest.fixture
def pig():
    return PigServer(JobTracker())


class TestRowOperators:
    def test_foreach(self, pig):
        assert pig.from_rows([1, 2, 3]).foreach(lambda x: x * 2).dump() == \
            [2, 4, 6]

    def test_filter(self, pig):
        out = pig.from_rows(range(10)).filter(lambda x: x % 3 == 0).dump()
        assert out == [0, 3, 6, 9]

    def test_flatten(self, pig):
        out = pig.from_rows([2, 3]).flatten(lambda n: list(range(n))).dump()
        assert out == [0, 1, 0, 1, 2]

    def test_chained_map_ops_fuse_into_one_job(self, pig):
        (pig.from_rows(range(100))
            .foreach(lambda x: x + 1)
            .filter(lambda x: x % 2 == 0)
            .foreach(lambda x: x * 3)
            .dump())
        assert len(pig.tracker.runs) == 1  # one map-only job


class TestShuffleOperators:
    def test_group_by(self, pig):
        rows = [{"k": i % 2, "v": i} for i in range(6)]
        groups = pig.from_rows(rows).group_by(lambda r: r["k"]).dump()
        by_key = {g["group"]: sorted(r["v"] for r in g["bag"])
                  for g in groups}
        assert by_key == {0: [0, 2, 4], 1: [1, 3, 5]}

    def test_group_all(self, pig):
        out = pig.from_rows([1, 2, 3]).group_all().dump()
        assert len(out) == 1
        assert sorted(out[0]["bag"]) == [1, 2, 3]
        assert out[0]["group"] == "all"

    def test_join_inner(self, pig):
        left = pig.from_rows([{"id": 1, "a": "x"}, {"id": 2, "a": "y"},
                              {"id": 3, "a": "z"}])
        right = pig.from_rows([{"id": 1, "b": "p"}, {"id": 2, "b": "q"},
                               {"id": 2, "b": "r"}])
        out = left.join(right, lambda r: r["id"], lambda r: r["id"]).dump()
        pairs = sorted((row["left"]["a"], row["right"]["b"]) for row in out)
        assert pairs == [("x", "p"), ("y", "q"), ("y", "r")]

    def test_distinct(self, pig):
        assert sorted(pig.from_rows([3, 1, 3, 2, 1]).distinct().dump()) == \
            [1, 2, 3]

    def test_order_by(self, pig):
        assert pig.from_rows([3, 1, 2]).order_by(lambda x: x).dump() == \
            [1, 2, 3]
        assert pig.from_rows([3, 1, 2]).order_by(lambda x: x,
                                                 reverse=True).dump() == \
            [3, 2, 1]

    def test_limit(self, pig):
        assert pig.from_rows(range(100)).limit(3).dump() == [0, 1, 2]

    def test_union(self, pig):
        out = pig.from_rows([1, 2]).union(pig.from_rows([3])).dump()
        assert sorted(out) == [1, 2, 3]

    def test_count_action(self, pig):
        assert pig.from_rows(range(7)).count() == 7


class TestJobBoundaries:
    def test_each_shuffle_is_one_job(self, pig):
        rows = [{"k": i % 3, "v": i} for i in range(30)]
        (pig.from_rows(rows)
            .group_by(lambda r: r["k"])                       # job 1
            .foreach(lambda g: (g["group"], len(g["bag"])))
            .group_all()                                      # job 2
            .foreach(lambda g: sum(v for __, v in g["bag"]))
            .dump())                                          # job 3 (final)
        names = [r.job_name for r in pig.tracker.runs]
        assert names == ["group", "group_all", "final"]

    def test_map_ops_before_shuffle_fused(self, pig):
        rows = list(range(50))
        (pig.from_rows(rows)
            .filter(lambda x: x % 2 == 0)
            .foreach(lambda x: x % 5)
            .group_by(lambda x: x)
            .dump())
        # filter+foreach fused into the group job's mapper: one job total
        assert len(pig.tracker.runs) == 1

    def test_shuffle_volume_shrinks_with_early_projection(self):
        rows = [{"big": "x" * 1000, "k": i % 2} for i in range(20)]
        t_wide, t_narrow = JobTracker(), JobTracker()
        PigServer(t_wide).from_rows(rows).group_by(lambda r: r["k"]).dump()
        (PigServer(t_narrow).from_rows(rows)
            .foreach(lambda r: r["k"])     # early projection (§4.1)
            .group_by(lambda k: k)
            .dump())
        assert (t_narrow.runs[0].shuffle_bytes
                < t_wide.runs[0].shuffle_bytes / 10)


class TestLoaders:
    def test_client_events_loader_full_day(self, warehouse, date, workload):
        pig = PigServer()
        loader = ClientEventsLoader(warehouse, *date)
        events = pig.load(loader).dump()
        assert len(events) > 0
        assert all(isinstance(e, ClientEvent) for e in events[:5])

    def test_client_events_loader_specific_hours(self, warehouse, date):
        loader_all = ClientEventsLoader(warehouse, *date)
        loader_some = ClientEventsLoader(warehouse, *date, hours=[12])
        assert len(loader_some.paths()) <= len(loader_all.paths())
        assert all("/12/" in p for p in loader_some.paths())

    def test_sequences_loader(self, warehouse, date, sequence_records):
        pig = PigServer()
        loader = SessionSequencesLoader(warehouse, *date)
        records = pig.load(loader).dump()
        assert len(records) == len(sequence_records)

    def test_in_memory_loader(self):
        pig = PigServer()
        out = pig.load(InMemoryLoader([5, 6])).foreach(lambda x: x).dump()
        assert out == [5, 6]


class TestUDF:
    def test_eval_func_callable(self):
        class Doubler(EvalFunc):
            def exec(self, row):
                return row * 2

        assert Doubler()(21) == 42

    def test_eval_func_requires_exec(self):
        with pytest.raises(NotImplementedError):
            EvalFunc()(1)

    def test_registry_define_lookup(self):
        registry = UDFRegistry()
        fn = registry.define("Inc", lambda x: x + 1)
        assert registry.lookup("Inc") is fn
        assert "Inc" in registry
        assert registry.names() == ["Inc"]

    def test_registry_rejects_noncallable(self):
        with pytest.raises(TypeError):
            UDFRegistry().define("X", 42)

    def test_registry_unknown_name(self):
        with pytest.raises(KeyError):
            UDFRegistry().lookup("Nope")
