"""The engine's one task loop: stable partitioning and per-task metrics.

Partitioning is content-stable, never ``hash()``-salted, so the output
(order included) and counter totals repeat exactly across runs and
``PYTHONHASHSEED`` values; every task's wall time lands in the registry.
"""

import os
import subprocess
import sys

import pytest

from repro.mapreduce.engine import run_job
from repro.mapreduce.inputformats import InMemoryInputFormat
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.partition import serialize_key, stable_partition
from repro.obs import names as obs_names
from repro.obs.metrics import MetricsRegistry, set_default_registry

WORDS = ("the quick brown fox jumps over the lazy dog "
         "pack my box with five dozen liquor jugs").split()
RECORDS = [" ".join(WORDS[i % len(WORDS)] for i in range(j, j + 7))
           for j in range(120)]


def wc_mapper(record, ctx):
    """Emit (word, 1) per word."""
    for word in record.split():
        ctx.emit(word, 1)


def sum_reducer(key, values, ctx):
    """Sum the values of one key."""
    ctx.emit(key, sum(values))


def upper_mapper(record, ctx):
    """Map-only transform."""
    ctx.emit(None, record.upper())


def _wc_job():
    return MapReduceJob(name="wc",
                        input_format=InMemoryInputFormat(RECORDS, 10),
                        mapper=wc_mapper, reducer=sum_reducer)


class TestMapOnly:
    def test_map_only_output_in_record_order(self):
        job = MapReduceJob(name="upper",
                           input_format=InMemoryInputFormat(RECORDS, 9),
                           mapper=upper_mapper, reducer=None)
        result = run_job(job)
        assert [v for __, v in result.output] == [r.upper()
                                                  for r in RECORDS]


class TestStablePartitioning:
    def test_serialize_key_disambiguates(self):
        # Distinct (non-equal) values must serialize apart.
        keys = [1, "1", b"1", (1,), [1], None, 1.5, ("a", "b"),
                ("a", ("b",)), ("ab",), frozenset({1, 2})]
        blobs = [serialize_key(k) for k in keys]
        assert len(set(blobs)) == len(blobs)

    def test_equal_keys_co_hash(self):
        # Python's hash invariant: a == b implies same partition.
        assert serialize_key(1) == serialize_key(1.0) == serialize_key(True)
        assert serialize_key({1, 2}) == serialize_key(frozenset({2, 1}))

    def test_set_order_independent(self):
        assert (serialize_key(frozenset({"a", "b", "c"}))
                == serialize_key(frozenset({"c", "a", "b"})))

    def test_partition_range_and_errors(self):
        for key in ("x", 17, ("u", 3), None):
            assert 0 <= stable_partition(key, 4) < 4
        with pytest.raises(ValueError):
            stable_partition("x", 0)

    def test_stable_across_interpreter_restarts(self):
        """The regression test for the latent hash() bug: partition
        assignment must not depend on PYTHONHASHSEED."""
        script = (
            "from repro.mapreduce.partition import stable_hash, "
            "stable_partition\n"
            "keys = ['web:home:impression', ('user', 42), 17, None, True,"
            " b'raw', 3.25, ('nested', ('tuple', 'key'))]\n"
            "print([(stable_hash(k), stable_partition(k, 8))"
            " for k in keys])\n"
        )
        outputs = set()
        for seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH="src")
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env,
                                  check=True)
            outputs.add(proc.stdout)
        assert len(outputs) == 1

    def test_engine_output_stable_across_hash_seeds(self):
        """End to end: the full word-count output (including order) is
        identical under different hash seeds."""
        script = (
            "from repro.mapreduce.engine import run_job\n"
            "from tests.test_mapreduce_backends import _wc_job\n"
            "print(run_job(_wc_job()).output)\n"
        )
        outputs = set()
        for seed in ("1", "77"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH="src" + os.pathsep + ".")
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env,
                                  check=True, cwd=os.path.dirname(
                                      os.path.dirname(__file__)))
            outputs.add(proc.stdout)
        assert len(outputs) == 1


class TestTaskMetrics:
    def test_per_task_wall_time_histograms(self):
        registry = MetricsRegistry()
        old = set_default_registry(registry)
        try:
            result = run_job(_wc_job())
        finally:
            set_default_registry(old)
        splits = result.counters.get("task", "map_tasks")
        reducers = result.counters.get("task", "reduce_tasks")
        assert splits > 1 and reducers > 1
        map_hist = registry.histogram(obs_names.MAPREDUCE_TASK_WALL_TIME,
                                      job="wc", phase="map")
        reduce_hist = registry.histogram(obs_names.MAPREDUCE_TASK_WALL_TIME,
                                         job="wc", phase="reduce")
        assert map_hist.count == splits
        assert reduce_hist.count == reducers
        assert all(v >= 0.0 for v in map_hist.values())
