"""Parallel execution backends: parity, stability, fallback, metrics.

The engine's contract is that ``serial`` and ``processes`` produce
byte-identical results: same output, same counter totals, same tracker
accounting. These tests pin that contract, plus the
hash-seed-independent partitioner and the closure->serial fallback.
"""

import os
import subprocess
import sys
import warnings

import pytest

from repro.mapreduce.backends import default_worker_count
from repro.mapreduce.engine import BACKEND_NAMES, prepare_backend, run_job
from repro.mapreduce.inputformats import InMemoryInputFormat
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.jobtracker import JobTracker
from repro.mapreduce.partition import serialize_key, stable_partition
from repro.obs import names as obs_names
from repro.obs.metrics import MetricsRegistry, set_default_registry

WORDS = ("the quick brown fox jumps over the lazy dog "
         "pack my box with five dozen liquor jugs").split()
RECORDS = [" ".join(WORDS[i % len(WORDS)] for i in range(j, j + 7))
           for j in range(120)]


def wc_mapper(record, ctx):
    """Emit (word, 1) per word; module-level so it pickles."""
    for word in record.split():
        ctx.emit(word, 1)


def sum_reducer(key, values, ctx):
    """Sum the values of one key; module-level so it pickles."""
    ctx.emit(key, sum(values))


def upper_mapper(record, ctx):
    """Map-only transform; module-level so it pickles."""
    ctx.emit(None, record.upper())


def _wc_job(**kwargs):
    return MapReduceJob(name="wc",
                        input_format=InMemoryInputFormat(RECORDS, 10),
                        mapper=wc_mapper, reducer=sum_reducer, **kwargs)


def _run(job, backend):
    tracker = JobTracker()
    result = run_job(job, tracker, backend=backend, max_workers=4)
    return result, tracker


class TestBackendParity:
    def test_output_and_counters_identical(self):
        baseline, base_tracker = _run(_wc_job(), "serial")
        result, tracker = _run(_wc_job(), "processes")
        assert result.output == baseline.output  # exact order too
        assert result.counters.as_dict() == baseline.counters.as_dict()
        assert (tracker.runs[0].simulated_ms
                == base_tracker.runs[0].simulated_ms)
        assert tracker.runs[0].backend == "processes"

    def test_combiner_parity(self):
        baseline, __ = _run(_wc_job(combiner=sum_reducer), "serial")
        result, __ = _run(_wc_job(combiner=sum_reducer), "processes")
        assert result.output == baseline.output
        assert result.counters.as_dict() == baseline.counters.as_dict()

    def test_map_only_parity(self):
        def job():
            return MapReduceJob(name="upper",
                                input_format=InMemoryInputFormat(RECORDS, 9),
                                mapper=upper_mapper, reducer=None)

        baseline, __ = _run(job(), "serial")
        assert [v for __, v in baseline.output] == [r.upper()
                                                    for r in RECORDS]
        result, __ = _run(job(), "processes")
        assert result.output == baseline.output

    def test_tracker_default_backend_applies(self):
        tracker = JobTracker(backend="processes", max_workers=3)
        run_job(_wc_job(), tracker)
        assert tracker.runs[0].backend == "processes"
        assert tracker.runs[0].workers == 3

    def test_unknown_backend_rejected(self):
        for name in ("gpu", "threads"):
            with pytest.raises(ValueError, match="unknown backend"):
                run_job(_wc_job(), backend=name)
        assert BACKEND_NAMES == ("serial", "processes")

    def test_default_worker_count_bounded(self):
        assert 1 <= default_worker_count() <= 8


class TestSmallPhaseInline:
    """Phases at or under the inline threshold skip pool dispatch but
    keep the backend's name and exact accounting."""

    @staticmethod
    def _small_job():
        # 3 splits: under INLINE_PHASE_TASKS, so the map phase (and the
        # 4-partition reduce phase) run inline on the pooled backend.
        return MapReduceJob(name="wc_small",
                            input_format=InMemoryInputFormat(RECORDS, 40),
                            mapper=wc_mapper, reducer=sum_reducer)

    def test_inline_matches_serial_and_keeps_name(self):
        baseline, __ = _run(self._small_job(), "serial")
        result, tracker = _run(self._small_job(), "processes")
        assert result.output == baseline.output
        assert result.counters.as_dict() == baseline.counters.as_dict()
        assert tracker.runs[0].backend == "processes"


class TestProcessFallback:
    def test_closure_job_falls_back_to_serial(self):
        captured = {}

        def mapper(record, ctx):  # a closure: not picklable
            captured["seen"] = True
            wc_mapper(record, ctx)

        job = MapReduceJob(name="closure_wc",
                           input_format=InMemoryInputFormat(RECORDS, 10),
                           mapper=mapper, reducer=sum_reducer)
        tracker = JobTracker()
        with pytest.warns(RuntimeWarning, match="falling back to 'serial'"):
            result = run_job(job, tracker, backend="processes")
        baseline, __ = _run(_wc_job(), "serial")
        assert result.output == baseline.output
        assert tracker.runs[0].backend == "serial"

    def test_picklable_job_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with prepare_backend(_wc_job(), "processes", 2) as backend:
                assert backend.name == "processes"


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
        identical under different hash seeds and backends."""
        script = (
            "from tests.test_mapreduce_backends import _wc_job, _run\n"
            "for backend in ('serial', 'processes'):\n"
            "    result, __ = _run(_wc_job(), backend)\n"
            "    print(result.output)\n"
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
    def test_per_task_histograms_and_worker_gauge(self):
        registry = MetricsRegistry()
        old = set_default_registry(registry)
        try:
            result, __ = _run(_wc_job(), "processes")
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
        wait_hist = registry.histogram(obs_names.MAPREDUCE_TASK_QUEUE_WAIT,
                                       job="wc", phase="map")
        assert wait_hist.count == splits
        assert all(v >= 0.0 for v in wait_hist.values())
        gauge = registry.gauge(obs_names.MAPREDUCE_WORKERS, job="wc",
                               backend="processes")
        assert gauge.value == 4
