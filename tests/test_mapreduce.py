"""MapReduce engine tests: splits, counters, combiner, cost model."""

import pytest

from repro.hdfs.namenode import HDFS
from repro.mapreduce.counters import (
    Counters,
    GROUP_IO,
    GROUP_TASK,
    INPUT_BYTES,
    INPUT_RECORDS,
    MAP_TASKS,
    REDUCE_TASKS,
    SHUFFLE_BYTES,
    SHUFFLE_RECORDS,
)
from repro.mapreduce.engine import run_job, sizeof
from repro.mapreduce.inputformats import (
    FileInputFormat,
    InMemoryInputFormat,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.jobtracker import CostModel, JobTracker
from repro.thriftlike.codegen import frame, iter_frames


def _decode_lines(data: bytes):
    return list(iter_frames(data))


def _word_count_job(input_format, **kwargs):
    def mapper(record, ctx):
        for word in record.split():
            ctx.emit(word, 1)

    def reducer(key, values, ctx):
        ctx.emit(key, sum(values))

    return MapReduceJob(name="wordcount", input_format=input_format,
                        mapper=mapper, reducer=reducer, **kwargs)


class TestCounters:
    def test_increment_and_get(self):
        counters = Counters()
        counters.increment("g", "n", 3)
        counters.increment("g", "n")
        assert counters.get("g", "n") == 4
        assert counters.get("g", "missing") == 0

    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment("g", "n", 1)
        b.increment("g", "n", 2)
        b.increment("h", "m", 5)
        a.merge(b)
        assert a.get("g", "n") == 3
        assert a.get("h", "m") == 5

    def test_iteration_sorted(self):
        counters = Counters()
        counters.increment("b", "y", 1)
        counters.increment("a", "x", 1)
        assert [g for g, __, __ in counters] == ["a", "b"]


class TestSizeof:
    @pytest.mark.parametrize("value,expected", [
        (b"abc", 3), ("abc", 3), (7, 8), (1.5, 8), (True, 1), (None, 1),
    ])
    def test_scalars(self, value, expected):
        assert sizeof(value) == expected

    def test_containers(self):
        assert sizeof([1, 2]) == 4 + 16
        assert sizeof({"k": 1}) == 4 + 1 + 8

    def test_struct_uses_serialized_size(self):
        from repro.core.event import ClientEvent

        event = ClientEvent.make(
            "web:home:timeline:stream:tweet:impression", user_id=1,
            session_id="s", ip="1.2.3.4", timestamp=0)
        assert sizeof(event) == len(event.to_bytes())


class TestInputFormats:
    def test_one_split_per_block(self):
        fs = HDFS(block_size=8)
        lines = [b"line-%d" % i for i in range(10)]
        fs.create("/f", b"".join(frame(l) for l in lines))
        fmt = FileInputFormat(fs, ["/f"], _decode_lines)
        splits = fmt.splits()
        assert len(splits) == fs.status("/f").block_count
        recovered = [r for s in splits for r in fmt.read_split(s)]
        assert recovered == lines

    def test_compressed_file_single_block_when_small(self):
        fs = HDFS(block_size=1 << 20)
        fs.create("/f", frame(b"only"), codec="zlib")
        fmt = FileInputFormat(fs, ["/f"], _decode_lines)
        assert len(fmt.splits()) == 1

    def test_over_directory(self):
        fs = HDFS()
        fs.create("/d/a", frame(b"1"))
        fs.create("/d/b", frame(b"2"))
        fmt = FileInputFormat.over_directory(fs, "/d", _decode_lines)
        records = [r for s in fmt.splits() for r in fmt.read_split(s)]
        assert sorted(records) == [b"1", b"2"]

    def test_in_memory_splits(self):
        fmt = InMemoryInputFormat(list(range(25)), records_per_split=10)
        splits = fmt.splits()
        assert len(splits) == 3
        assert [len(fmt.read_split(s)) for s in splits] == [10, 10, 5]

    def test_in_memory_empty(self):
        fmt = InMemoryInputFormat([])
        splits = fmt.splits()
        assert len(splits) == 1
        assert fmt.read_split(splits[0]) == []

    def test_in_memory_invalid_split_size(self):
        with pytest.raises(ValueError):
            InMemoryInputFormat([], records_per_split=0)


class TestEngine:
    def test_word_count(self):
        fmt = InMemoryInputFormat(["a b a", "b c"], records_per_split=1)
        result = run_job(_word_count_job(fmt))
        assert dict(result.output) == {"a": 2, "b": 2, "c": 1}

    def test_map_only_job(self):
        fmt = InMemoryInputFormat([1, 2, 3], records_per_split=2)
        job = MapReduceJob(name="mo", input_format=fmt,
                           mapper=lambda r, ctx: ctx.emit(None, r * 10))
        result = run_job(job)
        assert [v for __, v in result.output] == [10, 20, 30]

    def test_counters_accounting(self):
        fmt = InMemoryInputFormat(["a b", "c"], records_per_split=1)
        result = run_job(_word_count_job(fmt, num_reducers=2))
        counters = result.counters
        assert counters.get(GROUP_TASK, MAP_TASKS) == 2
        assert counters.get(GROUP_TASK, REDUCE_TASKS) == 2
        assert counters.get(GROUP_IO, INPUT_RECORDS) == 2
        assert counters.get(GROUP_IO, SHUFFLE_RECORDS) == 3
        assert counters.get(GROUP_IO, SHUFFLE_BYTES) > 0

    def test_combiner_reduces_shuffle(self):
        records = ["a a a a a"] * 4

        def combiner(key, values, ctx):
            ctx.emit(key, sum(values))

        plain = run_job(_word_count_job(
            InMemoryInputFormat(records, records_per_split=1)))
        combined = run_job(_word_count_job(
            InMemoryInputFormat(records, records_per_split=1)))
        job = _word_count_job(InMemoryInputFormat(records,
                                                  records_per_split=1))
        job.combiner = combiner
        combined = run_job(job)
        assert dict(combined.output) == dict(plain.output) == {"a": 20}
        assert (combined.counters.get(GROUP_IO, SHUFFLE_RECORDS)
                < plain.counters.get(GROUP_IO, SHUFFLE_RECORDS))

    def test_bytes_scanned_from_blocks(self):
        fs = HDFS(block_size=16)
        data = b"".join(frame(b"w%d" % i) for i in range(50))
        fs.create("/f", data)
        fmt = FileInputFormat(fs, ["/f"], _decode_lines)
        job = MapReduceJob(name="scan", input_format=fmt,
                           mapper=lambda r, ctx: None)
        result = run_job(job)
        assert result.counters.get(GROUP_IO, INPUT_BYTES) == len(data)

    def test_tracker_records_runs(self):
        tracker = JobTracker()
        fmt = InMemoryInputFormat(["a"], records_per_split=1)
        run_job(_word_count_job(fmt), tracker)
        assert len(tracker.runs) == 1
        run = tracker.runs[0]
        assert run.job_name == "wordcount"
        assert run.map_tasks == 1
        assert tracker.last() is run

    def test_invalid_num_reducers(self):
        fmt = InMemoryInputFormat([1])
        with pytest.raises(ValueError):
            MapReduceJob(name="bad", input_format=fmt,
                         mapper=lambda r, c: None, num_reducers=0)


class TestCostModel:
    def test_more_mappers_cost_more(self):
        model = CostModel()
        few, many = Counters(), Counters()
        few.increment(GROUP_TASK, MAP_TASKS, 2)
        many.increment(GROUP_TASK, MAP_TASKS, 2000)
        assert model.simulated_ms(many) > model.simulated_ms(few)

    def test_scan_bytes_cost(self):
        model = CostModel()
        a, b = Counters(), Counters()
        for counters, volume in ((a, 10), (b, 10 ** 9)):
            counters.increment(GROUP_TASK, MAP_TASKS, 1)
            counters.increment(GROUP_IO, INPUT_BYTES, volume)
        assert model.simulated_ms(b) > model.simulated_ms(a)

    def test_shuffle_cost(self):
        model = CostModel()
        a, b = Counters(), Counters()
        for counters, volume in ((a, 0), (b, 10 ** 9)):
            counters.increment(GROUP_TASK, MAP_TASKS, 1)
            counters.increment(GROUP_IO, SHUFFLE_BYTES, volume)
        assert model.simulated_ms(b) > model.simulated_ms(a)

    def test_zero_tasks_zero_startup(self):
        assert CostModel().simulated_ms(Counters()) == 0.0


class TestTaskRetries:
    def _flaky_mapper(self, fail_times):
        state = {"failures": 0}

        def mapper(record, ctx):
            if state["failures"] < fail_times:
                state["failures"] += 1
                raise RuntimeError("transient task failure")
            ctx.emit(record, 1)

        return mapper

    def test_transient_failure_retried(self):
        from repro.mapreduce.engine import TaskFailedError

        job = MapReduceJob(
            name="flaky",
            input_format=InMemoryInputFormat(["a", "b"], 10),
            mapper=self._flaky_mapper(fail_times=1),
            reducer=lambda k, vs, ctx: ctx.emit(k, sum(vs)),
            max_task_attempts=3)
        result = run_job(job)
        assert dict(result.output) == {"a": 1, "b": 1}
        assert result.counters.get(GROUP_TASK, "map_task_failures") == 1
        # attempts counted as spawned tasks (the jobtracker sees retries)
        assert result.counters.get(GROUP_TASK, MAP_TASKS) == 2

    def test_persistent_failure_fails_job(self):
        from repro.mapreduce.engine import TaskFailedError

        def always_fails(record, ctx):
            raise RuntimeError("hard failure")

        job = MapReduceJob(
            name="doomed",
            input_format=InMemoryInputFormat(["a"], 10),
            mapper=always_fails, max_task_attempts=2)
        with pytest.raises(TaskFailedError):
            run_job(job)

    def test_failed_attempt_output_discarded(self):
        """Emissions from a failed attempt must not leak into output."""
        state = {"calls": 0}

        def emits_then_fails(record, ctx):
            ctx.emit(record, 1)
            state["calls"] += 1
            if state["calls"] == 1:
                raise RuntimeError("fails after emitting")

        job = MapReduceJob(
            name="leaky?",
            input_format=InMemoryInputFormat(["a"], 10),
            mapper=emits_then_fails,
            reducer=lambda k, vs, ctx: ctx.emit(k, sum(vs)),
            max_task_attempts=2)
        result = run_job(job)
        assert dict(result.output) == {"a": 1}  # not 2

    def test_invalid_max_attempts(self):
        with pytest.raises(ValueError):
            MapReduceJob(name="x",
                         input_format=InMemoryInputFormat([1]),
                         mapper=lambda r, c: None, max_task_attempts=0)
