"""Smoke test of the benchmark harness (``benchmarks/harness``).

One ``--smoke --trace`` pass of the whole suite runs in subprocesses
into ``tmp_path``; everything else reads the record it leaves. No timing
is asserted: this guards the harness's wiring, names and checks, not
the numbers.
"""

import glob
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.harness.common import NEEDLE_PATTERN
from benchmarks.harness.query import SERIAL_CLASSES, QueryNeedle
from benchmarks.harness.runner import ROOT, load_declaration
from benchmarks.harness.trace import Tracer
from repro.core.names import EventPattern
from repro.obs.metrics import get_default_registry, set_default_registry

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _tracked_records():
    paths = [os.path.join(ROOT, "BENCHMARK.json")]
    paths += sorted(glob.glob(os.path.join(ROOT, "BENCH_e*.json")))
    digests = {}
    for path in paths:
        with open(path, "rb") as handle:
            digests[path] = hashlib.sha256(handle.read()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The suite at smoke scale, traced: (record, files before, after)."""
    out = tmp_path_factory.mktemp("bench_out")
    before = _tracked_records()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.harness", "--smoke", "--trace",
         "--runs", "1", "--out", str(out)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out / "results.json") as handle:
        record = json.load(handle)
    return record, before, _tracked_records(), out


def test_declaration_meets_the_contract():
    declaration = load_declaration()
    assert sorted(declaration) == ["command", "end_to_end", "paths",
                                   "per_layer", "run_seconds", "workloads"]
    names = ([w["name"] for w in declaration["workloads"]]
             + [m["name"] for m in declaration["end_to_end"]]
             + [m["name"] for m in declaration["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in declaration["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declaration["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 <= metric["bound"] <= 0.25
    for metric in declaration["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in declaration["end_to_end"] + declaration["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in declaration["end_to_end"]
             if m["name"] == "setup_s").items()
    assert 2 <= len(declaration["workloads"]) <= 8
    assert len(declaration["end_to_end"]) <= 16
    assert len(declaration["per_layer"]) <= 128
    for path in declaration["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))


def test_every_declared_metric_is_emitted_and_the_reverse(smoke):
    record = smoke[0]
    declaration = load_declaration()
    workloads = [w["name"] for w in declaration["workloads"]]
    for part in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in declaration[part]}
        assert sorted(record[part]) == sorted(workloads)
        for workload in workloads:
            emitted = {name: row["unit"] for name, row in
                       record[part][workload]["metrics"].items()}
            assert emitted == declared, (part, workload)


def test_every_correctness_check_passes(smoke):
    record = smoke[0]
    assert record["claim"] is None
    for part in ("end_to_end", "per_layer"):
        for workload, entry in record[part].items():
            assert entry["ops_attempted"] >= 1, workload
            assert entry["ops_failed"] == 0, workload
    for workload, entry in record["end_to_end"].items():
        for name, row in entry["metrics"].items():
            assert row["median"] > 0, (workload, name)


def test_layers_show_up_where_the_workload_uses_them(smoke):
    layers = {workload: entry["metrics"]
              for workload, entry in smoke[0]["per_layer"].items()}
    assert layers["ingest_firehose"]["scribe.log_busy_s"]["median"] > 0
    assert layers["ingest_firehose"]["logmover.move_busy_s"]["median"] > 0
    assert layers["batch_day"]["day_build_s"]["median"] > 0
    assert layers["batch_day"]["logmover.poll_busy_s"]["median"] == 0
    assert layers["stream_day"]["oink.fold_busy_s"]["median"] > 0
    assert layers["stream_day"]["logmover.move_busy_s"]["median"] == 0
    assert layers["query_needle"]["scribe.log_busy_s"]["median"] == 0
    assert layers["query_needle"]["q_raw_processes_p50_ms"]["median"] == 0
    assert layers["query_broad"]["q_raw_processes_p50_ms"]["median"] > 0
    assert (layers["query_needle"]["elephanttwin.scan_fraction"]["median"]
            < layers["query_broad"]["elephanttwin.scan_fraction"]["median"])
    for workload, metrics in layers.items():
        assert metrics["harness.layer_coverage"]["median"] > 0.5, workload


def test_spans_are_written_with_parents_and_run_ids(smoke):
    out = smoke[3]
    files = sorted(glob.glob(str(out / "spans-*.json")))
    assert len(files) == 5
    with open(out / "spans-stream_day-seed2012.json") as handle:
        spans = json.load(handle)
    names = {span["name"] for span in spans}
    assert {"harness.round", "scribe.log", "logmover.poll",
            "oink.fold"} <= names
    for span in spans:
        assert span["end_s"] >= span["start_s"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["run_id"] == span["run_id"]
            assert parent["start_s"] <= span["start_s"]
            assert span["end_s"] <= parent["end_s"]


def test_smoke_run_leaves_tracked_records_untouched(smoke):
    __, before, after, __ = smoke
    assert len(before) >= 2  # BENCHMARK.json and the BENCH_e*.json
    assert before == after


def test_query_classes_agree_with_the_reference_count():
    previous = get_default_registry()
    try:
        workload = QueryNeedle(seed=7, scale=0.2, tracer=Tracer())
        workload.set_up()
        workload.prepare_round()
        workload.run_round()
    finally:
        set_default_registry(previous)
    matcher = EventPattern(NEEDLE_PATTERN)
    reference = sum(1 for event in workload.day.events
                    if matcher.matches(event.event_name))
    assert reference > 0
    assert workload.answers == {name: reference for name in SERIAL_CLASSES}
    assert workload.inspect_round(collect=False) == (len(SERIAL_CLASSES), 0)
    workload.answers["q_composed"] += 1
    assert workload.inspect_round(collect=False) == (len(SERIAL_CLASSES), 1)


def test_self_time_is_duration_minus_children():
    tracer = Tracer()
    with tracer.span("scribe.log"):
        pass
    assert tracer.spans == []  # disabled: nothing recorded
    tracer.enabled = True
    tracer.run_id = 3
    with tracer.span("logmover.poll"):
        with tracer.span("oink.fold"):
            pass
        with tracer.span("oink.fold"):
            pass
    outer, = tracer.durations("logmover.poll", 3)
    inner = tracer.durations("oink.fold", 3)
    busy = tracer.self_times(3)
    assert len(inner) == 2
    assert busy["oink.fold"] == pytest.approx(sum(inner))
    assert busy["logmover.poll"] == pytest.approx(outer - sum(inner))
    assert tracer.self_times(4) == {}


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own paths there is nothing to measure: non-zero, no result line."""
    declaration = load_declaration()
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in declaration["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        declaration["command"] + ["--workload", "query_needle", "--seed",
                                  "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
