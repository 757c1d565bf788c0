"""One run of one workload: set up, measure for a fixed time, check.

End-to-end metrics come from a run with tracing off. A traced run
alternates untraced and traced rounds of the same work in one process,
so the tracing overhead is the ratio of their medians and the per-layer
numbers come from the traced rounds' spans. Names and units are read
from the root ``BENCHMARK.json``; a metric that is emitted but not
declared there (or the reverse) aborts the run.
"""

from __future__ import annotations

import json
import os
import resource
import time
from typing import Dict, List, Optional

from benchmarks.harness.common import PROBE_RUN, Workload, median
from benchmarks.harness.ingest import BatchDay, IngestFirehose, StreamDay
from benchmarks.harness.query import ALL_CLASSES, QueryBroad, QueryNeedle
from benchmarks.harness.trace import HARNESS_LAYER, Tracer, layer_of

WORKLOADS = {cls.name: cls for cls in (IngestFirehose, BatchDay, StreamDay,
                                       QueryNeedle, QueryBroad)}

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: The repo root: where ``BENCHMARK.json`` lives and runs start from.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def load_declaration() -> dict:
    """The root ``BENCHMARK.json``: workloads, metric names, units, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _with_units(values: Dict[str, float], declared: List[dict]) -> dict:
    """Attach declared units; names must match the declaration exactly."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise RuntimeError(
            "metrics out of step with BENCHMARK.json: undeclared "
            f"{sorted(set(values) - set(units))}, not emitted "
            f"{sorted(set(units) - set(values))}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def _layer_metrics(workload: Workload, tracer: Tracer, traced: List[float],
                   untraced: List[float], probe: Dict[str, float],
                   declared: List[dict]) -> Dict[str, float]:
    """Everything a traced run reports, zero where a layer was not used."""
    out: Dict[str, float] = {metric["name"]: 0.0 for metric in declared}
    rounds = [run for run in tracer.run_ids() if run != PROBE_RUN]

    # Busy time per span name: median over traced rounds of its self
    # time; the one-off probe spans are reported as they are.
    per_round = [tracer.self_times(run) for run in rounds]
    round_busy = {
        name: median([times.get(name, 0.0) for times in per_round])
        for name in {name for times in per_round for name in times}}
    probe_busy = tracer.self_times(PROBE_RUN)
    for name, seconds in {**round_busy, **probe_busy}.items():
        # A ``pig.<class>`` span is a whole query: it is reported as the
        # class's latency below, not as a layer's busy time.
        if layer_of(name) not in (HARNESS_LAYER, "pig"):
            out[name + "_busy_s"] = seconds

    def span_median(name: str) -> float:
        return median([sum(tracer.durations(name, run)) for run in rounds])

    # The phases a user waits for, from the spans that bracket them.
    ingest_s = span_median("harness.ingest")
    if ingest_s:
        out["ingest_events_per_s"] = workload.events_per_round / ingest_s
    out["day_build_s"] = span_median("harness.build")
    for name in ALL_CLASSES:
        latency_ms = span_median("pig." + name) * 1e3
        out[f"{name}_p50_ms"] = latency_ms
        if latency_ms:
            out[f"pig.overhead_ms.{name}"] = (
                latency_ms - workload.counts[f"mapreduce.job_wall_ms.{name}"])
    if out["q_raw_processes_p50_ms"]:
        out["mapreduce.processes_speedup"] = (
            out["q_raw_p50_ms"] / out["q_raw_processes_p50_ms"])

    # Coverage: the share of a round spent inside calls into the program
    # (the rest is the driver's own code between them).
    round_s = span_median("harness.round")
    layers_s = sum(seconds for name, seconds in round_busy.items()
                   if layer_of(name) != HARNESS_LAYER)
    out["harness.layer_coverage"] = layers_s / round_s if round_s else 0.0
    out["harness.trace_overhead_ratio"] = (
        median(traced) / median(untraced) if untraced else 0.0)

    out.update(workload.setup_metrics)
    out.update(workload.counts)
    out.update(probe)
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, out_dir: Optional[str] = None) -> dict:
    """One run; returns the result object the command prints."""
    declaration = load_declaration()
    tracer = Tracer()

    setup_s = []
    for __ in range(SETUPS):
        started = time.perf_counter()
        workload = WORKLOADS[name](seed, scale, tracer)
        workload.set_up()
        setup_s.append(time.perf_counter() - started)

    # One warm-up round, so imports, code caches and allocator pools
    # are paid before the first timed one.
    workload.prepare_round()
    workload.run_round()

    attempted = failed = 0
    walls: Dict[bool, List[float]] = {False: [], True: []}
    measure_from = time.perf_counter()
    while True:
        # A traced run alternates, starting untraced, and needs a pair.
        tracer.enabled = trace and len(walls[False]) > len(walls[True])
        tracer.run_id = len(walls[False]) + len(walls[True])
        workload.prepare_round()
        started = time.perf_counter()
        workload.run_round()
        ended = time.perf_counter()
        walls[tracer.enabled].append(ended - started)
        ops, bad = workload.inspect_round(collect=tracer.enabled)
        attempted += ops
        failed += bad
        paired = not trace or len(walls[False]) == len(walls[True])
        if paired and ended - measure_from >= seconds:
            break
    tracer.enabled = False
    failed += workload.final_check()

    if trace:
        tracer.enabled, tracer.run_id = True, PROBE_RUN
        probe = workload.probe()
        tracer.enabled = False
        values = _layer_metrics(workload, tracer, walls[True], walls[False],
                                probe, declaration["per_layer"])
        metrics = _with_units(values, declaration["per_layer"])
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(
                out_dir, f"spans-{name}-seed{seed}.json"))
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = _with_units({
            "setup_s": median(setup_s),
            "peak_rss_mb": peak_kb / 1024,
            "round_p50_ms": median(walls[False]) * 1e3,
        }, declaration["end_to_end"])
    return {"correct": failed == 0, "attempted": attempted,
            "failed": int(failed), "metrics": metrics}
