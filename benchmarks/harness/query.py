"""The two query workloads: every query class over one generated day.

Four warehouses are built in set-up from the same day, each holding
only the artefacts one class is meant to use, so a class's latency is
that path's and not whichever artefact the planner happens to find.
``query_needle`` asks for a pattern almost nothing matches (pruning can
skip nearly everything); ``query_broad`` asks for one most events match
(nothing to prune: the bypass control of every pruning optimisation).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.analytics.counting import (
    count_events_raw,
    count_events_selective,
    count_events_sequences,
)
from repro.core.builder import SessionSequenceBuilder
from repro.elephanttwin.buildjob import build_day_indexes
from repro.hdfs.layout import LOGS_ROOT, is_columnar_path, is_index_path
from repro.hdfs.namenode import HDFS
from repro.mapreduce.jobtracker import JobTracker
from repro.obs import names as obs_names
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.pig.loaders import ClientEventsLoader
from repro.warehouse.predicates import EventPatternPredicate
from repro.warehouse.segment import build_day_segments
from repro.workload.generator import DayWorkload, load_warehouse_day

from benchmarks.harness.common import (
    BROAD_PATTERN,
    DATE,
    NEEDLE_PATTERN,
    Workload,
    decode_events_per_s,
    generate_day,
    usable_cpus,
)

#: Events in the day the four warehouses hold.
QUERY_DAY_EVENTS = 1_500

SERIAL_CLASSES = ("q_raw", "q_indexed", "q_columnar", "q_composed",
                  "q_sequences")
ALL_CLASSES = SERIAL_CLASSES + ("q_raw_processes",)


class _QueryWorkload(Workload):
    pattern = ""
    classes: Tuple[str, ...] = SERIAL_CLASSES

    def set_up(self) -> None:
        day = generate_day(self.seed,
                           max(50, round(QUERY_DAY_EVENTS * self.scale)))
        self.day = day
        self.events_per_round = len(day.events) * len(self.classes)
        self.expected = day.matching(self.pattern)
        self.day_setup_metrics(day)

        generated = DayWorkload(date=DATE, events=day.events,
                                sessions_generated=0, funnel_entries=0)

        def warehouse() -> HDFS:
            fs = HDFS(block_size=16 * 1024)  # small blocks: many splits
            load_warehouse_day(fs, generated, events_per_file=1_000)
            return fs

        # Locals, not attributes, inside the query closures: a workload
        # that referred to itself would outlive its set-up until the
        # cycle collector ran, and set-up runs three times.
        w_raw = self.w_raw = warehouse()
        w_idx = self.w_idx = warehouse()
        build_day_indexes(w_idx, *DATE)
        w_col = self.w_col = warehouse()
        build_day_segments(w_col, *DATE)
        w_all = self.w_all = warehouse()
        builder = SessionSequenceBuilder(w_all)
        self.sequences = builder.run(*DATE)
        build_day_indexes(w_all, *DATE)
        build_day_segments(w_all, *DATE)
        dictionary = builder.load_dictionary(*DATE)

        pattern, workers = self.pattern, min(2, usable_cpus())
        self.queries: Dict[str, Callable[[JobTracker], int]] = {
            "q_raw": lambda t: count_events_raw(
                w_raw, DATE, pattern, tracker=t),
            "q_indexed": lambda t: count_events_selective(
                w_idx, DATE, pattern, tracker=t),
            "q_columnar": lambda t: count_events_raw(
                w_col, DATE, pattern, tracker=t),
            "q_composed": lambda t: count_events_selective(
                w_all, DATE, pattern, tracker=t),
            "q_sequences": lambda t: count_events_sequences(
                w_all, DATE, pattern, dictionary, tracker=t),
            "q_raw_processes": lambda t: count_events_raw(
                w_raw, DATE, pattern, tracker=t, backend="processes",
                max_workers=workers),
        }

    def prepare_round(self) -> None:
        set_default_registry(MetricsRegistry())
        self.trackers = {name: JobTracker() for name in self.classes}
        self.answers: Dict[str, int] = {}

    def run_round(self) -> None:
        span = self.tracer.span
        with span("harness.round"):
            for name in self.classes:
                with span("pig." + name):
                    self.answers[name] = self.queries[name](
                        self.trackers[name])

    def inspect_round(self, collect: bool) -> Tuple[int, int]:
        failed = sum(1 for name in self.classes
                     if self.answers.get(name) != self.expected)
        if collect:
            self.counts = {}
            for name, tracker in self.trackers.items():
                runs = tracker.runs
                self.counts.update({
                    f"mapreduce.jobs.{name}": len(runs),
                    f"mapreduce.map_tasks.{name}":
                        sum(r.map_tasks for r in runs),
                    f"mapreduce.input_bytes.{name}":
                        sum(r.input_bytes for r in runs),
                    f"mapreduce.shuffle_bytes.{name}":
                        sum(r.shuffle_bytes for r in runs),
                    f"mapreduce.job_wall_ms.{name}":
                        sum(r.wall_time_s for r in runs) * 1e3,
                })
        return len(self.classes), failed

    def probe(self) -> Dict[str, float]:
        """Planning and reading of each pushdown layer on its own, which
        a whole query cannot show from outside."""
        span = self.tracer.span
        registry = MetricsRegistry()
        set_default_registry(registry)
        pattern = self.pattern

        raw = ClientEventsLoader(self.w_raw, *DATE).input_format()
        with span("mapreduce.plan"):
            raw_splits = raw.splits()
        with span("mapreduce.read"):
            for split in raw_splits:
                raw.read_split(split)

        indexed = ClientEventsLoader(self.w_idx, *DATE).indexed_input_format(
            pattern)
        with span("elephanttwin.plan"):
            scanned = len(indexed.splits())
        total = scanned + indexed.skipped_splits

        columnar = ClientEventsLoader(self.w_col, *DATE).columnar_input_format(
            projection=("event_name",),
            predicates=[EventPatternPredicate(pattern)])
        with span("warehouse.plan"):
            columnar_splits = columnar.splits()
        with span("warehouse.read"):
            for split in columnar_splits:
                columnar.read_split(split)

        files = self.w_all.glob_files(LOGS_ROOT)
        return {
            "thriftlike.decode_events_per_s":
                decode_events_per_s(self.day.payloads),
            "elephanttwin.splits_total": total,
            "elephanttwin.splits_scanned": scanned,
            "elephanttwin.scan_fraction": scanned / total if total else 0.0,
            "elephanttwin.index_bytes": sum(
                self.w_all.stored_bytes(p) for p in files
                if is_index_path(p)),
            "warehouse.segment_bytes": sum(
                self.w_all.stored_bytes(p) for p in files
                if is_columnar_path(p)),
            "warehouse.bytes_decoded": registry.total(
                obs_names.COLUMNAR_BYTES_DECODED),
            "warehouse.blocks_pruned": columnar.blocks_pruned,
            "warehouse.block_bytes_pruned": columnar.pruned_bytes,
            "core.sequences_bytes": self.sequences.sequence_bytes,
            "core.compression_factor": self.sequences.compression_factor,
        }


class QueryNeedle(_QueryWorkload):
    """A pattern ~0.1 % of events match: pruning can skip almost all."""

    name = "query_needle"
    pattern = NEEDLE_PATTERN


class QueryBroad(_QueryWorkload):
    """A pattern ~80 % of events match, plus the ``processes`` scan."""

    name = "query_broad"
    pattern = BROAD_PATTERN
    classes = ALL_CLASSES
