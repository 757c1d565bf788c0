"""Multi-day warehouse simulation: the whole stack as one object.

Gluing together what the individual examples do by hand: generate days of
traffic, optionally push them through the Scribe delivery path, run the
log mover, build session sequences, compute rollups, and feed BirdBrain.
Benchmarks, the CLI, and downstream users drive the stack through this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analytics.dashboard import BirdBrain, DailySummary, summarize_day
from repro.core.builder import BuildResult, SessionSequenceBuilder
from repro.core.dictionary import EventDictionary
from repro.core.event import CLIENT_EVENTS_CATEGORY
from repro.core.sequences import SessionSequenceRecord
from repro.hdfs.layout import hour_dirs_of_day, hours_of_day
from repro.hdfs.namenode import HDFS
from repro.logmover.mover import LogMover
from repro.oink.rollups import RollupJob, RollupResult
from repro.scribe.cluster import ScribeDeployment
from repro.scribe.message import CategoryConfig, LogEntry
from repro.workload.generator import (
    DayWorkload,
    WorkloadGenerator,
    load_warehouse_day,
)

Date = Tuple[int, int, int]


@dataclass
class SimulatedDay:
    """Everything one simulated day produced."""

    date: Date
    workload: DayWorkload
    build: BuildResult
    summary: DailySummary
    rollups: Optional[RollupResult] = None


class WarehouseSimulation:
    """Drives the full pipeline over consecutive days.

    With ``through_scribe`` each day's events travel the real delivery
    path (daemons → aggregators → staging → log mover); otherwise they
    are deposited directly in warehouse layout (faster, byte-identical
    destination)."""

    def __init__(self, num_users: int = 300, seed: int = 0,
                 start: Date = (2012, 3, 1),
                 users_growth_per_day: int = 0,
                 through_scribe: bool = False,
                 datacenters: Tuple[str, ...] = ("east", "west"),
                 compute_rollups: bool = False,
                 build_index: bool = False,
                 block_size: int = 16 * 1024) -> None:
        self.start = start
        self.seed = seed
        self._num_users = num_users
        self._growth = users_growth_per_day
        self._through_scribe = through_scribe
        self._compute_rollups = compute_rollups
        # §2: the mover pipeline also "build[s] any necessary indexes";
        # with build_index each day's client event hours get Elephant
        # Twin ``_index/`` partitions beside the data.
        self._build_index = build_index
        self._datacenter_names = list(datacenters)
        self.warehouse = HDFS(block_size=block_size, name="warehouse")
        self.builder = SessionSequenceBuilder(self.warehouse)
        self.board = BirdBrain()
        self.days: Dict[Date, SimulatedDay] = {}

    # -- driving ----------------------------------------------------------
    def run_days(self, num_days: int) -> List[SimulatedDay]:
        """Simulate ``num_days`` consecutive days from ``start``."""
        results = []
        for offset in range(num_days):
            results.append(self.run_day(self._shift(self.start, offset),
                                        day_index=len(self.days)))
        return results

    def run_day(self, date: Date, day_index: int = 0) -> SimulatedDay:
        """Generate, deliver, build, and summarize one calendar day."""
        users = self._num_users + self._growth * day_index
        generator = WorkloadGenerator(num_users=users,
                                      seed=self.seed + day_index)
        workload = generator.generate_day(*date)

        if self._through_scribe:
            self._deliver_via_scribe(workload, date)
        else:
            load_warehouse_day(self.warehouse, workload)

        build = self.builder.run(*date)
        dictionary = self.builder.load_dictionary(*date)
        records = list(self.builder.iter_sequences(*date))
        summary = summarize_day(date, records, dictionary)
        self.board.add_day(summary)

        rollups = None
        if self._compute_rollups:
            rollups = RollupJob(self.warehouse).run(*date)

        if self._build_index:
            from repro.elephanttwin.buildjob import build_day_indexes

            build_day_indexes(self.warehouse, *date)

        day = SimulatedDay(date=date, workload=workload, build=build,
                           summary=summary, rollups=rollups)
        self.days[date] = day
        return day

    # -- access -----------------------------------------------------------
    def index(self, date: Date):
        """The day's committed Elephant Twin partitions, as a
        :class:`~repro.elephanttwin.buildjob.WarehouseIndex` (empty, so
        falsy, without ``build_index=True``)."""
        from repro.elephanttwin.buildjob import WarehouseIndex

        return WarehouseIndex.discover(
            self.warehouse,
            hour_dirs_of_day(self.warehouse, CLIENT_EVENTS_CATEGORY, *date))

    def dictionary(self, date: Date) -> EventDictionary:
        """The day's event dictionary."""
        return self.builder.load_dictionary(*date)

    def records(self, date: Date) -> List[SessionSequenceRecord]:
        """The day's materialized session-sequence records."""
        return list(self.builder.iter_sequences(*date))

    def dates(self) -> List[Date]:
        """Days simulated so far, sorted."""
        return sorted(self.days)

    # -- internals ---------------------------------------------------------
    def _deliver_via_scribe(self, workload: DayWorkload,
                            date: Date) -> None:
        deployment = ScribeDeployment(self._datacenter_names, num_hosts=4,
                                      num_aggregators=2,
                                      durable_aggregators=True,
                                      seed=self.seed)
        deployment.categories.register(
            CategoryConfig(CLIENT_EVENTS_CATEGORY, max_file_records=500))
        datacenters = list(deployment.datacenters.values())
        for event in sorted(workload.events, key=lambda e: e.timestamp):
            deployment.clock.advance_to(event.timestamp)
            datacenter = datacenters[event.user_id % len(datacenters)]
            datacenter.log_from(
                event.user_id,
                LogEntry(CLIENT_EVENTS_CATEGORY, event.to_bytes()),
                wrap=True)
        deployment.flush_all()
        mover = LogMover(
            {name: dc.staging
             for name, dc in deployment.datacenters.items()},
            self.warehouse, clock=deployment.clock)
        for day_offset in (0, 1):  # sessions spill past midnight
            year, month, day = self._shift(date, day_offset)
            for hour in hours_of_day(CLIENT_EVENTS_CATEGORY, year, month,
                                     day):
                if mover.hour_has_data(hour):
                    mover.move_hour(hour, require_complete=False)

    @staticmethod
    def _shift(date: Date, days: int) -> Date:
        from datetime import date as _date, timedelta

        when = _date(*date) + timedelta(days=days)
        return (when.year, when.month, when.day)
