"""The daily session-sequence construction job (§4.2).

"Construction of session sequences proceeds in two steps. Once all logs
for one day have been successfully imported into our main data warehouse,
Oink triggers a job that scans the client event logs to compute a
histogram of event counts. These counts, as well as samples of each event
type, are stored in a known location in HDFS ... The histogram
construction job also builds a client event dictionary that maps the
event names to unicode code points, based on frequency ...

In a second pass, sessions are reconstructed from the raw client event
logs ... These sequences of event names are then encoded using the
dictionary" and the sequence relation is materialized on HDFS.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.core.dictionary import EventDictionary
from repro.core.event import CLIENT_EVENTS_CATEGORY, ClientEvent
from repro.core.sequences import SessionSequenceRecord
from repro.core.sessionizer import DEFAULT_INACTIVITY_GAP_MS, Sessionizer
from repro.hdfs.layout import data_files, day_path, sequences_day_path
from repro.hdfs.namenode import HDFS
from repro.scribe.aggregator import decode_messages
from repro.thriftlike.codegen import ThriftFileFormat

CATALOG_ROOT = "/catalog"

_EVENT_FORMAT = ThriftFileFormat(ClientEvent)
_SEQUENCE_FORMAT = ThriftFileFormat(SessionSequenceRecord)


def catalog_day_path(year: int, month: int, day: int) -> str:
    """The "known location in HDFS" for one day's histogram artifacts."""
    return f"{CATALOG_ROOT}/{year:04d}/{month:02d}/{day:02d}"


@dataclass
class BuildResult:
    """Outputs and accounting of one daily build."""

    date: Tuple[int, int, int]
    events_scanned: int
    sessions_built: int
    distinct_events: int
    raw_bytes: int
    sequence_bytes: int
    histogram_path: str
    dictionary_path: str
    sequences_dir: str

    @property
    def compression_factor(self) -> float:
        """Raw-log bytes per sequence-store byte (the paper's ~50x)."""
        if self.sequence_bytes == 0:
            return float("inf")
        return self.raw_bytes / self.sequence_bytes


class SessionSequenceBuilder:
    """Runs the two-pass build for one day against a warehouse HDFS."""

    def __init__(self, warehouse: HDFS,
                 category: str = CLIENT_EVENTS_CATEGORY,
                 inactivity_gap_ms: int = DEFAULT_INACTIVITY_GAP_MS,
                 samples_per_event: int = 3,
                 records_per_file: int = 5_000,
                 codec: str = "zlib",
                 anonymizer=None) -> None:
        """``anonymizer`` (a :class:`repro.core.anonymize.Anonymizer`)
        pseudonymizes user id / session id / IP at materialization time:
        the "consistent policies for log anonymization" of §3.2, applied
        at the one choke point every session record passes through."""
        self._warehouse = warehouse
        self._category = category
        self._sessionizer = Sessionizer(inactivity_gap_ms)
        self._samples_per_event = samples_per_event
        self._records_per_file = records_per_file
        self._codec = codec
        self._anonymizer = anonymizer

    @property
    def warehouse(self) -> HDFS:
        """The warehouse filesystem this builder reads and writes."""
        return self._warehouse

    @property
    def category(self) -> str:
        """The log category the builder scans."""
        return self._category

    @property
    def inactivity_gap_ms(self) -> int:
        """The session-splitting inactivity gap this builder uses."""
        return self._sessionizer.inactivity_gap_ms

    # -- reading raw logs ------------------------------------------------
    def iter_day_events(self, year: int, month: int,
                        day: int) -> Iterator[ClientEvent]:
        """Stream every client event of one day from the warehouse."""
        directory = day_path(self._category, year, month, day)
        for path in data_files(self._warehouse, directory):
            data = self._warehouse.open_bytes(path)
            for message in decode_messages(data):
                yield ClientEvent.from_bytes(message)

    def day_raw_bytes(self, year: int, month: int, day: int) -> int:
        """Stored bytes of the day's raw logs (compressed, as on disk)."""
        directory = day_path(self._category, year, month, day)
        return sum(self._warehouse.stored_bytes(p)
                   for p in data_files(self._warehouse, directory))

    # -- pass 1: histogram + samples + dictionary --------------------------
    def build_histogram(self, year: int, month: int,
                        day: int) -> Tuple[Counter, Dict[str, List[dict]]]:
        """Scan the day's logs; return event counts and per-event samples."""
        return self._histogram(self.iter_day_events(year, month, day))

    def _histogram(self, events: Iterable[ClientEvent]
                   ) -> Tuple[Counter, Dict[str, List[dict]]]:
        counts: Counter = Counter()
        samples: Dict[str, List[dict]] = {}
        for event in events:
            counts[event.event_name] += 1
            bucket = samples.setdefault(event.event_name, [])
            if len(bucket) < self._samples_per_event:
                bucket.append(event.to_dict())
        return counts, samples

    # -- the full job ----------------------------------------------------
    def run(self, year: int, month: int, day: int,
            engine: str = "direct", tracker=None,
            backend=None, max_workers=None) -> BuildResult:
        """Execute both passes and materialize all artifacts on HDFS.

        ``engine='direct'`` runs in-process (fast, default).
        ``engine='mapreduce'`` runs both passes as real jobs on the
        simulated MR engine -- the histogram as a map/combine/reduce
        count, the session reconstruction as the paper's "large group-by
        across potentially terabytes of data" -- so the build's own
        mapper/shuffle footprint is measurable via ``tracker``.
        ``backend`` / ``max_workers`` pick the engine execution backend
        (``"serial"`` or ``"processes"``) for those jobs.
        """
        if engine not in ("direct", "mapreduce"):
            raise ValueError(f"unknown engine {engine!r}")
        if engine == "mapreduce":
            return self._run_mapreduce(year, month, day, tracker,
                                       backend=backend,
                                       max_workers=max_workers)
        # One decode of the day feeds both passes.
        events = list(self.iter_day_events(year, month, day))
        counts, samples = self._histogram(events)
        dictionary = EventDictionary.from_histogram(counts)

        known = catalog_day_path(year, month, day)
        histogram_path = f"{known}/histogram.json"
        samples_path = f"{known}/samples.json"
        dictionary_path = f"{known}/dictionary.json"
        self._warehouse.create(histogram_path,
                               json.dumps(dict(counts), sort_keys=True).encode(),
                               overwrite=True)
        self._warehouse.create(samples_path,
                               json.dumps(samples, sort_keys=True).encode(),
                               codec=self._codec, overwrite=True)
        self._warehouse.create(dictionary_path, dictionary.to_bytes(),
                               overwrite=True)

        # Second pass: reconstruct sessions and encode them.
        sessions = self._sessionizer.sessionize(events)
        records = [SessionSequenceRecord.from_session(s, dictionary)
                   for s in sessions]
        if self._anonymizer is not None:
            records = [
                record.replace(
                    user_id=self._anonymizer.user_id(record.user_id),
                    session_id=self._anonymizer.session_id(
                        record.session_id),
                    ip=self._anonymizer.ip(record.ip),
                )
                for record in records
            ]

        sequences_dir = sequences_day_path(year, month, day)
        if self._warehouse.exists(sequences_dir):
            self._warehouse.delete(sequences_dir, recursive=True)
        self._warehouse.mkdirs(sequences_dir)
        for i in range(0, max(len(records), 1), self._records_per_file):
            chunk = records[i:i + self._records_per_file]
            if not chunk and i > 0:
                break
            path = f"{sequences_dir}/part-{i // self._records_per_file:05d}"
            self._warehouse.create(path, _SEQUENCE_FORMAT.encode(chunk),
                                   codec=self._codec)

        sequence_bytes = self._warehouse.total_stored_bytes(sequences_dir)
        return BuildResult(
            date=(year, month, day),
            events_scanned=len(events),
            sessions_built=len(sessions),
            distinct_events=len(counts),
            raw_bytes=self.day_raw_bytes(year, month, day),
            sequence_bytes=sequence_bytes,
            histogram_path=histogram_path,
            dictionary_path=dictionary_path,
            sequences_dir=sequences_dir,
        )

    def _run_mapreduce(self, year: int, month: int, day: int,
                       tracker, backend=None, max_workers=None) -> BuildResult:
        """Both passes as MR jobs (see :meth:`run`)."""
        from repro.hdfs.layout import day_path
        from repro.mapreduce.engine import run_job
        from repro.mapreduce.inputformats import FileInputFormat
        from repro.mapreduce.job import MapReduceJob

        directory = day_path(self._category, year, month, day)
        input_format = FileInputFormat(
            self._warehouse, data_files(self._warehouse, directory),
            _EVENT_FORMAT.decode)

        # Pass 1: histogram of event counts (with a combiner, as the
        # production Pig aggregation would run). The mapper reads only
        # the event name, so when columnar segments cover the day the
        # pass scans one dictionary-encoded column instead of decoding
        # every full record; hours without a fresh segment scan raw.
        from repro.warehouse.segment import day_columnar_input

        histogram_input = day_columnar_input(
            self._warehouse, self._category, year, month, day,
            projection=("event_name",)) or input_format
        histogram_result = run_job(MapReduceJob(
            name="ce_histogram", input_format=histogram_input,
            mapper=_histogram_mapper, reducer=_sum_reducer,
            combiner=_sum_reducer), tracker,
            backend=backend, max_workers=max_workers)
        counts = Counter(dict(histogram_result.output))
        __, samples = self.build_histogram(year, month, day)
        dictionary = EventDictionary.from_histogram(counts)

        known = catalog_day_path(year, month, day)
        self._warehouse.create(f"{known}/histogram.json",
                               json.dumps(dict(counts),
                                          sort_keys=True).encode(),
                               overwrite=True)
        self._warehouse.create(f"{known}/samples.json",
                               json.dumps(samples, sort_keys=True).encode(),
                               codec=self._codec, overwrite=True)
        self._warehouse.create(f"{known}/dictionary.json",
                               dictionary.to_bytes(), overwrite=True)

        # Pass 2: the session group-by as an MR job. The mapper keys each
        # event by (user id, session id); the reducer sorts, splits on
        # the inactivity gap, and emits encoded records.
        session_result = run_job(MapReduceJob(
            name="session_sequences", input_format=input_format,
            mapper=_session_mapper,
            reducer=_SessionReducer(self._sessionizer.inactivity_gap_ms,
                                    dictionary),
            num_reducers=8), tracker,
            backend=backend, max_workers=max_workers)
        records = sorted((record for __, record in session_result.output),
                         key=lambda r: (r.user_id, r.session_id))

        sequences_dir = sequences_day_path(year, month, day)
        if self._warehouse.exists(sequences_dir):
            self._warehouse.delete(sequences_dir, recursive=True)
        self._warehouse.mkdirs(sequences_dir)
        for i in range(0, max(len(records), 1), self._records_per_file):
            chunk = records[i:i + self._records_per_file]
            if not chunk and i > 0:
                break
            path = f"{sequences_dir}/part-{i // self._records_per_file:05d}"
            self._warehouse.create(path, _SEQUENCE_FORMAT.encode(chunk),
                                   codec=self._codec)
        return BuildResult(
            date=(year, month, day),
            events_scanned=sum(counts.values()),
            sessions_built=len(records),
            distinct_events=len(counts),
            raw_bytes=self.day_raw_bytes(year, month, day),
            sequence_bytes=self._warehouse.total_stored_bytes(
                sequences_dir),
            histogram_path=f"{known}/histogram.json",
            dictionary_path=f"{known}/dictionary.json",
            sequences_dir=sequences_dir,
        )

    # -- reading artifacts back ------------------------------------------
    def load_dictionary(self, year: int, month: int,
                        day: int) -> EventDictionary:
        """Read back the day's event dictionary from HDFS."""
        path = f"{catalog_day_path(year, month, day)}/dictionary.json"
        return EventDictionary.from_bytes(self._warehouse.open_bytes(path))

    def load_histogram(self, year: int, month: int, day: int) -> Counter:
        """Read back the day's event-count histogram from HDFS."""
        path = f"{catalog_day_path(year, month, day)}/histogram.json"
        return Counter(json.loads(self._warehouse.open_bytes(path)))

    def load_samples(self, year: int, month: int,
                     day: int) -> Dict[str, List[dict]]:
        """Read back the day's per-event sample messages from HDFS."""
        path = f"{catalog_day_path(year, month, day)}/samples.json"
        return json.loads(self._warehouse.open_bytes(path))

    def iter_sequences(self, year: int, month: int,
                       day: int) -> Iterator[SessionSequenceRecord]:
        """Stream the day's materialized session-sequence records."""
        directory = sequences_day_path(year, month, day)
        for path in data_files(self._warehouse, directory):
            data = self._warehouse.open_bytes(path)
            for record in _SEQUENCE_FORMAT.iter_decode(data):
                yield record


# MR callables of the build passes. Module-level (or instances of
# module-level classes) so the jobs are picklable and can run on the
# engine's ``processes`` backend.


def _histogram_mapper(event, ctx) -> None:
    """Pass-1 mapper: one (event name, 1) pair per event."""
    ctx.emit(event.event_name, 1)


def _sum_reducer(key, values, ctx) -> None:
    """Pass-1 reducer and combiner: sum the counts of one event name."""
    ctx.emit(key, sum(values))


def _session_mapper(event, ctx) -> None:
    """Pass-2 mapper: key each event by (user id, session id)."""
    ctx.emit((event.user_id, event.session_id), event)


class _SessionReducer:
    """Pass-2 reducer: sort one session's events, split on the
    inactivity gap, and emit encoded sequence records."""

    def __init__(self, gap_ms: int, dictionary: EventDictionary) -> None:
        self.gap_ms = gap_ms
        self.dictionary = dictionary

    def __call__(self, key, events, ctx) -> None:
        events.sort(key=_event_timestamp)
        current: list = []
        for event in events:
            if current and (event.timestamp - current[-1].timestamp
                            > self.gap_ms):
                ctx.emit(key,
                         _encode_session(key, current, self.dictionary))
                current = []
            current.append(event)
        if current:
            ctx.emit(key, _encode_session(key, current, self.dictionary))


def _event_timestamp(event) -> int:
    """Sort key of the pass-2 reducer (picklable, unlike a lambda)."""
    return event.timestamp


def _encode_session(key, events, dictionary) -> SessionSequenceRecord:
    """Reducer-side helper: one (user, session-id, gap-run) to a record."""
    user_id, session_id = key
    from repro.core.sessionizer import Session

    session = Session(user_id=user_id, session_id=session_id,
                      events=list(events))
    return SessionSequenceRecord.from_session(session, dictionary)


def write_day_events(warehouse: HDFS, events: List[ClientEvent],
                     year: int, month: int, day: int,
                     category: str = CLIENT_EVENTS_CATEGORY,
                     events_per_file: int = 2_000,
                     codec: str = "zlib") -> str:
    """Test/benchmark helper: deposit events into per-hour warehouse dirs
    the way the log mover would (bucketed by timestamp hour)."""
    from repro.hdfs.layout import hour_for_millis

    by_hour: Dict[str, List[ClientEvent]] = {}
    for event in events:
        hour = hour_for_millis(category, event.timestamp)
        by_hour.setdefault(hour.path(), []).append(event)
    for directory, hour_events in sorted(by_hour.items()):
        for i in range(0, len(hour_events), events_per_file):
            chunk = hour_events[i:i + events_per_file]
            path = f"{directory}/part-{i // events_per_file:05d}"
            warehouse.create(path, _EVENT_FORMAT.encode(chunk), codec=codec,
                             overwrite=True)
    return day_path(category, year, month, day)
