"""Bounded metric time-series history sampled on the logical clock.

The registry answers "how many so far"; operating the pipeline needs
"how fast right now" and "what did the last day look like". A
:class:`TimeSeriesStore` snapshots a
:class:`~repro.obs.metrics.MetricsRegistry` at logical instants chosen
by the caller (each Oink ``quality_audit`` run, each chaos slice) into
per-series ring buffers -- ``deque(maxlen=...)``, so monitoring-length
soaks hold a bounded window no matter how long they run -- and derives
*rates* from counter deltas, turning every ``*_total`` into an
events-per-second series.

Histograms are sampled as their cumulative ``_count`` / ``_sum``, so
observation rates (e.g. deliveries traced per second) fall out of the
same delta machinery. Counter resets (a component restarting with a
fresh registry series) clamp to a zero-rate point rather than a huge
negative one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.obs.metrics import (
    Histogram,
    LabelItems,
    MetricsRegistry,
    get_default_registry,
)

#: One sample: (logical-clock ms, value at that instant).
Point = Tuple[int, float]

#: Default ring size: a day of 5-minute samples.
DEFAULT_MAX_SAMPLES = 288

#: Eight-level bar glyphs for sparkline-style rendering.
_SPARK_GLYPHS = " ▁▂▃▄▅▆▇█"


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class TimeSeriesStore:
    """Ring-buffered history of every registry series, with rates.

    ``sample()`` is cheap (one pass over the registry) and idempotent per
    logical instant -- calling it twice without advancing the clock
    overwrites the last point instead of recording a zero-dt artifact.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 2:
            raise ValueError("need at least two samples for rates")
        self._registry = registry
        self._max_samples = max_samples
        self._series: Dict[Tuple[str, LabelItems], Deque[Point]] = {}
        self._kinds: Dict[str, str] = {}

    @property
    def registry(self) -> MetricsRegistry:
        """The registry being sampled (the process default when unset)."""
        return self._registry if self._registry is not None \
            else get_default_registry()

    # -- sampling --------------------------------------------------------
    def sample(self, now_ms: int) -> int:
        """Snapshot every counter/gauge (and histogram count/sum).

        Returns the number of series touched. ``now_ms`` is the logical
        instant the sample represents; callers drive it from their
        :class:`~repro.clock.LogicalClock`.
        """
        touched = 0
        for name, labels, metric in self.registry:
            items = _label_items(labels)
            if isinstance(metric, Histogram):
                self._record(f"{name}_count", items, now_ms,
                             float(metric.count), kind="counter")
                self._record(f"{name}_sum", items, now_ms,
                             metric.sum, kind="counter")
                touched += 2
            else:
                self._record(name, items, now_ms, float(metric.value),
                             kind=metric.kind)
                touched += 1
        return touched

    def _record(self, name: str, items: LabelItems, now_ms: int,
                value: float, kind: str) -> None:
        key = (name, items)
        points = self._series.get(key)
        if points is None:
            points = deque(maxlen=self._max_samples)
            self._series[key] = points
            self._kinds[name] = kind
        if points and points[-1][0] == now_ms:
            points[-1] = (now_ms, value)
        else:
            points.append((now_ms, value))

    # -- raw series ------------------------------------------------------
    def names(self) -> List[str]:
        """Every sampled series name, sorted."""
        return sorted(self._kinds)

    def kind(self, name: str) -> Optional[str]:
        """``counter`` / ``gauge`` for a sampled name, None if unknown."""
        return self._kinds.get(name)

    def points(self, name: str, **labels: object) -> List[Point]:
        """The retained (t_ms, value) points of one exact series."""
        return list(self._series.get((name, _label_items(labels)), ()))

    def total_points(self, name: str) -> List[Point]:
        """Per-instant sum of a name across all its label sets."""
        sums: Dict[int, float] = {}
        for (n, __), points in self._series.items():
            if n != name:
                continue
            for t, value in points:
                sums[t] = sums.get(t, 0.0) + value
        return sorted(sums.items())

    def latest(self, name: str, **labels: object) -> Optional[float]:
        """Most recent sampled value of one exact series, or None."""
        points = self._series.get((name, _label_items(labels)))
        return points[-1][1] if points else None

    def latest_total(self, name: str) -> float:
        """Most recent per-instant sum of a name across label sets."""
        points = self.total_points(name)
        return points[-1][1] if points else 0.0

    # -- derived rates ---------------------------------------------------
    @staticmethod
    def rates(points: List[Point]) -> List[Point]:
        """Per-second rates from consecutive cumulative points.

        Each output point sits at the *end* of its delta interval. A
        negative delta is a counter reset: the rate clamps to zero for
        that interval instead of going negative.
        """
        out: List[Point] = []
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            dt_ms = t1 - t0
            if dt_ms <= 0:
                continue
            delta = max(0.0, v1 - v0)
            out.append((t1, delta * 1000.0 / dt_ms))
        return out

    def total_rate_points(self, name: str) -> List[Point]:
        """Events/sec of a counter summed across all its label sets."""
        return self.rates(self.total_points(name))

    def __len__(self) -> int:
        return len(self._series)


def sparkline(values: List[float], width: int = 48) -> str:
    """Render a series as a fixed-width unicode sparkline.

    Values are min/max normalized over the rendered window; longer
    series are tail-truncated to ``width`` (the monitor cares about the
    recent past).
    """
    if not values:
        return ""
    tail = values[-width:]
    lo, hi = min(tail), max(tail)
    span = hi - lo
    glyphs = []
    for value in tail:
        if span <= 0:
            level = 1 if hi > 0 else 0
        else:
            level = 1 + int((value - lo) / span * (len(_SPARK_GLYPHS) - 2))
        glyphs.append(_SPARK_GLYPHS[level])
    return "".join(glyphs)
