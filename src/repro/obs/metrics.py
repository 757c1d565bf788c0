"""The metrics registry: counters, gauges, and histograms with labels.

The paper's whole argument is measured -- delivery ratios (§2), mappers
spawned and bytes scanned (§4), job latencies (§3) -- so measurement is a
first-class subsystem here rather than ad-hoc dataclasses per layer.
Every pipeline stage records into a process-wide default
:class:`MetricsRegistry` (swappable for tests), and the registry
exports two surfaces: Prometheus-style text exposition for scraping and a
JSON-able snapshot for dashboards.

Metrics are keyed by name plus a label dict, e.g.::

    registry.counter("scribe_daemon_sent_total", host="east-host-0000").inc()
    registry.histogram("pipeline_delivery_latency_ms").observe(1500)

Histograms keep raw observations (simulation scale makes this cheap) and
answer exact percentile queries -- ``p50``/``p95``/``p99`` in the
exposition -- via nearest-rank on the sorted sample.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple, Union

LabelItems = Tuple[Tuple[str, str], ...]

#: Quantiles emitted in the text exposition for every histogram.
EXPOSED_QUANTILES = (0.5, 0.95, 0.99)


class MetricTypeError(TypeError):
    """A metric name was reused with a different metric type."""


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_labels(items: LabelItems) -> str:
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + inner + "}"


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


class Counter:
    """A monotonically-increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """An instantaneous value that can move in both directions."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value: Union[int, float] = 0

    def set(self, value: Union[int, float]) -> None:
        """Set the gauge to an absolute value."""
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        """Move the gauge up by ``amount``."""
        self.value += amount

    def dec(self, amount: Union[int, float] = 1) -> None:
        """Move the gauge down by ``amount``."""
        self.value -= amount


class Histogram:
    """A distribution of observations with exact percentile queries.

    Observations stay in recording order; ``sum`` is a running total
    accumulated in that order, and percentiles read a sorted copy that
    the next ``observe`` invalidates.
    """

    kind = "histogram"

    def __init__(self) -> None:
        self._values: List[float] = []
        self._sum = 0.0
        self._sorted: Optional[List[float]] = None

    def observe(self, value: Union[int, float]) -> None:
        """Record one observation."""
        value = float(value)
        self._values.append(value)
        self._sum += value
        self._sorted = None

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return len(self._values)

    @property
    def sum(self) -> float:
        """Sum of all observations, added in recording order."""
        return self._sum

    def values(self) -> List[float]:
        """A copy of the raw observations, in recording order."""
        return list(self._values)

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile ``p`` in [0, 1], or None when empty.

        Classic nearest-rank: the ``ceil(p * N)``-th smallest observation
        (the 1st for ``p == 0``), so p50 of 1..100 is exactly 50.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError("percentile must be in [0, 1]")
        if not self._values:
            return None
        if self._sorted is None:
            self._sorted = sorted(self._values)
        rank = max(1, math.ceil(p * len(self._values)))
        return self._sorted[rank - 1]


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """All metrics of one process, keyed by name plus a label dict."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], Metric] = {}
        self._kinds: Dict[str, str] = {}
        # (class, name, labels in call order) -> metric: the hot-path
        # look-up, skipping the sort and str() of the canonical key.
        self._memo: Dict[tuple, Metric] = {}

    # -- creation / lookup ----------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for (name, labels), created on first use."""
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for (name, labels), created on first use."""
        return self._get(name, labels, Gauge)

    def histogram(self, name: str, **labels: object) -> Histogram:
        """The histogram for (name, labels), created on first use."""
        return self._get(name, labels, Histogram)

    def _get(self, name: str, labels: Dict[str, object], cls) -> Metric:
        memo_key = (cls, name, *labels.items())
        try:
            return self._memo[memo_key]
        except (KeyError, TypeError):  # TypeError: unhashable label value
            pass
        metric = self._resolve(name, labels, cls)
        # Only all-str label values are memoised: 1, 1.0 and True hash
        # alike but name different series.
        if all(type(value) is str for value in labels.values()):
            self._memo[memo_key] = metric
        return metric

    def _resolve(self, name: str, labels: Dict[str, object], cls) -> Metric:
        kind = self._kinds.get(name)
        if kind is not None and kind != cls.kind:
            raise MetricTypeError(
                f"metric {name!r} already registered as a {kind}, "
                f"requested as a {cls.kind}"
            )
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
            self._kinds[name] = cls.kind
        return metric

    # -- aggregate queries ------------------------------------------------
    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._kinds)

    def series(self, name: str) -> List[Tuple[Dict[str, str], Metric]]:
        """Every (labels, metric) pair registered under ``name``."""
        return [(dict(items), metric)
                for (n, items), metric in sorted(self._metrics.items())
                if n == name]

    def total(self, name: str) -> float:
        """Sum of a counter or gauge across all its label sets."""
        return float(sum(m.value for __, m in self.series(name)
                         if not isinstance(m, Histogram)))

    def merged_histogram(self, name: str) -> Histogram:
        """One histogram folding all of a name's label sets together."""
        merged = Histogram()
        for __, metric in self.series(name):
            if isinstance(metric, Histogram):
                for value in metric.values():
                    merged.observe(value)
        return merged

    def __iter__(self) -> Iterator[Tuple[str, Dict[str, str], Metric]]:
        for (name, items), metric in sorted(self._metrics.items()):
            yield name, dict(items), metric

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export -----------------------------------------------------------
    def expose(self) -> str:
        """Prometheus-style text exposition of every metric.

        Counters and gauges emit one sample line per label set; histograms
        emit summary-style quantile lines (p50/p95/p99) plus ``_sum`` and
        ``_count``. Because those are ``{quantile=...}`` samples with no
        ``_bucket`` lines, the advertised exposition type is ``summary``
        -- a ``# TYPE ... histogram`` header would promise buckets that
        never come and break strict scrapers. Output order is
        deterministic: by name, then labels.
        """
        lines: List[str] = []
        for name in self.names():
            kind = self._kinds[name]
            exposed_kind = "summary" if kind == Histogram.kind else kind
            lines.append(f"# TYPE {name} {exposed_kind}")
            for (n, items), metric in sorted(self._metrics.items()):
                if n != name:
                    continue
                if isinstance(metric, Histogram):
                    for q in EXPOSED_QUANTILES:
                        value = metric.percentile(q)
                        q_items = tuple(sorted(
                            items + (("quantile", str(q)),)))
                        lines.append(
                            f"{name}{_format_labels(q_items)} "
                            f"{_format_value(value if value is not None else 0)}"
                        )
                    labels = _format_labels(items)
                    lines.append(
                        f"{name}_sum{labels} {_format_value(metric.sum)}")
                    lines.append(f"{name}_count{labels} {metric.count}")
                else:
                    lines.append(
                        f"{name}{_format_labels(items)} "
                        f"{_format_value(metric.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """JSON-able snapshot: name -> list of per-label-set samples."""
        out: Dict[str, List[Dict[str, object]]] = {}
        for name, labels, metric in self:
            sample: Dict[str, object] = {"labels": labels,
                                         "type": metric.kind}
            if isinstance(metric, Histogram):
                sample["count"] = metric.count
                sample["sum"] = metric.sum
                sample["p50"] = metric.percentile(0.5)
                sample["p95"] = metric.percentile(0.95)
                sample["p99"] = metric.percentile(0.99)
            else:
                sample["value"] = metric.value
            out.setdefault(name, []).append(sample)
        return out


# -- the process-wide default registry -----------------------------------
_default_registry = MetricsRegistry()


def get_default_registry() -> MetricsRegistry:
    """The process-wide registry every pipeline layer records into."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests, CLI); returns the old one."""
    global _default_registry
    old = _default_registry
    _default_registry = registry
    return old
