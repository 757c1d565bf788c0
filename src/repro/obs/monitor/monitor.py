"""The monitor facade: sample, audit, evaluate -- one tick at a time.

:class:`PipelineMonitor` bundles the three tentpole pieces --
:class:`~repro.obs.monitor.timeseries.TimeSeriesStore`,
:class:`~repro.obs.monitor.audit.DataQualityAuditor` and
:class:`~repro.obs.monitor.alerts.AlertEngine` -- behind a single
``tick(now_ms)``: snapshot the registry, re-audit every closed hour,
run the alert rules. Callers own the cadence: the chaos soak ticks after
every traffic slice and hour boundary, the Oink scheduler's
``quality_audit`` job ticks hourly, the ``repro monitor`` CLI ticks as
it replays a day.

:func:`standard_rules` encodes the pipeline's failure modes as the
default rule set; each maps an injectable fault to the metric symptom it
actually produces:

==========================  =============================================
``staging_outage``          aggregators buffering to local disk
                            (``scribe_aggregator_disk_buffered_messages``
                            > 0) because staging HDFS is down
``delivery_backlog``        daemon buffers piling past a depth threshold
                            (no live aggregator to send to)
``aggregator_failover``     ``scribe_daemon_failovers_total`` moving --
                            an aggregator died mid-stream
``mover_crash``             ``logmover_crashes_total`` moving -- a move
                            died between its commit steps
``completeness``            the auditor verdicting any closed hour
                            late/incomplete/missing
``seasonal_accepted``       accept rate off its hour-of-day baseline
==========================  =============================================
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.obs import names as obs_names
from repro.obs.metrics import MetricsRegistry, get_default_registry
from repro.obs.monitor.alerts import (
    AlertEngine,
    AlertRule,
    CompletenessRule,
    DeltaRule,
    MonitorContext,
    SeasonalRule,
    ThresholdRule,
    format_alerts,
)
from repro.obs.monitor.audit import (
    DataQualityAuditor,
    HourAudit,
    format_audits,
)
from repro.obs.monitor.timeseries import (
    DEFAULT_MAX_SAMPLES,
    TimeSeriesStore,
    sparkline,
)


def standard_rules(backlog_threshold: int = 200,
                   seasonal_tolerance: float = 0.6) -> List[AlertRule]:
    """The default rule set covering the pipeline's failure modes."""
    return [
        ThresholdRule("staging_outage",
                      obs_names.AGGREGATOR_DISK_BUFFERED, threshold=0),
        ThresholdRule("delivery_backlog", obs_names.DAEMON_BUFFER_DEPTH,
                      threshold=backlog_threshold),
        DeltaRule("aggregator_failover", obs_names.DAEMON_FAILOVERS),
        DeltaRule("mover_crash", obs_names.MOVER_CRASHES),
        CompletenessRule("completeness"),
        SeasonalRule("seasonal_accepted", obs_names.DAEMON_ACCEPTED,
                     tolerance=seasonal_tolerance),
    ]


class PipelineMonitor:
    """Continuous monitoring over one registry and (optionally) one
    pipeline's auditor.

    Without an auditor the monitor still samples and alerts on series --
    the shape used for registry-only deployments and unit tests.

    The monitor reads the registry once as it attaches (attach it before
    any traffic) and every rule takes its baseline from that reading, so
    an event between the attach and the first tick is seen.
    """

    def __init__(self, auditor: Optional[DataQualityAuditor] = None,
                 rules: Optional[Sequence[AlertRule]] = None,
                 registry: Optional[MetricsRegistry] = None,
                 max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        self._registry = registry
        self.store = TimeSeriesStore(registry=registry,
                                     max_samples=max_samples)
        self.auditor = auditor
        self.engine = AlertEngine(
            standard_rules() if rules is None else rules,
            registry=registry)
        self.audits: List[HourAudit] = []
        self.ticks = 0
        for rule in self.engine.rules:
            rule.attach(self.registry)

    @property
    def registry(self) -> MetricsRegistry:
        """The registry being monitored (the process default when unset)."""
        return self._registry if self._registry is not None \
            else get_default_registry()

    def tick(self, now_ms: int) -> MonitorContext:
        """One monitoring pass at logical instant ``now_ms``."""
        self.store.sample(now_ms)
        if self.auditor is not None:
            self.audits = self.auditor.audit(now_ms)
        ctx = MonitorContext(store=self.store, audits=self.audits,
                             now_ms=now_ms)
        self.engine.evaluate(ctx)
        self.ticks += 1
        self.registry.counter(obs_names.MONITOR_SAMPLES).inc()
        return ctx

    # -- rendering -------------------------------------------------------
    def render_series(self, specs: Sequence = None,
                      width: int = 48) -> str:
        """Sparkline block for the CLI: one row per requested series.

        ``specs`` is a sequence of ``(label, metric, mode)`` rows where
        mode is ``"rate"`` (counter -> events/sec) or ``"gauge"`` (raw
        sampled values); defaults to the pipeline's headline series.
        """
        if specs is None:
            specs = (
                ("accepted msg/s", obs_names.DAEMON_ACCEPTED, "rate"),
                ("landed msg/s", obs_names.MOVER_MESSAGES_MOVED, "rate"),
                ("daemon backlog", obs_names.DAEMON_BUFFER_DEPTH, "gauge"),
                ("disk buffered", obs_names.AGGREGATOR_DISK_BUFFERED,
                 "gauge"),
            )
        lines = []
        for label, metric, mode in specs:
            points = self.store.total_rate_points(metric) \
                if mode == "rate" else self.store.total_points(metric)
            values = [v for __, v in points]
            peak = max(values) if values else 0.0
            lines.append(f"  {label:16s} |{sparkline(values, width):{width}s}"
                         f"| peak {peak:g}")
        return "\n".join(lines)

    def render(self, width: int = 48) -> str:
        """The full monitor panel: series, completeness, alert log."""
        return "\n".join([
            f"monitor: {self.ticks} tick(s), "
            f"{len(self.store)} series sampled",
            self.render_series(width=width),
            "",
            format_audits(self.audits),
            "",
            format_alerts(self.engine),
        ])
