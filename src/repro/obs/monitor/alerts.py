"""Alert rules with a firing/resolved lifecycle over stored series.

Rules are evaluated against a :class:`MonitorContext` -- the
:class:`~repro.obs.monitor.timeseries.TimeSeriesStore`, the latest
:class:`~repro.obs.monitor.audit.HourAudit` list, and the logical now --
each time the monitor ticks. A rule returns a human-readable message
while its condition holds and ``None`` otherwise; the
:class:`AlertEngine` turns that into episodes: an alert *fires* on the
first firing evaluation, stays active while the condition holds, and
*resolves* on the first quiet one. Episode counts surface as
``alerts_fired_total{rule=}`` / ``alerts_resolved_total{rule=}``
counters plus an ``alerts_active`` gauge, so the alerting layer is
itself observable (and auditable by the chaos soak).

Four rule families cover the pipeline's failure modes:

* :class:`ThresholdRule` -- a gauge (summed across label sets) crossing
  a level, e.g. aggregators falling back to local disk buffering during
  a staging-HDFS outage;
* :class:`DeltaRule` -- an event counter moving at all, e.g. daemon
  failovers or log-mover crashes; clears after ``clear_after`` quiet
  ticks since events are instantaneous but worth a visible episode;
* :class:`SeasonalRule` -- the current hour's rate deviating from that
  hour-of-day's baseline built from prior days of stored history (the
  classic "site traffic fell off a cliff at 3pm" detector);
* :class:`CompletenessRule` -- any audited (category, hour) carrying an
  unhealthy verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.clock import MILLIS_PER_MINUTE
from repro.obs import names as obs_names
from repro.obs.metrics import MetricsRegistry, get_default_registry
from repro.obs.monitor.audit import (
    HourAudit,
    VERDICT_INCOMPLETE,
    VERDICT_LATE,
    VERDICT_MISSING,
)
from repro.obs.monitor.timeseries import TimeSeriesStore

HOURS_PER_DAY = 24


@dataclass
class MonitorContext:
    """Everything a rule may look at during one evaluation."""

    store: TimeSeriesStore
    audits: List[HourAudit]
    now_ms: int


@dataclass
class Alert:
    """One firing episode of one rule."""

    rule: str
    message: str
    fired_at_ms: int
    resolved_at_ms: Optional[int] = None

    @property
    def active(self) -> bool:
        """True while the episode is still firing (not yet resolved)."""
        return self.resolved_at_ms is None


class AlertRule:
    """Base class: subclasses implement :meth:`evaluate`."""

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, ctx: MonitorContext) -> Optional[str]:
        """The firing message while the condition holds, else None."""
        raise NotImplementedError

    def attach(self, registry: MetricsRegistry) -> None:
        """Take any baseline from the registry as the monitor attaches,
        before any traffic. Stateless rules need none."""


class ThresholdRule(AlertRule):
    """Fires while a gauge/counter total sits past a level.

    ``for_samples`` requires the condition to hold for that many
    consecutive evaluations before firing -- debounce against a single
    noisy sample.
    """

    def __init__(self, name: str, metric: str, threshold: float = 0.0,
                 above: bool = True, for_samples: int = 1) -> None:
        super().__init__(name)
        self.metric = metric
        self.threshold = threshold
        self.above = above
        self.for_samples = max(1, for_samples)
        self._consecutive = 0

    def evaluate(self, ctx: MonitorContext) -> Optional[str]:
        value = ctx.store.latest_total(self.metric)
        holding = value > self.threshold if self.above \
            else value < self.threshold
        self._consecutive = self._consecutive + 1 if holding else 0
        if self._consecutive < self.for_samples:
            return None
        op = ">" if self.above else "<"
        return f"{self.metric}={value:g} {op} {self.threshold:g}"


class DeltaRule(AlertRule):
    """Fires when an event counter increases; clears after quiet ticks.

    The baseline is the counter as the monitor found it when it attached
    -- increments from before monitoring started are history, not events,
    but one between the attach and the first tick is an event. A rule
    never attached takes its first evaluation as the baseline.
    """

    def __init__(self, name: str, metric: str, clear_after: int = 3) -> None:
        super().__init__(name)
        self.metric = metric
        self.clear_after = max(1, clear_after)
        self._last: Optional[float] = None
        self._quiet = 0
        self._since_fire = 0.0

    def attach(self, registry: MetricsRegistry) -> None:
        self._last = registry.total(self.metric)

    def evaluate(self, ctx: MonitorContext) -> Optional[str]:
        value = ctx.store.latest_total(self.metric)
        if self._last is None:
            self._last = value
            return None
        delta = value - self._last
        self._last = value
        if delta > 0:
            self._since_fire += delta
            self._quiet = 0
        else:
            self._quiet += 1
        if self._since_fire and self._quiet < self.clear_after:
            return f"{self.metric} +{self._since_fire:g}"
        self._since_fire = 0.0
        return None


class SeasonalRule(AlertRule):
    """Fires when the current hour's rate deviates from its seasonal norm.

    The baseline for hour-of-day ``h`` is the mean of every stored rate
    point that fell in hour ``h`` of a *previous* day at or before the
    current minute of the hour -- a partial hour is compared with the
    same part of earlier hours, never with their whole -- so the rule
    needs at least one full prior day of history before it can fire,
    and a store sized to hold it (the monitor CLI replays multiple days).
    ``tolerance`` is the allowed relative deviation: 0.6 means the
    current mean rate may sit anywhere in [0.4x, 1.6x] of baseline.
    """

    def __init__(self, name: str, metric: str, tolerance: float = 0.6,
                 min_baseline_rate: float = 0.001) -> None:
        super().__init__(name)
        self.metric = metric
        self.tolerance = tolerance
        self.min_baseline_rate = min_baseline_rate

    @staticmethod
    def _slot(t_ms: int) -> Tuple[int, int, int]:
        """(day index, hour of day, minute of hour) of a rate point.

        Rate points sit at the *end* of their delta interval, so an
        instant exactly on an hour boundary belongs to the hour before.
        """
        hour_index, minute = divmod(max(0, t_ms - 1) // MILLIS_PER_MINUTE, 60)
        return hour_index // HOURS_PER_DAY, hour_index % HOURS_PER_DAY, minute

    def evaluate(self, ctx: MonitorContext) -> Optional[str]:
        day, hour_of_day, minute = self._slot(ctx.now_ms)
        baseline_points: List[float] = []
        current_points: List[float] = []
        for t, rate in ctx.store.rates(ctx.store.total_points(self.metric)):
            point_day, point_hod, point_minute = self._slot(t)
            if point_hod != hour_of_day:
                continue
            if point_day < day:
                if point_minute <= minute:
                    baseline_points.append(rate)
            elif point_day == day:
                current_points.append(rate)
        if not baseline_points or not current_points:
            return None
        baseline = sum(baseline_points) / len(baseline_points)
        current = sum(current_points) / len(current_points)
        if baseline < self.min_baseline_rate:
            return None
        low = baseline * (1.0 - self.tolerance)
        high = baseline * (1.0 + self.tolerance)
        if low <= current <= high:
            return None
        direction = "below" if current < low else "above"
        return (f"{self.metric} rate {current:.3f}/s {direction} seasonal "
                f"baseline {baseline:.3f}/s for hour {hour_of_day:02d} "
                f"(tolerance {self.tolerance:g})")


class CompletenessRule(AlertRule):
    """Fires while any audited hour carries an unhealthy verdict."""

    DEFAULT_VERDICTS = (VERDICT_LATE, VERDICT_INCOMPLETE, VERDICT_MISSING)

    def __init__(self, name: str = "completeness",
                 verdicts: Sequence[str] = DEFAULT_VERDICTS) -> None:
        super().__init__(name)
        self.verdicts = frozenset(verdicts)

    def evaluate(self, ctx: MonitorContext) -> Optional[str]:
        unhealthy = [a for a in ctx.audits if a.verdict in self.verdicts]
        if not unhealthy:
            return None
        worst = unhealthy[:3]
        detail = ", ".join(
            f"{a.hour.category}/{a.hour.date_str}/{a.hour.hour:02d}="
            f"{a.verdict}" for a in worst)
        more = f" (+{len(unhealthy) - len(worst)} more)" \
            if len(unhealthy) > len(worst) else ""
        return f"{len(unhealthy)} unhealthy hour(s): {detail}{more}"


class AlertEngine:
    """Runs rules each tick and manages firing/resolved episodes."""

    def __init__(self, rules: Sequence[AlertRule] = (),
                 registry: Optional[MetricsRegistry] = None) -> None:
        self._rules: List[AlertRule] = []
        self._active: Dict[str, Alert] = {}
        self._history: List[Alert] = []
        self._registry = registry
        for rule in rules:
            self.add_rule(rule)

    @property
    def registry(self) -> MetricsRegistry:
        """The registry alert metrics land in (process default if unset)."""
        return self._registry if self._registry is not None \
            else get_default_registry()

    def add_rule(self, rule: AlertRule) -> None:
        """Register a rule; names must be unique within the engine."""
        if any(existing.name == rule.name for existing in self._rules):
            raise ValueError(f"duplicate alert rule {rule.name!r}")
        self._rules.append(rule)

    @property
    def rules(self) -> List[AlertRule]:
        """The registered rules, in evaluation order (a copy)."""
        return list(self._rules)

    # -- evaluation ------------------------------------------------------
    def evaluate(self, ctx: MonitorContext) -> List[Alert]:
        """Run every rule once; returns alerts that *changed* state."""
        registry = self.registry
        changed: List[Alert] = []
        for rule in self._rules:
            message = rule.evaluate(ctx)
            active = self._active.get(rule.name)
            if message is not None and active is None:
                alert = Alert(rule=rule.name, message=message,
                              fired_at_ms=ctx.now_ms)
                self._active[rule.name] = alert
                self._history.append(alert)
                registry.counter(obs_names.ALERTS_FIRED,
                                 rule=rule.name).inc()
                changed.append(alert)
            elif message is not None:
                active.message = message  # refresh while firing
            elif active is not None:
                active.resolved_at_ms = ctx.now_ms
                del self._active[rule.name]
                registry.counter(obs_names.ALERTS_RESOLVED,
                                 rule=rule.name).inc()
                changed.append(active)
        registry.gauge(obs_names.ALERTS_ACTIVE).set(len(self._active))
        return changed

    # -- queries ---------------------------------------------------------
    def active(self) -> List[Alert]:
        """Currently-firing alerts, oldest first."""
        return sorted(self._active.values(), key=lambda a: a.fired_at_ms)

    def history(self) -> List[Alert]:
        """Every episode ever fired (active ones included), in order."""
        return list(self._history)

    def episodes(self, rule: str) -> List[Alert]:
        """Episodes of one rule, in firing order."""
        return [a for a in self._history if a.rule == rule]

    def fired(self, rule: str) -> int:
        """How many episodes a rule has fired."""
        return len(self.episodes(rule))

    def all_resolved(self) -> bool:
        """True when nothing is firing."""
        return not self._active


def format_alerts(engine: AlertEngine) -> str:
    """Render the alert episode log the monitor CLI prints."""
    history = engine.history()
    if not history:
        return "alerts: none fired"
    lines = []
    for alert in history:
        fired = _fmt_minutes(alert.fired_at_ms)
        if alert.active:
            lines.append(f"  FIRING   {alert.rule:24s} since {fired:>8s}  "
                         f"{alert.message}")
        else:
            resolved = _fmt_minutes(alert.resolved_at_ms)
            lines.append(f"  resolved {alert.rule:24s} {fired:>8s} -> "
                         f"{resolved:<8s} {alert.message}")
    return "\n".join([f"alerts: {len(history)} episode(s), "
                      f"{len(engine.active())} firing"] + lines)


def _fmt_minutes(t_ms: int) -> str:
    minutes = t_ms // 60000
    return f"{minutes // 60:d}h{minutes % 60:02d}m"
