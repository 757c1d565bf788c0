"""Deterministic fault injection for the §2 delivery pipeline.

The paper claims the Scribe→mover pipeline is "robust with respect to
transient failures"; this module makes that claim testable. A
:class:`FaultPlan` is a seeded list of :class:`FaultRule` entries, each
naming an injection *site* (an fnmatch pattern over dotted site names such
as ``hdfs.staging-east.write`` or ``aggregator.east-agg-000.receive``), a
fault *kind*, and an optional logical-time window. Instrumented components
call :func:`fault_point` at their named sites; when no injector is
installed the call is a cheap no-op, so production paths pay nothing.

The injector never *performs* the failure itself -- it only reports which
rule fired. Each call site translates the rule's kind into its local
failure mode (``HDFSUnavailableError``, an aggregator crash, a ZooKeeper
session expiry, a dropped send, a mover process crash). That keeps fault
semantics next to the code they break and avoids import cycles.

Every fired rule increments ``faults_injected_total{site=,kind=}`` so soak
runs can prove the plan actually exercised its failure windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from random import Random
from typing import List, Optional

from repro.clock import LogicalClock
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry

#: Fault kinds understood by the instrumented call sites.
KIND_UNAVAILABLE = "unavailable"   # HDFS namenode outage window
KIND_CRASH = "crash"               # process crash (aggregator or mover)
KIND_ERROR = "error"               # transient send failure (nothing delivered)
KIND_ACK_LOST = "ack_lost"         # delivered, but the ack is lost (duplicate!)
KIND_EXPIRE_SESSION = "expire_session"  # ZooKeeper session expiry

VALID_KINDS = frozenset({
    KIND_UNAVAILABLE, KIND_CRASH, KIND_ERROR, KIND_ACK_LOST,
    KIND_EXPIRE_SESSION,
})


class InjectedFault(Exception):
    """A transient failure injected by a :class:`FaultInjector`."""


class InjectedCrash(InjectedFault):
    """An injected process crash: the surrounding operation dies mid-way.

    Raised by crash-window sites (e.g. the log mover between its
    delete/rename/delete-staged steps). Harnesses treat it as process
    death: catch it at the top level and re-run the operation, exactly as
    an operator would restart the crashed process.
    """


@dataclass
class FaultRule:
    """One failure to inject: where, what, when, and how often.

    ``site`` is an fnmatch pattern over dotted site names. ``start_ms`` /
    ``end_ms`` bound the logical-time window in which the rule is armed
    (``None`` means unbounded on that side). ``probability`` draws from
    the injector's seeded RNG, ``after_calls`` skips the first N matching
    calls, and ``max_fires`` retires the rule after it has fired N times
    -- together they express both "flaky with rate p" and "exactly the
    Kth operation fails" deterministically.
    """

    site: str
    kind: str
    start_ms: Optional[int] = None
    end_ms: Optional[int] = None
    probability: float = 1.0
    after_calls: int = 0
    max_fires: Optional[int] = None
    calls_seen: int = field(default=0, repr=False)
    fires: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def matches_site(self, site: str) -> bool:
        """True when ``site`` falls under this rule's pattern."""
        return fnmatchcase(site, self.site)

    def in_window(self, now_ms: int) -> bool:
        """True when the logical time lies inside the rule's window."""
        if self.start_ms is not None and now_ms < self.start_ms:
            return False
        if self.end_ms is not None and now_ms >= self.end_ms:
            return False
        return True

    @property
    def exhausted(self) -> bool:
        """True once the rule has fired ``max_fires`` times."""
        return self.max_fires is not None and self.fires >= self.max_fires


class FaultPlan:
    """An ordered collection of :class:`FaultRule` entries."""

    def __init__(self, rules: Optional[List[FaultRule]] = None) -> None:
        self.rules: List[FaultRule] = list(rules or [])

    def add(self, site: str, kind: str, **kwargs) -> FaultRule:
        """Append a rule (keyword args forward to :class:`FaultRule`)."""
        rule = FaultRule(site=site, kind=kind, **kwargs)
        self.rules.append(rule)
        return rule

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.rules)} rule(s))"


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at named sites under a logical clock.

    Probability draws come from one seeded ``random.Random``, so a given
    (plan, seed, call sequence) always injects the same faults -- the
    property that makes chaos soaks replayable bug reports.
    """

    def __init__(self, plan: FaultPlan, clock: Optional[LogicalClock] = None,
                 seed: int = 0) -> None:
        self.plan = plan
        self._clock = clock
        self._rng = Random(seed)
        self.enabled = True
        self.injected_total = 0

    def check(self, site: str) -> Optional[FaultRule]:
        """Return the first armed rule firing at ``site``, if any.

        The matched rule's counters advance even when the probability draw
        declines to fire, keeping ``after_calls`` deterministic.
        """
        if not self.enabled:
            return None
        now_ms = self._clock.now() if self._clock is not None else 0
        for rule in self.plan.rules:
            if rule.exhausted or not rule.matches_site(site):
                continue
            if not rule.in_window(now_ms):
                continue
            rule.calls_seen += 1
            if rule.calls_seen <= rule.after_calls:
                continue
            if rule.probability < 1.0 and \
                    self._rng.random() >= rule.probability:
                continue
            rule.fires += 1
            self.injected_total += 1
            get_default_registry().counter(
                obs_names.FAULTS_INJECTED, site=site, kind=rule.kind).inc()
            return rule
        return None

    def disable(self) -> None:
        """Stop injecting (used to drain a soak run cleanly)."""
        self.enabled = False


# -- process-wide default (mirrors the obs registry/tracer pattern) --------
_default_injector: Optional[FaultInjector] = None


def get_default_injector() -> Optional[FaultInjector]:
    """The process-wide injector, or None when fault injection is off."""
    return _default_injector


def set_default_injector(injector: Optional[FaultInjector]) -> None:
    """Install (or, with None, remove) the process-wide injector."""
    global _default_injector
    _default_injector = injector


def fault_point(site: str) -> Optional[FaultRule]:
    """Consult the default injector at a named site (no-op when absent)."""
    injector = _default_injector
    if injector is None:
        return None
    return injector.check(site)


def crash_point(site: str) -> None:
    """Die mid-operation if a crash fault is armed at ``site``: the one
    definition of a crash window, shared by every publisher.

    A log-mover crash (a ``logmover.*`` site) is counted, labelled by
    site, *before* raising -- a crashed process cannot report its own
    death afterward, and the monitor's ``mover_crash`` alert keys off
    ``logmover_crashes_total``.
    """
    rule = fault_point(site)
    if rule is not None and rule.kind == KIND_CRASH:
        if site.startswith("logmover."):
            get_default_registry().counter(obs_names.MOVER_CRASHES,
                                           site=site).inc()
        raise InjectedCrash(f"injected crash at {site}")
