"""E19 -- continuous pipeline monitoring under a fault storm.

Monitoring is only trustworthy if it is *calibrated*: a storm must fire
the alert for every injected outage class (zero false negatives), a
clean day must fire nothing at all (zero false positives), and the
per-(category, hour) data-quality verdicts must agree with the chaos
harness's independent conservation audit

    accepted == landed + dropped + quarantined

This benchmark runs both legs of that contract through the chaos soak
with a :class:`PipelineMonitor` attached:

* **storm leg** -- the seeded fault storm (staging-HDFS outages, an
  aggregator crash, mover crashes) must fire and later resolve the
  matching alert for every injected window, and every closed hour must
  reconcile to ``complete``;
* **clean leg** -- identical traffic with no faults must leave the
  alert log empty.

Runs two ways:

* under pytest (with pytest-benchmark) as part of the bench suite;
* as a script -- ``python benchmarks/bench_e19_monitor.py [--smoke]``
  -- for CI, emitting ``BENCH_e19.json`` at the repo root.  The module
  deliberately avoids importing ``benchmarks.conftest`` so script mode
  works without the repo root on ``sys.path``.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.faults.chaos import ALERT_EXPECTATIONS, run_chaos
from repro.obs.metrics import MetricsRegistry, set_default_registry
from repro.obs.monitor import VERDICT_COMPLETE

SEED = 1
HOURS = 3
SMOKE_HOURS = 2

_RECORD_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_e19.json")


def _merge_record(section, payload, hours):
    """Accumulate one section into BENCH_e19.json (read-modify-write)."""
    record = {}
    if os.path.exists(_RECORD_PATH):
        with open(_RECORD_PATH) as handle:
            record = json.load(handle)
    record["experiment"] = "E19 continuous pipeline monitoring"
    record["workload"] = {"seed": SEED, "hours": hours}
    record[section] = payload
    with open(_RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_leg(hours, faults):
    """One monitored soak in a fresh registry; returns (report, wall_s)."""
    set_default_registry(MetricsRegistry())
    start = time.perf_counter()
    report = run_chaos(SEED, hours=hours, monitor=True, faults=faults)
    return report, time.perf_counter() - start


def storm_scenario(hours):
    """Faulted leg: every injected outage class fires and resolves."""
    report, wall_s = _run_leg(hours, faults=True)
    engine = report.monitor.engine

    assert report.ok, report.summary()
    # Zero false negatives: each injected fault class fired its alert
    # (one episode per distinct outage window) and none is still firing.
    coverage = {}
    for _prefix, _kind, alert_name in ALERT_EXPECTATIONS:
        episodes = engine.episodes(alert_name)
        coverage[alert_name] = {
            "episodes": len(episodes),
            "resolved": sum(1 for e in episodes if not e.active),
        }
        assert episodes, f"no {alert_name!r} episode fired"
        assert all(not e.active for e in episodes), (
            f"{alert_name!r} never resolved")
    assert report.alerts_unresolved == 0

    # Verdict agreement with the conservation identity: every closed
    # hour reconciles, and the sums match the run totals (run_chaos
    # already fails `report.ok` on any disagreement; re-check here so
    # the record carries the evidence explicitly).
    audits = report.monitor.audits
    assert audits and all(a.conserved for a in audits)
    assert all(v == VERDICT_COMPLETE for v in report.hour_verdicts.values())
    assert sum(a.accepted for a in audits) == report.accepted
    assert sum(a.landed for a in audits) == report.landed

    return {
        "wall_s": wall_s,
        "accepted": report.accepted,
        "landed": report.landed,
        "dropped": report.dropped,
        "quarantined": report.quarantined,
        "faults_injected": report.faults_injected,
        "alerts_fired": report.alerts_fired,
        "alerts_resolved": report.alerts_resolved,
        "alerts_unresolved": report.alerts_unresolved,
        "alert_coverage": coverage,
        "hour_verdicts": dict(report.hour_verdicts),
        "hours_conserved": sum(1 for a in audits if a.conserved),
    }


def clean_scenario(hours):
    """Fault-free leg: identical traffic, zero false-positive alerts."""
    report, wall_s = _run_leg(hours, faults=False)

    assert report.ok, report.summary()
    assert report.alerts_fired == 0, (
        f"{report.alerts_fired} false-positive alert(s) on a clean day")
    assert report.faults_injected == 0
    audits = report.monitor.audits
    assert audits and all(a.conserved for a in audits)
    assert all(a.verdict == VERDICT_COMPLETE for a in audits)

    return {
        "wall_s": wall_s,
        "accepted": report.accepted,
        "landed": report.landed,
        "alerts_fired": report.alerts_fired,
        "hour_verdicts": dict(report.hour_verdicts),
        "hours_conserved": sum(1 for a in audits if a.conserved),
    }


# ---------------------------------------------------------------- pytest

def test_storm_fires_every_alert(benchmark):
    result = benchmark.pedantic(lambda: storm_scenario(HOURS),
                                rounds=1, iterations=1)
    _merge_record("storm", result, HOURS)


def test_clean_day_fires_nothing(benchmark):
    result = benchmark.pedantic(lambda: clean_scenario(HOURS),
                                rounds=1, iterations=1)
    _merge_record("clean", result, HOURS)


# ---------------------------------------------------------------- script

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="shorter soak for CI smoke runs")
    args = parser.parse_args(argv)
    hours = SMOKE_HOURS if args.smoke else HOURS

    storm = storm_scenario(hours)
    clean = clean_scenario(hours)
    _merge_record("storm", storm, hours)
    _merge_record("clean", clean, hours)

    print(f"=== E19 storm leg (seed {SEED}, {hours}h) ===")
    print(f"  faults injected        : {storm['faults_injected']}")
    print(f"  alert episodes         : {storm['alerts_fired']} fired, "
          f"{storm['alerts_resolved']} resolved, "
          f"{storm['alerts_unresolved']} stuck")
    for name, cov in sorted(storm["alert_coverage"].items()):
        print(f"    {name:20s} {cov['episodes']} episode(s), "
              f"{cov['resolved']} resolved")
    print(f"  hours conserved        : {storm['hours_conserved']}"
          f"/{len(storm['hour_verdicts'])}")
    print(f"=== E19 clean leg ({hours}h) ===")
    print(f"  alert episodes         : {clean['alerts_fired']} "
          f"(zero false positives)")
    print(f"  hours conserved        : {clean['hours_conserved']}"
          f"/{len(clean['hour_verdicts'])}")
    print(f"record: {_RECORD_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
