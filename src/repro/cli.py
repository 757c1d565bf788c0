"""Command-line interface: drive the pipeline without writing code.

Because the simulated HDFS is in-memory, every invocation is
self-contained: it generates a deterministic workload (from ``--seed``),
runs the pipeline, and answers the query. Identical seeds give identical
answers across invocations.

    python -m repro pipeline --days 3 --users 200
    python -m repro count --pattern '*:profile_click'
    python -m repro funnel --client web
    python -m repro catalog --browse web
    python -m repro report
    python -m repro obs
    python -m repro index query --pattern '*:signup:*:*:*:*'
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analytics.counting import count_events_raw, count_events_sequences
from repro.analytics.funnel import run_funnel
from repro.core.catalog import ClientEventCatalog
from repro.mapreduce.backends import BACKEND_NAMES
from repro.mapreduce.jobtracker import JobTracker
from repro.workload.behavior import signup_funnel_stages
from repro.workload.simulate import WarehouseSimulation


def _parse_date(text: str):
    parts = text.split("-")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("date must be YYYY-MM-DD")
    return tuple(int(p) for p in parts)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for all subcommands."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--users", type=int, default=300,
                        help="synthetic population size (default 300)")
    common.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    common.add_argument("--date", type=_parse_date, default=(2012, 3, 10),
                        metavar="YYYY-MM-DD",
                        help="simulated calendar day (default 2012-03-10)")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Twitter unified-logging reproduction (VLDB 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help_text: str):
        return sub.add_parser(name, help=help_text, parents=[common])

    pipeline = add_parser(
        "pipeline", "run N days end to end and print the dashboard")
    pipeline.add_argument("--days", type=int, default=3)
    pipeline.add_argument("--growth", type=int, default=50,
                          help="extra users per day (default 50)")
    pipeline.add_argument("--scribe", action="store_true",
                          help="deliver through the Scribe path")

    count = add_parser(
        "count", "count events matching a pattern, both query paths")
    count.add_argument("--pattern", required=True,
                       help="e.g. '*:profile_click' or 'web:home:*'")
    count.add_argument("--sessions", action="store_true",
                       help="count sessions containing the event instead")
    count.add_argument("--backend", default="serial",
                       choices=BACKEND_NAMES,
                       help="MapReduce execution backend (default serial)")
    count.add_argument("--workers", type=int, default=None,
                       help="worker count for the processes backend "
                            "(default: min(8, cpu count))")

    funnel = add_parser("funnel", "run the signup funnel")
    funnel.add_argument("--client", default="web",
                        choices=("web", "iphone", "android", "ipad"))
    funnel.add_argument("--users-only", action="store_true",
                        help="count unique users instead of sessions")

    catalog = add_parser("catalog", "browse the event catalog")
    catalog.add_argument("--browse", nargs="*", default=None,
                         metavar="COMPONENT",
                         help="prefix components, e.g. --browse web home")
    catalog.add_argument("--search", default=None,
                         help="pattern, e.g. '*:impression'")

    trend = add_parser("trend", "metric time series across days")
    trend.add_argument("--pattern", required=True,
                       help="event pattern to track")
    trend.add_argument("--days", type=int, default=5)
    trend.add_argument("--growth", type=int, default=40,
                       help="extra users per day (default 40)")
    trend.add_argument("--sessions", action="store_true",
                       help="track sessions containing the event")

    script = add_parser("script", "run a Pig Latin script file")
    script.add_argument("--file", required=True,
                        help="path to the .pig script")
    script.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="parameter substitution, repeatable; DATE "
                             "defaults to the simulated day")

    obs = add_parser(
        "obs", "run the pipeline through Scribe with tracing on and "
               "print the observability snapshot")
    obs.add_argument("--days", type=int, default=1)
    obs.add_argument("--json", action="store_true",
                     help="print the JSON snapshot instead of the "
                          "Prometheus-style exposition")

    index = add_parser(
        "index", "build/inspect/query Elephant Twin index partitions")
    index.add_argument("action", choices=("build", "status", "query"),
                       help="build partitions, report freshness, or run "
                            "a selective query against them")
    index.add_argument("--pattern", default="*:signup:*:*:*:*",
                       help="event pattern for 'query' (default "
                            "'*:signup:*:*:*:*')")
    index.add_argument("--user", type=int, default=None,
                       help="query one user's events instead of a pattern")
    index.add_argument("--backend", default="serial",
                       choices=BACKEND_NAMES,
                       help="MapReduce execution backend (default serial)")
    index.add_argument("--workers", type=int, default=None,
                       help="worker count for the processes backend")

    chaos = sub.add_parser(
        "chaos", help="fault-injection soak asserting zero-loss/"
                      "zero-duplicate delivery through the Scribe path")
    chaos.add_argument("--seed", type=int, default=0,
                       help="storm seed (default 0); identical seeds "
                            "inject identical faults")
    chaos.add_argument("--hours", type=int, default=2,
                       help="simulated hours of traffic (default 2)")
    chaos.add_argument("--monitor", action="store_true",
                       help="attach the pipeline monitor and audit that "
                            "every injected outage fires (and resolves) "
                            "its alert")
    chaos.add_argument("--no-faults", action="store_true",
                       help="run the same traffic without the fault "
                            "storm (with --monitor: assert zero false-"
                            "positive alerts)")
    chaos.add_argument("--streaming", action="store_true",
                       help="land via streaming micro-batches instead "
                            "of hourly moves: arms mid-batch and mid-"
                            "seal crashes plus a held-datacenter replay, "
                            "and asserts sealing and the late re-open")
    chaos.add_argument("--partition", action="store_true",
                       help="sharded-warehouse overload soak: a "
                            "datacenter partition (known-down cool-"
                            "down), a staging outage driving aggregator "
                            "backpressure and bulk-tier QoS shedding, "
                            "and a warehouse shard loss spanning an "
                            "hour boundary")

    mover = sub.add_parser(
        "mover", help="drive the staging-to-warehouse landing pipeline "
                      "over clean traffic and summarize what landed")
    mover.add_argument("--stream", action="store_true",
                       help="use the streaming micro-batch mover with "
                            "event-time watermarks instead of hourly "
                            "boundary moves")
    mover.add_argument("--hours", type=int, default=2,
                       help="simulated hours of traffic (default 2)")
    mover.add_argument("--seed", type=int, default=0,
                       help="traffic seed (default 0)")

    monitor = sub.add_parser(
        "monitor", help="replay a simulated day through the pipeline "
                        "monitor and render series, per-hour verdicts, "
                        "and the alert log")
    monitor.add_argument("--seed", type=int, default=0,
                         help="traffic/storm seed (default 0)")
    monitor.add_argument("--hours", type=int, default=24,
                         help="simulated hours to replay (default 24)")
    monitor.add_argument("--faults", action="store_true",
                         help="inject the chaos fault storm (default: "
                              "clean traffic)")
    monitor.add_argument("--quiet-hour", type=int, action="append",
                         default=[], metavar="H",
                         help="suppress traffic during absolute hour H "
                              "(repeatable); with >= 24h of history the "
                              "seasonal baseline rule flags it")

    add_parser("report", "one-day pipeline summary (quick look)")
    return parser


def _one_day(args) -> WarehouseSimulation:
    simulation = WarehouseSimulation(num_users=args.users, seed=args.seed,
                                     start=args.date)
    simulation.run_days(1)
    return simulation


def cmd_pipeline(args) -> int:
    """``pipeline``: run N days end to end and print the dashboard."""
    simulation = WarehouseSimulation(
        num_users=args.users, seed=args.seed, start=args.date,
        users_growth_per_day=args.growth, through_scribe=args.scribe)
    simulation.run_days(args.days)
    print(f"{args.days} day(s) simulated"
          + (" (through Scribe delivery)" if args.scribe else ""))
    print(f"{'date':12s} {'sessions':>8s} {'events':>8s} {'users':>6s} "
          f"{'compress':>9s}")
    for date in simulation.dates():
        day = simulation.days[date]
        print(f"{day.summary.date_str:12s} {day.summary.sessions:8d} "
              f"{day.summary.events:8d} {day.summary.distinct_users:6d} "
              f"{day.build.compression_factor:8.1f}x")
    growth = simulation.board.growth_rate()
    if growth is not None:
        print(f"sessions growth over the window: {growth:+.1%}")
    return 0


def cmd_count(args) -> int:
    """``count``: answer a counting query via both query paths."""
    simulation = _one_day(args)
    date = simulation.dates()[0]
    dictionary = simulation.dictionary(date)
    mode = "sessions" if args.sessions else "sum"
    t_seq, t_raw = JobTracker(), JobTracker()
    n_seq = count_events_sequences(simulation.warehouse, date,
                                   args.pattern, dictionary,
                                   tracker=t_seq, mode=mode,
                                   backend=args.backend,
                                   max_workers=args.workers)
    n_raw = count_events_raw(simulation.warehouse, date, args.pattern,
                             tracker=t_raw, mode=mode,
                             backend=args.backend,
                             max_workers=args.workers)
    unit = "sessions containing" if args.sessions else "occurrences of"
    print(f"{n_seq} {unit} {args.pattern!r}")
    print(f"  sequences path: {t_seq.total_map_tasks()} mappers, "
          f"{sum(r.input_bytes for r in t_seq.runs):,} bytes")
    print(f"  raw-logs path:  {t_raw.total_map_tasks()} mappers, "
          f"{sum(r.input_bytes for r in t_raw.runs):,} bytes "
          f"(answers agree: {n_seq == n_raw})")
    return 0


def cmd_funnel(args) -> int:
    """``funnel``: run the signup funnel and print its rows."""
    simulation = _one_day(args)
    date = simulation.dates()[0]
    stages = signup_funnel_stages(args.client)
    report = run_funnel(simulation.warehouse, date, stages,
                        simulation.dictionary(date),
                        unique_users=args.users_only)
    kind = "users" if args.users_only else "sessions"
    print(f"signup funnel on {args.client} ({kind}):")
    for stage, count in report.rows():
        print(f"  ({stage}, {count})")
    print("abandonment:", " ".join(f"{a:.0%}" for a in report.abandonment()))
    return 0


def cmd_catalog(args) -> int:
    """``catalog``: browse or search the event catalog."""
    simulation = _one_day(args)
    date = simulation.dates()[0]
    catalog = ClientEventCatalog(simulation.builder.load_histogram(*date),
                                 simulation.builder.load_samples(*date))
    if args.search:
        hits = catalog.search(args.search)
        print(f"{len(hits)} event type(s) match {args.search!r}:")
        for entry in hits[:15]:
            print(f"  {entry.count:7d}  {entry.name}")
        return 0
    prefix = args.browse or []
    listing = catalog.browse(*prefix)
    label = ":".join(prefix) if prefix else "<clients>"
    print(f"catalog under {label}:")
    for component, count in sorted(listing.items(),
                                   key=lambda kv: -kv[1]):
        print(f"  {component or '(empty)':20s} {count:7d} events")
    return 0


def cmd_trend(args) -> int:
    """``trend``: print a metric's day-by-day series."""
    from repro.analytics.timeseries import (
        event_count_series,
        sessions_with_event_series,
    )

    simulation = WarehouseSimulation(
        num_users=args.users, seed=args.seed, start=args.date,
        users_growth_per_day=args.growth)
    simulation.run_days(args.days)
    if args.sessions:
        series = sessions_with_event_series(simulation, args.pattern)
    else:
        series = event_count_series(simulation, args.pattern)
    print(f"{series.name} over {args.days} day(s):")
    peak = max(series.values()) or 1.0
    for (year, month, day), value in series.points:
        bar = "#" * int(value / peak * 40)
        print(f"  {year:04d}-{month:02d}-{day:02d} {value:10.0f} {bar}")
    change = series.change()
    if change is not None:
        print(f"change over the window: {change:+.1%}")
    return 0


def cmd_script(args) -> int:
    """``script``: execute a Pig Latin file against a fresh day."""
    from repro.pig.latin import PigLatinInterpreter, standard_bindings
    from repro.pig.relation import PigServer

    simulation = _one_day(args)
    date = simulation.dates()[0]
    variables = {"DATE": f"{date[0]:04d}/{date[1]:02d}/{date[2]:02d}"}
    for item in args.param:
        name, _, value = item.partition("=")
        if not name or not value:
            print(f"bad --param {item!r}: expected NAME=VALUE")
            return 2
        variables[name] = value
    with open(args.file) as handle:
        text = handle.read()
    interp = PigLatinInterpreter(
        PigServer(), variables=variables,
        **standard_bindings(simulation.warehouse,
                            simulation.dictionary(date)))
    result = interp.run(text)
    for i, rows in enumerate(result.dumps):
        label = f"dump #{i + 1}" if len(result.dumps) > 1 else "dump"
        print(f"{label}: {len(rows)} row(s)")
        for row in rows[:20]:
            print("  ", row)
        if len(rows) > 20:
            print(f"   ... {len(rows) - 20} more")
    return 0


def cmd_obs(args) -> int:
    """``obs``: run the Scribe path end to end, print the metrics snapshot.

    Installs a fresh registry and an enabled tracer so the snapshot
    reflects exactly this invocation's pipeline run, then prints the
    pipeline-health panel followed by the full exposition.
    """
    import json

    from repro.analytics.dashboard import (
        format_pipeline_health,
        pipeline_health,
    )
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        set_default_registry,
        set_default_tracer,
    )

    registry = MetricsRegistry()
    set_default_registry(registry)
    set_default_tracer(Tracer(enabled=True))
    simulation = WarehouseSimulation(num_users=args.users, seed=args.seed,
                                     start=args.date, through_scribe=True)
    simulation.run_days(args.days)
    print(format_pipeline_health(pipeline_health(registry)))
    print()
    if args.json:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(registry.expose(), end="")
    return 0


def cmd_chaos(args) -> int:
    """``chaos``: run the delivery-guarantee soak; exit 1 on violations.

    A fresh registry isolates the run's metrics (faults injected, retry
    attempts, duplicates skipped) from anything else in the process.
    """
    from repro.faults.chaos import run_chaos, run_partition_chaos
    from repro.obs import MetricsRegistry, set_default_registry

    set_default_registry(MetricsRegistry())
    if args.partition:
        if args.monitor or args.streaming or args.no_faults:
            print("--partition cannot be combined with --monitor, "
                  "--streaming, or --no-faults")
            return 2
        report = run_partition_chaos(args.seed, hours=args.hours)
        print(report.summary())
        return 0 if report.ok else 1
    report = run_chaos(args.seed, hours=args.hours, monitor=args.monitor,
                       faults=not args.no_faults,
                       streaming=args.streaming)
    print(report.summary())
    if report.monitor is not None:
        from repro.obs.monitor import format_alerts, format_audits

        print()
        print(format_audits(report.monitor.audits))
        print()
        print(format_alerts(report.monitor.engine))
    return 0 if report.ok else 1


def cmd_mover(args) -> int:
    """``mover``: land clean traffic hourly or via ``--stream``.

    Reuses the chaos harness's two-datacenter deployment with the fault
    storm disabled, so the numbers it prints are the landing pipeline's
    own behavior -- in stream mode that includes micro-batch counts,
    sealed hours, and the closing watermark lag.
    """
    from repro.faults.chaos import run_chaos
    from repro.obs import MetricsRegistry, set_default_registry
    from repro.obs import names as obs_names

    registry = MetricsRegistry()
    set_default_registry(registry)
    report = run_chaos(args.seed, hours=args.hours, faults=False,
                       streaming=args.stream)
    mode = "streaming micro-batch" if args.stream else "hourly"
    print(f"log mover ({mode}): hours={args.hours} "
          f"accepted={report.accepted} landed={report.landed} "
          f"dropped={report.dropped} quarantined={report.quarantined}")
    if args.stream:
        lag = registry.total(obs_names.STREAMING_WATERMARK_LAG)
        print(f"  batches_landed={report.batches_landed} "
              f"hours_sealed={report.hours_sealed} "
              f"late_reopens={report.late_reopens} "
              f"closing_watermark_lag_ms={int(lag)}")
    for violation in report.violations:
        print(f"  VIOLATION: {violation}")
    return 0 if report.ok else 1


def cmd_monitor(args) -> int:
    """``monitor``: replay a simulated day under continuous monitoring.

    Runs the chaos harness traffic (with or without the fault storm)
    with a :class:`PipelineMonitor` attached, then renders the health
    panel, sparkline series, per-hour verdicts, and the alert log.
    """
    from repro.analytics.dashboard import (
        format_pipeline_health,
        pipeline_health,
    )
    from repro.faults.chaos import run_chaos
    from repro.obs import MetricsRegistry, set_default_registry

    registry = MetricsRegistry()
    set_default_registry(registry)
    report = run_chaos(args.seed, hours=args.hours, monitor=True,
                       faults=args.faults,
                       quiet_hours=set(args.quiet_hour))
    print(report.summary())
    print()
    print(format_pipeline_health(pipeline_health(registry)))
    print()
    print(report.monitor.render())
    return 0 if report.ok else 1


def cmd_index(args) -> int:
    """``index``: build, inspect, or query Elephant Twin partitions.

    ``build`` runs the per-hour MapReduce index jobs; ``status`` reports
    each hour partition's freshness; ``query`` runs a selective query
    through the index and cross-checks its rows against the full scan.
    """
    from repro.analytics.counting import count_events_raw
    from repro.elephanttwin.buildjob import build_day_indexes, index_status
    from repro.pig.loaders import ClientEventsLoader
    from repro.pig.relation import PigServer
    from repro.pig.udf import UserEventsFilter

    simulation = _one_day(args)
    date = simulation.dates()[0]
    warehouse = simulation.warehouse

    if args.action == "status":
        rows = index_status(warehouse, *date)
        print(f"index partitions for {date[0]:04d}-{date[1]:02d}"
              f"-{date[2]:02d}:")
        for directory, status in rows:
            print(f"  {status:8s} {directory}")
        return 0

    report = build_day_indexes(warehouse, *date, backend=args.backend,
                               max_workers=args.workers)
    print(f"built {report.hours_built} hour partition(s), "
          f"{report.splits_indexed} split(s) indexed, "
          f"{report.wall_time_s * 1000:.0f} ms")
    if args.action == "build":
        return 0

    pig = PigServer(backend=args.backend, max_workers=args.workers)
    loader = ClientEventsLoader(warehouse, *date)
    if args.user is not None:
        relation = pig.load(loader).filter(
            UserEventsFilter(args.user), description=f"user[{args.user}]")
        label = f"user {args.user}"
    else:
        relation = pig.load(loader).filter_events(args.pattern)
        label = f"pattern {args.pattern!r}"
    rows = relation.dump()

    fmt = loader.indexed_input_format(
        str(args.user) if args.user is not None else args.pattern,
        field="user" if args.user is not None else "event")
    scanned = len(fmt.splits()) if fmt is not None else 0
    skipped = fmt.skipped_splits if fmt is not None else 0
    unindexed = fmt.unindexed_splits if fmt is not None else 0
    print(f"{len(rows)} event(s) for {label}")
    print(f"  splits: {scanned} scanned, {skipped} pruned, "
          f"{unindexed} unindexed (must-scan)")
    if args.user is None:
        full = count_events_raw(warehouse, date, args.pattern)
        print(f"  unindexed plan agrees: {len(rows) == full}")
    return 0


def cmd_report(args) -> int:
    """``report``: one-day pipeline summary."""
    simulation = _one_day(args)
    date = simulation.dates()[0]
    day = simulation.days[date]
    print(f"day {day.summary.date_str} | users={args.users} "
          f"seed={args.seed}")
    print(f"  events {day.summary.events} | sessions "
          f"{day.summary.sessions} | distinct users "
          f"{day.summary.distinct_users}")
    print(f"  event types {day.build.distinct_events} | compression "
          f"{day.build.compression_factor:.1f}x")
    print(f"  by client: "
          f"{dict(sorted(day.summary.sessions_by_client.items()))}")
    return 0


_COMMANDS = {
    "pipeline": cmd_pipeline,
    "trend": cmd_trend,
    "count": cmd_count,
    "funnel": cmd_funnel,
    "catalog": cmd_catalog,
    "script": cmd_script,
    "obs": cmd_obs,
    "index": cmd_index,
    "chaos": cmd_chaos,
    "mover": cmd_mover,
    "monitor": cmd_monitor,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
