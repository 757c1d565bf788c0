"""Tests for the multi-day simulation orchestrator and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.workload.simulate import WarehouseSimulation

ARGS_FAST = ["--users", "60", "--seed", "5"]


class TestWarehouseSimulation:
    @pytest.fixture(scope="class")
    def simulation(self):
        sim = WarehouseSimulation(num_users=80, seed=3,
                                  start=(2012, 4, 1),
                                  users_growth_per_day=40)
        sim.run_days(3)
        return sim

    def test_consecutive_dates(self, simulation):
        assert simulation.dates() == [(2012, 4, 1), (2012, 4, 2),
                                      (2012, 4, 3)]

    def test_month_boundary(self):
        sim = WarehouseSimulation(num_users=30, seed=1, start=(2012, 2, 28))
        sim.run_days(3)  # 2012 is a leap year
        assert sim.dates() == [(2012, 2, 28), (2012, 2, 29), (2012, 3, 1)]

    def test_growth_shows_in_dashboard(self, simulation):
        series = simulation.board.sessions_over_time()
        assert series[-1][1] > series[0][1]
        assert simulation.board.growth_rate() > 0

    def test_each_day_built(self, simulation):
        for date in simulation.dates():
            day = simulation.days[date]
            assert day.build.sessions_built == day.summary.sessions
            assert day.build.compression_factor > 10
            assert simulation.records(date)
            assert len(simulation.dictionary(date)) > 0

    def test_rollups_optional(self):
        sim = WarehouseSimulation(num_users=40, seed=2,
                                  compute_rollups=True)
        day = sim.run_days(1)[0]
        assert day.rollups is not None
        assert sum(day.rollups.tables[5].values()) > 0

    def test_through_scribe_matches_direct(self):
        """Delivery path must not change what lands in the warehouse."""
        direct = WarehouseSimulation(num_users=50, seed=9)
        direct.run_days(1)
        scribed = WarehouseSimulation(num_users=50, seed=9,
                                      through_scribe=True)
        scribed.run_days(1)
        date = direct.dates()[0]
        direct_day = direct.days[date]
        scribed_day = scribed.days[date]
        assert scribed_day.build.events_scanned == \
            direct_day.build.events_scanned
        assert scribed_day.summary.sessions == direct_day.summary.sessions

    def test_deterministic(self):
        a = WarehouseSimulation(num_users=40, seed=11)
        b = WarehouseSimulation(num_users=40, seed=11)
        day_a = a.run_days(1)[0]
        day_b = b.run_days(1)[0]
        assert day_a.summary.sessions == day_b.summary.sessions
        assert day_a.build.sequence_bytes == day_b.build.sequence_bytes


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_report(self, capsys):
        assert main(["report"] + ARGS_FAST) == 0
        out = capsys.readouterr().out
        assert "compression" in out
        assert "sessions" in out

    def test_count_sum(self, capsys):
        assert main(["count", "--pattern", "*:impression"] + ARGS_FAST) == 0
        out = capsys.readouterr().out
        assert "answers agree: True" in out

    def test_count_sessions_mode(self, capsys):
        assert main(["count", "--pattern", "*:query", "--sessions"]
                    + ARGS_FAST) == 0
        out = capsys.readouterr().out
        assert "sessions containing" in out
        assert "answers agree: True" in out

    def test_funnel(self, capsys):
        assert main(["funnel", "--client", "web", "--users", "200",
                     "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "(0," in out
        assert "abandonment:" in out

    def test_funnel_users_only(self, capsys):
        assert main(["funnel", "--users-only"] + ARGS_FAST) == 0
        assert "users" in capsys.readouterr().out

    def test_catalog_browse(self, capsys):
        assert main(["catalog", "--browse"] + ARGS_FAST) == 0
        out = capsys.readouterr().out
        assert "web" in out

    def test_catalog_browse_prefix(self, capsys):
        assert main(["catalog", "--browse", "web"] + ARGS_FAST) == 0
        assert "home" in capsys.readouterr().out

    def test_catalog_search(self, capsys):
        assert main(["catalog", "--search", "*:follow"] + ARGS_FAST) == 0
        out = capsys.readouterr().out
        assert "match" in out

    def test_pipeline(self, capsys):
        assert main(["pipeline", "--days", "2", "--growth", "30"]
                    + ARGS_FAST) == 0
        out = capsys.readouterr().out
        assert out.count("2012-03-1") >= 2
        assert "growth" in out

    def test_bad_date_rejected(self):
        with pytest.raises(SystemExit):
            main(["report", "--date", "yesterday"])

    def test_deterministic_across_invocations(self, capsys):
        main(["count", "--pattern", "*:follow"] + ARGS_FAST)
        first = capsys.readouterr().out
        main(["count", "--pattern", "*:follow"] + ARGS_FAST)
        second = capsys.readouterr().out
        assert first == second


class TestCLITrend:
    def test_trend_counts(self, capsys):
        from repro.cli import main

        assert main(["trend", "--pattern", "*:impression", "--days", "2",
                     "--users", "50", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "count(*:impression)" in out
        assert "change over the window" in out

    def test_trend_sessions_mode(self, capsys):
        from repro.cli import main

        assert main(["trend", "--pattern", "*:query", "--sessions",
                     "--days", "2", "--users", "50", "--seed", "4"]) == 0
        assert "sessions_with" in capsys.readouterr().out


class TestIndexIntegration:
    def test_daily_index_built_and_usable(self):
        from repro.core.names import EventPattern
        from repro.elephanttwin.inputformat import IndexedEventsLoader
        from repro.pig.loaders import ClientEventsLoader
        from repro.pig.relation import PigServer

        sim = WarehouseSimulation(num_users=60, seed=8, build_index=True)
        sim.run_days(1)
        date = sim.dates()[0]
        index = sim.index(date).field("event")
        assert index.total_splits > 0

        pattern = "*:follow"
        matcher = EventPattern(pattern)
        base = ClientEventsLoader(sim.warehouse, *date)
        indexed = IndexedEventsLoader(base, index, pattern)
        full = (PigServer().load(base)
                .filter(lambda e: matcher.matches(e.event_name)).dump())
        fast = (PigServer().load(indexed)
                .filter(lambda e: matcher.matches(e.event_name)).dump())
        assert sorted(e.to_bytes() for e in full) == \
            sorted(e.to_bytes() for e in fast)

    def test_index_absent_without_flag(self):
        sim = WarehouseSimulation(num_users=40, seed=8)
        sim.run_days(1)
        assert not sim.index(sim.dates()[0])


class TestCLIScript:
    def test_runs_pig_file(self, tmp_path, capsys):
        script = tmp_path / "count.pig"
        script.write_text("""
            define CountClientEvents CountClientEvents('$EVENTS');
            raw = load '/session_sequences/$DATE/'
                  using SessionSequencesLoader();
            generated = foreach raw generate CountClientEvents(symbols);
            grouped = group generated all;
            count = foreach grouped generate SUM(generated);
            dump count;
        """)
        assert main(["script", "--file", str(script),
                     "--param", "EVENTS=*:impression"] + ARGS_FAST) == 0
        out = capsys.readouterr().out
        assert "dump: 1 row(s)" in out

    def test_date_param_injected(self, tmp_path, capsys):
        script = tmp_path / "dates.pig"
        script.write_text("""
            raw = load '/session_sequences/$DATE/'
                  using SessionSequencesLoader();
            dump raw;
        """)
        assert main(["script", "--file", str(script)] + ARGS_FAST) == 0
        assert "row(s)" in capsys.readouterr().out

    def test_bad_param_rejected(self, tmp_path, capsys):
        script = tmp_path / "x.pig"
        script.write_text("dump nothing;")
        assert main(["script", "--file", str(script),
                     "--param", "broken"] + ARGS_FAST) == 2
