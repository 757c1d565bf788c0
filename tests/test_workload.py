"""Workload generator tests: population, behavior models, event streams."""

import random
from collections import Counter

import pytest

from repro.clock import MILLIS_PER_DAY
from repro.core.names import EventName
from repro.core.sessionizer import Sessionizer
from repro.hdfs.layout import millis_for_hour, LogHour
from repro.workload.behavior import (
    FUNNEL_CONTINUE,
    build_browsing_behavior,
    build_signup_behavior,
    signup_funnel_stages,
    standard_hierarchy,
)
from repro.workload.generator import WorkloadGenerator
from repro.workload.population import CLIENTS, UserPopulation


class TestPopulation:
    def test_deterministic(self):
        a = UserPopulation(50, seed=1)
        b = UserPopulation(50, seed=1)
        assert [(u.user_id, u.country, u.client) for u in a] == \
            [(u.user_id, u.country, u.client) for u in b]

    def test_seed_changes_population(self):
        a = UserPopulation(50, seed=1)
        b = UserPopulation(50, seed=2)
        assert [(u.country, u.client) for u in a] != \
            [(u.country, u.client) for u in b]

    def test_size_and_ids(self):
        population = UserPopulation(30, seed=0)
        assert len(population) == 30
        assert sorted(u.user_id for u in population) == list(range(1, 31))

    def test_needs_positive_size(self):
        with pytest.raises(ValueError):
            UserPopulation(0)

    def test_activity_power_law(self):
        population = UserPopulation(2000, seed=3)
        activities = sorted((u.activity for u in population), reverse=True)
        top_decile = sum(activities[:200])
        total = sum(activities)
        assert top_decile > total * 0.3  # heavy tail

    def test_country_distribution_roughly_weighted(self):
        population = UserPopulation(5000, seed=4)
        by_country = Counter(u.country for u in population)
        assert by_country["us"] > by_country["au"]

    def test_new_users_fraction(self):
        population = UserPopulation(1000, seed=5, new_user_fraction=0.2)
        fraction = len(population.new_users()) / 1000
        assert 0.1 < fraction < 0.3

    def test_by_country_partition(self):
        population = UserPopulation(100, seed=6)
        grouped = population.by_country()
        assert sum(len(v) for v in grouped.values()) == 100


class TestBehaviorModels:
    @pytest.mark.parametrize("client", [c for c, __ in CLIENTS])
    def test_all_states_are_valid_event_names(self, client):
        model = build_browsing_behavior(client)
        for state in model.states():
            name = EventName.parse(state)
            assert name.client == client

    def test_states_exist_in_standard_hierarchy(self):
        model = build_browsing_behavior("web")
        hierarchy = standard_hierarchy("web")
        universe = {str(n) for n in hierarchy.all_event_names()}
        for state in model.states():
            assert state in universe

    def test_sampling_deterministic_under_seed(self):
        model = build_browsing_behavior("web")
        a = model.sample(random.Random(7))
        b = model.sample(random.Random(7))
        assert a == b

    def test_sample_respects_max_events(self):
        model = build_browsing_behavior("web")
        rng = random.Random(0)
        for __ in range(50):
            assert len(model.sample(rng, max_events=10)) <= 10

    def test_impressions_dominate_clicks(self):
        model = build_browsing_behavior("web")
        rng = random.Random(1)
        counts = Counter()
        for __ in range(500):
            counts.update(name.rsplit(":", 1)[1]
                          for name in model.sample(rng))
        assert counts["impression"] > counts["click"] * 3

    def test_signup_funnel_monotone(self):
        model = build_signup_behavior("web")
        stages = signup_funnel_stages("web")
        rng = random.Random(2)
        reached = Counter()
        for __ in range(2000):
            session = set(model.sample(rng))
            for i, stage in enumerate(stages):
                if stage in session:
                    reached[i] += 1
        counts = [reached[i] for i in range(len(stages))]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        # stage-0 completion tracks the configured continuation rate
        assert abs(counts[0] / 2000 - FUNNEL_CONTINUE[0]) < 0.05

    def test_funnel_stage_names_are_submits(self):
        for stage in signup_funnel_stages("iphone"):
            assert stage.startswith("iphone:signup:")
            assert stage.endswith(":submit")


class TestGenerator:
    def test_deterministic(self):
        a = WorkloadGenerator(num_users=50, seed=9).generate_day(2012, 5, 1)
        b = WorkloadGenerator(num_users=50, seed=9).generate_day(2012, 5, 1)
        assert len(a.events) == len(b.events)
        assert [e.to_bytes() for e in a.events[:20]] == \
            [e.to_bytes() for e in b.events[:20]]

    def test_different_days_differ(self):
        generator = WorkloadGenerator(num_users=50, seed=9)
        a = generator.generate_day(2012, 5, 1)
        b = generator.generate_day(2012, 5, 2)
        assert [e.to_bytes() for e in a.events[:20]] != \
            [e.to_bytes() for e in b.events[:20]]

    def test_events_carry_all_unified_fields(self, workload):
        for event in workload.events[:200]:
            assert event.user_id > 0
            assert event.session_id
            assert event.ip.count(".") == 3
            assert event.timestamp >= 0
            assert event.country
            assert event.logged_in is not None
            assert event.event_details  # verbose details

    def test_timestamps_within_day_or_spillover(self, workload, date):
        day_start = millis_for_hour(
            LogHour("client_events", *date, 0))
        for event in workload.events:
            assert event.timestamp >= day_start
            # sessions may spill past midnight but not by more than a day
            assert event.timestamp < day_start + 2 * MILLIS_PER_DAY

    def test_sessions_reconstructible(self, workload):
        sessions = Sessionizer().sessionize(workload.events)
        assert len(sessions) >= workload.sessions_generated * 0.95
        # a session's events share client (one device per session)
        for session in sessions[:100]:
            clients = {e.client for e in session.events}
            assert len(clients) == 1

    def test_funnel_entries_only_for_new_users(self, workload):
        signup_events = [e for e in workload.events
                         if ":signup:" in e.event_name]
        assert workload.funnel_entries > 0
        assert signup_events

    def test_user_client_consistency(self, workload):
        generator = WorkloadGenerator(num_users=200, seed=42)
        by_user = {u.user_id: u.client for u in generator.population}
        for event in workload.events[:500]:
            assert event.client == by_user[event.user_id]

    def test_diurnal_shape(self, workload, date):
        day_start = millis_for_hour(LogHour("client_events", *date, 0))
        by_hour = Counter(
            min((e.timestamp - day_start) // (3600 * 1000), 23)
            for e in workload.events)
        # night hours (1-4 am) are quieter than evening (18-21)
        night = sum(by_hour[h] for h in (1, 2, 3, 4))
        evening = sum(by_hour[h] for h in (18, 19, 20, 21))
        assert evening > night


class TestMultiDevice:
    def test_off_by_default(self, workload):
        generator = WorkloadGenerator(num_users=200, seed=42)
        by_user = {u.user_id: u.client for u in generator.population}
        assert all(e.client == by_user[e.user_id]
                   for e in workload.events[:300])

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            WorkloadGenerator(num_users=10, multi_device_fraction=1.5)

    def test_multi_device_users_emit_two_clients(self):
        generator = WorkloadGenerator(num_users=300, seed=13,
                                      multi_device_fraction=0.5)
        workload = generator.generate_day(2012, 7, 1)
        clients_per_user = {}
        for event in workload.events:
            clients_per_user.setdefault(event.user_id, set()).add(
                event.client)
        multi = sum(1 for clients in clients_per_user.values()
                    if len(clients) > 1)
        assert multi > 10

    def test_sessions_still_single_client(self):
        """Each session happens on one device even for multi-device
        users -- the session id is the device-session cookie."""
        generator = WorkloadGenerator(num_users=150, seed=13,
                                      multi_device_fraction=0.6)
        workload = generator.generate_day(2012, 7, 1)
        sessions = Sessionizer().sessionize(workload.events)
        for session in sessions:
            assert len({e.client for e in session.events}) == 1


class TestSecondOrderBehavior:
    def test_off_by_default(self):
        model = build_browsing_behavior("web")
        assert model.context_transitions == {}

    def test_context_rules_present_when_enabled(self):
        model = build_browsing_behavior("web", second_order=True)
        assert model.context_transitions
        for (prev, cur), options in model.context_transitions.items():
            assert prev in model.transitions
            assert cur in model.transitions
            assert options

    def test_trigram_beats_bigram_on_second_order_stream(self):
        from repro.nlp.ngram import perplexity_by_order

        model = build_browsing_behavior("web", second_order=True)
        rng = random.Random(0)
        sequences = [model.sample(rng) for __ in range(2500)]
        sequences = [s for s in sequences if len(s) >= 2]
        train, test = sequences[::2], sequences[1::2]
        curve = dict(perplexity_by_order(train, test, max_n=3))
        assert curve[3] < curve[2] < curve[1]

    def test_first_order_stream_shows_no_trigram_gain(self):
        """The control: without context rules, the trigram model does
        not meaningfully beat the bigram."""
        from repro.nlp.ngram import perplexity_by_order

        model = build_browsing_behavior("web", second_order=False)
        rng = random.Random(0)
        sequences = [model.sample(rng) for __ in range(2500)]
        sequences = [s for s in sequences if len(s) >= 2]
        train, test = sequences[::2], sequences[1::2]
        curve = dict(perplexity_by_order(train, test, max_n=3))
        gain_2 = curve[1] - curve[2]
        gain_3 = curve[2] - curve[3]
        assert gain_3 < gain_2 * 0.25
