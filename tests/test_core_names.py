"""Event name and pattern tests (Table 1, §3.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.names import (
    EventName,
    EventPattern,
    InvalidEventNameError,
    match_names,
)

PAPER_EXAMPLE = "web:home:mentions:stream:avatar:profile_click"


class TestEventName:
    def test_paper_example_roundtrip(self):
        name = EventName.parse(PAPER_EXAMPLE)
        assert name.client == "web"
        assert name.page == "home"
        assert name.section == "mentions"
        assert name.component == "stream"
        assert name.element == "avatar"
        assert name.action == "profile_click"
        assert str(name) == PAPER_EXAMPLE

    def test_six_levels_required(self):
        with pytest.raises(InvalidEventNameError):
            EventName.parse("web:home:click")
        with pytest.raises(InvalidEventNameError):
            EventName.parse(PAPER_EXAMPLE + ":extra")

    @pytest.mark.parametrize("bad", [
        "Web:home:mentions:stream:avatar:profile_click",   # uppercase
        "web:home:mentions:stream:avatar:profileClick",    # camelCase
        "web:home:men tions:stream:avatar:profile_click",  # space
        "web:home:mentions:stream:avatar:profile-click",   # dash
    ])
    def test_camel_snake_is_dead(self, bad):
        with pytest.raises(InvalidEventNameError):
            EventName.parse(bad)

    def test_empty_middle_components_allowed(self):
        name = EventName.parse("web:::::click")
        assert name.page == ""
        assert name.element == ""
        assert name.action == "click"

    def test_client_and_action_required(self):
        with pytest.raises(InvalidEventNameError):
            EventName(":home:mentions:stream:avatar:click".split(":")[0],
                      "home", "mentions", "stream", "avatar", "click")
        with pytest.raises(InvalidEventNameError):
            EventName("web", "home", "mentions", "stream", "avatar", "")

    def test_of_constructor(self):
        name = EventName.of("web", "home", "", "", "", "click")
        assert str(name) == "web:home::::click"
        with pytest.raises(InvalidEventNameError):
            EventName.of("web", "click")

    def test_ordering_and_hash(self):
        a = EventName.parse("android:home::::click")
        b = EventName.parse("web:home::::click")
        assert a < b
        assert hash(a) != hash(b)

    def test_rollup(self):
        name = EventName.parse(PAPER_EXAMPLE)
        assert name.rollup(5) == ("web", "home", "mentions", "stream",
                                  "avatar", "profile_click")
        assert name.rollup(3) == ("web", "home", "mentions", "*", "*",
                                  "profile_click")
        assert name.rollup(1) == ("web", "*", "*", "*", "*",
                                  "profile_click")
        with pytest.raises(ValueError):
            name.rollup(6)
        with pytest.raises(ValueError):
            name.rollup(0)


class TestEventPattern:
    def test_prefix_pattern(self):
        """§3.2: "all actions on the user's home mentions timeline on
        twitter.com by considering web:home:mentions:*"."""
        pattern = EventPattern("web:home:mentions:*")
        assert pattern.matches(PAPER_EXAMPLE)
        assert pattern.matches("web:home:mentions:stream:tweet:impression")
        assert not pattern.matches("web:home:timeline:stream:tweet:impression")
        assert not pattern.matches("iphone:home:mentions:stream:tweet:click")

    def test_suffix_pattern(self):
        """§3.2: "track profile clicks across all clients ... with
        *:profile_click"."""
        pattern = EventPattern("*:profile_click")
        assert pattern.matches(PAPER_EXAMPLE)
        assert pattern.matches("iphone:tweet_detail::detail:avatar:profile_click")
        assert not pattern.matches("web:home:mentions:stream:tweet:click")

    def test_full_six_component_pattern(self):
        pattern = EventPattern("*:home:*:*:tweet:impression")
        assert pattern.matches("web:home:timeline:stream:tweet:impression")
        assert not pattern.matches("web:search:timeline:stream:tweet:impression")

    def test_partial_glob_within_component(self):
        pattern = EventPattern("*:profile_*")
        assert pattern.matches(PAPER_EXAMPLE)
        assert not pattern.matches("web:home:mentions:stream:tweet:click")

    def test_exact_pattern(self):
        pattern = EventPattern(PAPER_EXAMPLE)
        assert pattern.matches(PAPER_EXAMPLE)
        assert not pattern.matches(PAPER_EXAMPLE.replace("avatar", "tweet"))

    def test_ambiguous_short_pattern_rejected(self):
        with pytest.raises(InvalidEventNameError):
            EventPattern("home:mentions")

    def test_too_many_components_rejected(self):
        with pytest.raises(InvalidEventNameError):
            EventPattern("a:b:c:d:e:f:g")

    def test_filter_preserves_order(self):
        names = ["web:a::::x", "web:b::::y", "iphone:a::::x"]
        assert match_names("web:*", names) == ["web:a::::x", "web:b::::y"]

    def test_matches_event_name_objects(self):
        name = EventName.parse(PAPER_EXAMPLE)
        assert EventPattern("web:*").matches(name)

    def test_star_matches_empty_component(self):
        pattern = EventPattern("web:profile:*")
        assert pattern.matches("web:profile::header:follow_button:click")


@st.composite
def event_names(draw):
    token = st.text(alphabet="abcdefghij_0123456789", min_size=1,
                    max_size=8)
    maybe = st.one_of(st.just(""), token)
    return EventName(draw(token), draw(maybe), draw(maybe), draw(maybe),
                     draw(maybe), draw(token))


class TestProperties:
    @given(event_names())
    def test_parse_str_roundtrip(self, name):
        assert EventName.parse(str(name)) == name

    @given(event_names())
    def test_client_prefix_pattern_always_matches(self, name):
        assert EventPattern(f"{name.client}:*").matches(name)

    @given(event_names())
    def test_action_suffix_pattern_always_matches(self, name):
        assert EventPattern(f"*:{name.action}").matches(name)

    @given(event_names())
    def test_rollup_keeps_action(self, name):
        for keep in range(1, 6):
            key = name.rollup(keep)
            assert key[-1] == name.action
            assert key[:keep] == name.components[:keep]


class TestUniversalPattern:
    def test_star_matches_everything(self):
        pattern = EventPattern("*")
        assert pattern.matches(PAPER_EXAMPLE)
        assert pattern.matches("iphone:::::view")

    def test_star_star_prefix_and_suffix(self):
        assert EventPattern("web:*").matches("web:::::x")
        assert not EventPattern("web:*").matches("iphone:::::x")
