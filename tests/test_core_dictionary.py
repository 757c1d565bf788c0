"""Event dictionary tests: bijection, frequency coding, persistence (§4.2)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.dictionary import DictionaryError, EventDictionary


NAMES = [f"web:p{i}::::action_{i}" for i in range(10)]


class TestConstruction:
    def test_frequency_order_gets_smaller_code_points(self):
        counts = {"web:a::::x": 100, "web:b::::y": 10, "web:c::::z": 1000}
        dictionary = EventDictionary.from_histogram(counts)
        assert (dictionary.code_for("web:c::::z")
                < dictionary.code_for("web:a::::x")
                < dictionary.code_for("web:b::::y"))

    def test_ties_break_lexicographically(self):
        counts = {"web:b::::y": 5, "web:a::::x": 5}
        dictionary = EventDictionary.from_histogram(counts)
        assert (dictionary.code_for("web:a::::x")
                < dictionary.code_for("web:b::::y"))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DictionaryError):
            EventDictionary(["a", "a"])

    def test_surrogate_range_skipped(self):
        many = [f"e{i}" for i in range(0xE000)]
        dictionary = EventDictionary(many)
        codes = {dictionary.code_for(name) for name in many}
        assert not any(0xD800 <= code <= 0xDFFF for code in codes)
        # every encoded string is valid UTF-8
        "".join(chr(c) for c in sorted(codes)).encode("utf-8")


class TestBijection:
    def test_encode_decode_roundtrip(self):
        dictionary = EventDictionary(NAMES)
        sequence = [NAMES[3], NAMES[0], NAMES[3], NAMES[9]]
        encoded = dictionary.encode(sequence)
        assert len(encoded) == 4
        assert dictionary.decode(encoded) == sequence

    def test_symbol_for(self):
        dictionary = EventDictionary(NAMES)
        symbol = dictionary.symbol_for(NAMES[0])
        assert len(symbol) == 1
        assert dictionary.name_for(ord(symbol)) == NAMES[0]

    def test_unknown_name_raises(self):
        dictionary = EventDictionary(NAMES)
        with pytest.raises(DictionaryError):
            dictionary.code_for("web:ghost::::nothing")
        with pytest.raises(DictionaryError):
            dictionary.encode(["web:ghost::::nothing"])

    def test_unknown_code_raises(self):
        dictionary = EventDictionary(NAMES)
        with pytest.raises(DictionaryError):
            dictionary.name_for(0x10FF00)

    def test_len_contains_iter(self):
        dictionary = EventDictionary(NAMES)
        assert len(dictionary) == len(NAMES)
        assert NAMES[0] in dictionary
        assert "nope" not in dictionary
        assert list(dictionary) == NAMES  # insertion order == code order


class TestVariableLengthCoding:
    def test_frequent_events_encode_shorter(self):
        """The paper's coding claim: with >128 events, a frequency-ordered
        dictionary yields fewer UTF-8 bytes than a reversed one."""
        names = [f"e{i}" for i in range(300)]
        counts = {name: 1000 // (i + 1) + 1 for i, name in enumerate(names)}
        good = EventDictionary.from_histogram(counts)
        bad = EventDictionary(sorted(counts, key=counts.__getitem__))
        stream = [name for name, count in counts.items()
                  for __ in range(count)]
        good_bytes = len(good.encode(stream).encode("utf-8"))
        bad_bytes = len(bad.encode(stream).encode("utf-8"))
        assert good_bytes < bad_bytes

    def test_first_127_events_are_single_byte(self):
        names = [f"e{i}" for i in range(200)]
        dictionary = EventDictionary(names)
        for name in names[:127]:
            assert len(dictionary.symbol_for(name).encode("utf-8")) == 1


class TestPatternExpansion:
    def test_expand_pattern(self):
        names = ["web:home::::click", "web:home::::impression",
                 "iphone:home::::click"]
        dictionary = EventDictionary(names)
        assert set(dictionary.expand_pattern("web:*")) == set(names[:2])
        assert set(dictionary.expand_pattern("*:click")) == \
            {names[0], names[2]}

    def test_expansion_sorted_by_code_point(self):
        dictionary = EventDictionary.from_histogram(
            {"web:a::::x": 1, "web:b::::x": 100})
        expanded = dictionary.expand_pattern("web:*")
        assert expanded == ["web:b::::x", "web:a::::x"]

    def test_symbol_class_matches_only_expansion(self):
        import re

        names = ["web:a::::x", "web:b::::y", "iphone:c::::x"]
        dictionary = EventDictionary(names)
        regex = re.compile(dictionary.symbol_class("web:*"))
        encoded = dictionary.encode(names)
        assert len(regex.findall(encoded)) == 2

    def test_symbol_class_empty_expansion_matches_nothing(self):
        import re

        dictionary = EventDictionary(["web:a::::x"])
        regex = re.compile(dictionary.symbol_class("android:*"))
        assert regex.search(dictionary.encode(["web:a::::x"])) is None

    def test_symbol_class_escapes_metacharacters(self):
        import re

        # Enough names that some get code points that are regex
        # metacharacters inside character classes ('[' is 0x5B, '\\' 0x5C,
        # ']' 0x5D, '^' 0x5E, '-' 0x2D); every class must still compile
        # and match exactly its own symbol.
        names = [f"web:p{i}::::x" for i in range(0x80)]
        dictionary = EventDictionary(names)
        encoded = dictionary.encode(names)
        for name in names:
            regex = re.compile(dictionary.symbol_class(name))
            assert len(regex.findall(encoded)) == 1


class TestPersistence:
    def test_bytes_roundtrip(self):
        dictionary = EventDictionary(NAMES)
        restored = EventDictionary.from_bytes(dictionary.to_bytes())
        assert len(restored) == len(dictionary)
        for name in NAMES:
            assert restored.code_for(name) == dictionary.code_for(name)

    def test_corrupt_mapping_rejected(self):
        import json

        payload = json.dumps({"a": 1, "b": 1}).encode()
        with pytest.raises(DictionaryError):
            EventDictionary.from_bytes(payload)


class TestProperties:
    @given(st.lists(st.text(alphabet="abcdef_:", min_size=1, max_size=10),
                    unique=True, min_size=1, max_size=50),
           st.data())
    def test_roundtrip_property(self, names, data):
        dictionary = EventDictionary(names)
        indices = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(names) - 1),
            max_size=30))
        sequence = [names[i] for i in indices]
        assert dictionary.decode(dictionary.encode(sequence)) == sequence

    @given(st.dictionaries(st.text(alphabet="abc", min_size=1, max_size=5),
                           st.integers(min_value=1, max_value=10 ** 6),
                           min_size=1, max_size=30))
    def test_histogram_order_property(self, counts):
        dictionary = EventDictionary.from_histogram(counts)
        ordered = list(dictionary)
        frequencies = [counts[name] for name in ordered]
        assert frequencies == sorted(frequencies, reverse=True)
