"""The client event dictionary: event names ↔ unicode code points (§4.2).

"We define a bijective mapping between Σ and the universe of event names
... Each symbol is represented by a unicode code point, such that any
session sequence is a valid unicode string ... we define the mapping
between events and unicode code points (i.e., the dictionary) such that
more frequent events are assigned smaller code points. This in essence
captures a form of variable-length coding, as smaller unicode points
require fewer bytes to physically represent."

Code points are assigned in descending frequency order starting from the
smallest usable point, skipping:

- U+0000 (NUL, avoided for C-string safety in downstream tools),
- the UTF-16 surrogate block U+D800–U+DFFF (not valid scalar values),
- nothing else: control characters are legal in Python/UTF-8 strings and
  the sequences "are not meant for direct human consumption".

UTF-8 then gives 1 byte below U+0080, 2 below U+0800, 3 below U+10000 and
4 beyond -- the variable-length coding the paper exploits.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.core.names import EventPattern

_SURROGATE_START = 0xD800
_SURROGATE_END = 0xDFFF
_MAX_CODE_POINT = 0x10FFFF
_FIRST_CODE_POINT = 1


class DictionaryError(Exception):
    """Raised for unknown events/symbols or exhausted code space."""


def _code_point_stream() -> Iterator[int]:
    code = _FIRST_CODE_POINT
    while code <= _MAX_CODE_POINT:
        if _SURROGATE_START <= code <= _SURROGATE_END:
            code = _SURROGATE_END + 1
        yield code
        code += 1


class EventDictionary:
    """Bijective, frequency-ordered event-name/code-point mapping."""

    def __init__(self, ordered_names: Iterable[str]) -> None:
        self._name_to_code: Dict[str, int] = {}
        self._code_to_name: Dict[int, str] = {}
        stream = _code_point_stream()
        for name in ordered_names:
            if name in self._name_to_code:
                raise DictionaryError(f"duplicate event name {name!r}")
            try:
                code = next(stream)
            except StopIteration:  # pragma: no cover - 1.1M names needed
                raise DictionaryError("unicode code space exhausted")
            self._name_to_code[name] = code
            self._code_to_name[code] = name
        # Precomputed name -> one-char symbol table: encode() is the hot
        # loop of the daily build (one lookup per event), so it must not
        # pay a chr() + method call per symbol.
        self._name_to_symbol: Dict[str, str] = {
            name: chr(code) for name, code in self._name_to_code.items()}

    # -- construction ------------------------------------------------------
    @classmethod
    def from_histogram(cls, counts: Mapping[str, int]) -> "EventDictionary":
        """Build with more frequent events on smaller code points.

        Ties break lexicographically so builds are deterministic.
        """
        ordered = sorted(counts, key=lambda name: (-counts[name], name))
        return cls(ordered)

    # -- encoding ----------------------------------------------------------
    def code_for(self, name: str) -> int:
        """The unicode code point assigned to an event name."""
        try:
            return self._name_to_code[name]
        except KeyError as exc:
            raise DictionaryError(f"unknown event name {name!r}") from exc

    def name_for(self, code: int) -> str:
        """The event name assigned to a code point."""
        try:
            return self._code_to_name[code]
        except KeyError as exc:
            raise DictionaryError(f"unknown code point U+{code:04X}") from exc

    def symbol_for(self, name: str) -> str:
        """One-character unicode symbol for an event name."""
        try:
            return self._name_to_symbol[name]
        except KeyError as exc:
            raise DictionaryError(f"unknown event name {name!r}") from exc

    def encode(self, names: Iterable[str]) -> str:
        """Encode a sequence of event names as a unicode string."""
        symbols = self._name_to_symbol
        try:
            return "".join([symbols[name] for name in names])
        except KeyError as exc:
            raise DictionaryError(
                f"unknown event name {exc.args[0]!r}") from exc

    def decode(self, sequence: str) -> List[str]:
        """Decode a session sequence back to event names."""
        return [self.name_for(ord(symbol)) for symbol in sequence]

    # -- pattern expansion (§5.2) -----------------------------------------
    def expand_pattern(self, pattern: str) -> List[str]:
        """Event names matching a wildcard pattern, sorted by code point.

        This is the expansion CountClientEvents performs: "an arbitrary
        regular expression can be supplied which is automatically expanded
        to include all matching events (via the dictionary)".
        """
        matcher = EventPattern(pattern)
        return [name for __, name in sorted(self._code_to_name.items())
                if matcher.matches(name)]

    def symbol_class(self, pattern: str) -> str:
        """A regex character class matching the symbols of a pattern.

        Funnel and counting UDFs build regexes over session-sequence
        strings from these classes.
        """
        names = self.expand_pattern(pattern)
        if not names:
            return "[^\\s\\S]"  # matches nothing
        symbols = "".join(re_escape_char(chr(self._name_to_code[n]))
                          for n in names)
        return f"[{symbols}]"

    # -- persistence ---------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialize for storage "in a known location in HDFS" (§4.2)."""
        payload = {name: code for name, code in self._name_to_code.items()}
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "EventDictionary":
        """Inverse of :meth:`to_bytes`; validates bijectivity."""
        payload: Dict[str, int] = json.loads(data.decode("utf-8"))
        dictionary = cls.__new__(cls)
        dictionary._name_to_code = dict(payload)
        dictionary._code_to_name = {c: n for n, c in payload.items()}
        dictionary._name_to_symbol = {n: chr(c) for n, c in payload.items()}
        if len(dictionary._code_to_name) != len(dictionary._name_to_code):
            raise DictionaryError("mapping is not bijective")
        return dictionary

    # -- dunder ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._name_to_code)

    def __contains__(self, name: str) -> bool:
        return name in self._name_to_code

    def __iter__(self) -> Iterator[str]:
        """Iterate names in code-point order (most frequent first)."""
        for __, name in sorted(self._code_to_name.items()):
            yield name

    def items(self) -> Iterator[Tuple[str, int]]:
        """(name, code point) pairs in code-point order."""
        for code, name in sorted(self._code_to_name.items()):
            yield name, code

    def __repr__(self) -> str:
        return f"EventDictionary({len(self)} events)"


def re_escape_char(symbol: str) -> str:
    """Escape one character for use inside a regex character class."""
    if symbol in r"\^]-[":
        return "\\" + symbol
    return symbol
