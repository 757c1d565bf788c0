"""The Scribe log entry: a (category, message) pair.

§2: "Each log entry consists of two strings, a category and a message. The
category is associated with configuration metadata that determine, among
other things, where the data is written."

Exactly-once support: daemons stamp each entry with its origin host and a
per-daemon monotone sequence number. Those travel to staging inside a
small *envelope* prepended to the message bytes (see
:func:`encode_envelope`), which the log mover strips -- and dedups on --
before messages land in the warehouse. Entries that never pass through a
daemon (tests feeding aggregators directly, legacy producers) carry no
envelope and are delivered verbatim, exactly as before.
"""

from __future__ import annotations

import functools
import io
import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.thriftlike.protocol import read_bytes, read_varint, write_varint
from repro.thriftlike.types import ProtocolError

_CATEGORY_RE = re.compile(r"^[a-z0-9_\-]+$")


class InvalidCategoryError(ValueError):
    """Raised for category names outside the allowed charset."""


def validate_category(category: str) -> str:
    """Categories are lowercase tokens: they become HDFS directory names."""
    if not _CATEGORY_RE.match(category):
        raise InvalidCategoryError(
            f"invalid scribe category {category!r}: must match "
            f"{_CATEGORY_RE.pattern}"
        )
    return category


@dataclass(frozen=True)
class LogEntry:
    """One message handed to the local Scribe daemon.

    ``trace_id`` is observability context, not payload: when pipeline
    tracing is enabled the daemon stamps untraced entries with a fresh id
    and every stage records spans under it (see :mod:`repro.obs.trace`).
    It is excluded from equality so traced and untraced copies of the
    same (category, message) compare equal.

    ``origin`` and ``seq`` are delivery metadata, also excluded from
    equality: the daemon stamps each accepted entry with its host name
    and a per-daemon monotone sequence number, the identity the mover
    dedups on so retries and WAL replays land exactly once.
    """

    category: str
    message: bytes
    trace_id: Optional[str] = field(default=None, compare=False)
    origin: Optional[str] = field(default=None, compare=False)
    seq: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        validate_category(self.category)
        if not isinstance(self.message, bytes):
            raise TypeError("message must be bytes")

    @property
    def size(self) -> int:
        """Approximate wire size of the entry."""
        return len(self.category) + len(self.message)

    def stamped(self, trace_id: Optional[str], origin: Optional[str],
                seq: Optional[int]) -> "LogEntry":
        """A copy carrying the given delivery metadata.

        The payload fields were validated when this entry was built, so
        the copy skips ``__post_init__``. This entry is never modified,
        nor is its ``__dict__`` read: that would materialise a dict on
        every entry a caller keeps.
        """
        copy = object.__new__(type(self))
        copy.__dict__.update(category=self.category, message=self.message,
                             trace_id=trace_id, origin=origin, seq=seq)
        return copy


@dataclass
class CategoryConfig:
    """Per-category configuration metadata.

    ``codec`` controls the compression aggregators apply when writing the
    merged stream to staging HDFS; ``max_file_records`` bounds how many
    entries an aggregator accumulates before rolling a staging file.

    ``qos`` is the category's service tier (see :mod:`repro.scribe.qos`):
    under overload, daemons shed ``bulk`` traffic by deterministic
    sampling before buffering and evict lower tiers first from a full
    buffer, while ``critical`` categories are never sampled and evicted
    last. ``overload_sample_rate`` overrides the tier's default admitted
    fraction (None keeps the tier default).
    """

    category: str
    codec: str = "zlib"
    max_file_records: int = 10_000
    qos: str = "standard"
    overload_sample_rate: Optional[float] = None

    def __post_init__(self) -> None:
        from repro.scribe.qos import validate_tier

        validate_category(self.category)
        if self.max_file_records <= 0:
            raise ValueError("max_file_records must be positive")
        validate_tier(self.qos)
        if self.overload_sample_rate is not None and not (
                0.0 <= self.overload_sample_rate <= 1.0):
            raise ValueError("overload_sample_rate must be in [0, 1]")

    @property
    def sample_rate(self) -> float:
        """Admitted fraction while overload shedding is active."""
        from repro.scribe.qos import sample_rate

        if self.overload_sample_rate is not None:
            return self.overload_sample_rate
        return sample_rate(self.qos)


class CategoryRegistry:
    """Registry of category configurations with a default fallback."""

    def __init__(self, default_codec: str = "zlib",
                 default_max_file_records: int = 10_000) -> None:
        self._configs: Dict[str, CategoryConfig] = {}
        self._default_codec = default_codec
        self._default_max = default_max_file_records

    def register(self, config: CategoryConfig) -> None:
        """Register an explicit category configuration."""
        self._configs[config.category] = config

    def get(self, category: str) -> CategoryConfig:
        """The category's configuration (created with defaults if new)."""
        config = self._configs.get(category)
        if config is None:
            config = CategoryConfig(
                category=category,
                codec=self._default_codec,
                max_file_records=self._default_max,
            )
            self._configs[category] = config
        return config

    def categories(self):
        """All known category names, sorted."""
        return sorted(self._configs)


# -- delivery envelope ---------------------------------------------------
#: Magic prefix marking an enveloped message inside a staging frame.
ENVELOPE_MAGIC = b"\xabSQ\x01"

@functools.lru_cache(maxsize=4096)
def _envelope_prefix(origin: str) -> bytes:
    """Magic plus the varint-length-prefixed origin: the same bytes for
    every message of one host, so built once per origin."""
    encoded_origin = origin.encode("utf-8")
    buf = io.BytesIO()
    buf.write(ENVELOPE_MAGIC)
    write_varint(buf, len(encoded_origin))
    buf.write(encoded_origin)
    return buf.getvalue()


def encode_envelope(origin: str, seq: int, message: bytes) -> bytes:
    """Wrap a message with its (origin, seq) delivery identity.

    Layout: magic, varint-length-prefixed origin, varint seq, raw message
    bytes to the end of the frame (frames are already length-delimited,
    so the message needs no own length).
    """
    buf = io.BytesIO()
    buf.write(_envelope_prefix(origin))
    write_varint(buf, seq)
    buf.write(message)
    return buf.getvalue()


def decode_envelope(
        data: bytes) -> Tuple[Optional[str], Optional[int], bytes]:
    """Split a frame into ``(origin, seq, message)``.

    Frames without the envelope magic -- legacy producers, tests feeding
    aggregators directly -- come back as ``(None, None, data)`` untouched.
    A frame that has the magic but ends inside the origin length, the
    origin or the seq raises :class:`ProtocolError`.
    """
    if not data.startswith(ENVELOPE_MAGIC):
        return None, None, data
    try:
        n, pos = read_varint(data, len(ENVELOPE_MAGIC))
        origin, pos = read_bytes(data, pos, n)
        origin = origin.decode("utf-8")
        seq, pos = read_varint(data, pos)
    except (ProtocolError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed scribe envelope: {exc}") from exc
    return origin, seq, data[pos:]
