"""More of the Thrift wire contract: byte flips and truncations beyond
compact ``ClientEvent``.

``test_thriftlike_wire_golden.py`` pins what compact ``ClientEvent``
payloads decode to under single-byte flips. This file pins the same for
``ClientEvent`` under the binary protocol and for the kitchen-sink struct
(nested struct, list-of-map, set, non-string-key map, long-form compact
header) under both protocols, and every prefix of the kitchen-sink
payload. Each case pins three things:

- the outcome histogram (``decoded`` or the exception's class name);
- a digest of what the surviving payloads decode to;
- a digest of every attempt's outcome *with its message*, in order, so
  which check fires first on a corrupt payload is part of the contract.

The digests were captured against the method-per-value decoder, before
the per-class position-passing decoders replaced it, by running this
file as a script::

    PYTHONPATH=src python -m tests.test_thriftlike_flip_golden
"""

import hashlib
import random
from collections import Counter

import pytest

from repro.core.event import ClientEvent
from repro.thriftlike.types import ProtocolError
from tests.test_thriftlike_wire_golden import (
    _KitchenSink,
    _day,
    _kitchen_sink,
)

GOLDEN = {
    "client_event.binary.flips.outcomes":
        "e91b8be7c9a9b3cc94a1d79d9ce3aac94b0fd68693c87bd38073b19dec0c5d35",
    "client_event.binary.flips.survivors":
        "d94bd995e94810a7571a6c1544c4d1c3a46446d88680ba011c710693bf2d2b5d",
    "kitchen_sink.binary.flips.outcomes":
        "ccbf798589dc552df68d1377290829c2e18d2deff92c458e4f92b1daf468cf84",
    "kitchen_sink.binary.flips.survivors":
        "7f20e667818eb5b5c056f4e06dc024e77feaeb2d0c300842b87324d99e7f23eb",
    "kitchen_sink.binary.prefixes.outcomes":
        "d3243a2cd170a4d927324307cbb388369c2e4f4218f115d46044386aba0e101e",
    "kitchen_sink.binary.prefixes.survivors":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "kitchen_sink.compact.flips.outcomes":
        "b3831aa0579f99cef4ca7e6553f9ce9c6f58c427f6d15c5efb38a88027c66136",
    "kitchen_sink.compact.flips.survivors":
        "fbb9d7fed4d3edd3e736febf0bbfa8d45361e46bd3d26f6d3e6a71cc878e9f51",
    "kitchen_sink.compact.prefixes.outcomes":
        "8e7b53161a2223c1d25d3c00194ad56d2ae8fade1b7529602ada87cf2005382b",
    "kitchen_sink.compact.prefixes.survivors":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

HISTOGRAMS = {
    "client_event.binary.flips":
        {"ProtocolError": 11994, "ValidationError": 512, "decoded": 7494},
    "kitchen_sink.binary.flips":
        {"ProtocolError": 2251, "ValidationError": 321, "decoded": 2428},
    "kitchen_sink.binary.prefixes": {"ProtocolError": 215},
    "kitchen_sink.compact.flips":
        {"ProtocolError": 3039, "ValidationError": 230, "decoded": 1731},
    "kitchen_sink.compact.prefixes": {"ProtocolError": 111},
}


def _canonical(value):
    """A hash-seed-independent rendering of a decoded value."""
    if isinstance(value, dict):
        return "{" + ", ".join(sorted(
            f"{_canonical(k)}: {_canonical(v)}" for k, v in value.items())
        ) + "}"
    if isinstance(value, (set, frozenset)):
        return "set(" + ", ".join(sorted(map(_canonical, value))) + ")"
    if isinstance(value, list):
        return "[" + ", ".join(map(_canonical, value)) + "]"
    if hasattr(value, "to_dict"):
        return _canonical(value.to_dict())
    return repr(value)


def _outcomes(cls, payloads, protocol, attempts):
    """Decode ``attempts`` of each payload; return the outcome histogram,
    the survivors' content digest and the per-attempt outcome digest."""
    histogram = Counter()
    survivors, outcomes = hashlib.sha256(), hashlib.sha256()
    for payload in payloads:
        for data in attempts(payload):
            try:
                record = cls.from_bytes(data, protocol)
            except Exception as exc:  # the histogram names what escaped
                name = type(exc).__name__
                outcomes.update(f"{name}: {exc}\n".encode("utf-8"))
            else:
                name = "decoded"
                content = _canonical(record).encode("utf-8")
                survivors.update(content)
                outcomes.update(b"decoded " + content + b"\n")
            histogram[name] += 1
    return dict(sorted(histogram.items())), {
        "survivors": survivors.hexdigest(),
        "outcomes": outcomes.hexdigest()}


def _flips(seed, count):
    """``attempts`` for :func:`_outcomes`: ``count`` seeded single-byte
    flips of each payload (one generator across all payloads)."""
    rng = random.Random(seed)

    def attempts(payload):
        for _ in range(count):
            mutated = bytearray(payload)
            mutated[rng.randrange(len(payload))] ^= rng.randrange(1, 256)
            yield bytes(mutated)
    return attempts


def _prefixes(payload):
    return [payload[:cut] for cut in range(len(payload))]


def _cases():
    """case name -> a zero-argument function returning its outcomes."""
    return {
        "client_event.binary.flips": lambda: _outcomes(
            ClientEvent, [e.to_bytes("binary") for e in _day()[:100]],
            "binary", _flips(2012, 200)),
        **{f"kitchen_sink.{protocol}.flips":
           (lambda protocol=protocol: _outcomes(
               _KitchenSink, [_kitchen_sink().to_bytes(protocol)],
               protocol, _flips(42, 5000)))
           for protocol in ("binary", "compact")},
        **{f"kitchen_sink.{protocol}.prefixes":
           (lambda protocol=protocol: _outcomes(
               _KitchenSink, [_kitchen_sink().to_bytes(protocol)],
               protocol, _prefixes))
           for protocol in ("binary", "compact")},
    }


@pytest.mark.parametrize("case", sorted(_cases()))
def test_outcomes_match_the_golden_capture(case):
    histogram, digests = _cases()[case]()
    assert histogram == HISTOGRAMS[case]
    assert digests["outcomes"] == GOLDEN[f"{case}.outcomes"]
    assert digests["survivors"] == GOLDEN[f"{case}.survivors"]


@pytest.mark.parametrize("protocol", ("binary", "compact"))
def test_every_kitchen_sink_prefix_is_a_truncated_read(protocol):
    payload = _kitchen_sink().to_bytes(protocol)
    for cut in range(len(payload)):
        with pytest.raises(ProtocolError, match="truncated read"):
            _KitchenSink.from_bytes(payload[:cut], protocol)


if __name__ == "__main__":
    histograms = {}
    print("GOLDEN = {")
    for case, run in sorted(_cases().items()):
        histograms[case], digests = run()
        for kind in ("outcomes", "survivors"):
            print(f'    "{case}.{kind}":\n        "{digests[kind]}",')
    print("}\n\nHISTOGRAMS = {")
    for case, histogram in histograms.items():
        print(f'    "{case}": {histogram},')
    print("}")
