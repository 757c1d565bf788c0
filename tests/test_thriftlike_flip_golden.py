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

The digests were first captured against the method-per-value decoder,
before the per-class position-passing decoders replaced it, by running
this file as a script::

    PYTHONPATH=src python -m tests.test_thriftlike_flip_golden

They were re-captured once, when ``from_bytes`` began rejecting bytes
left after the struct's STOP. Exactly the attempts that used to decode
with bytes left over moved, each from ``decoded`` to that
``ProtocolError``; every other attempt kept its outcome and message:

=============================  ======================
case                           decoded -> ProtocolError
=============================  ======================
``client_event.binary.flips``                       9
``kitchen_sink.binary.flips``                      11
``kitchen_sink.compact.flips``                    129
=============================  ======================
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
        "6b45376953104cc91b21dc71667cdef2bba34444b03796fca01d503ac98e28b7",
    "client_event.binary.flips.survivors":
        "9d5a7c4fe0ee2909d7a1feec8a5828d84b43fd9c30b2a6b12bf2d42fbb63c504",
    "kitchen_sink.binary.flips.outcomes":
        "50ceef24328748e395bfe24e28a9dc922c68fce31ac0cbab278074a8419d3b6b",
    "kitchen_sink.binary.flips.survivors":
        "d1b76b9a1e8c099719c8bd150243d9ed79e2db8e44aa3bba504d6963c3559b8f",
    "kitchen_sink.binary.prefixes.outcomes":
        "d3243a2cd170a4d927324307cbb388369c2e4f4218f115d46044386aba0e101e",
    "kitchen_sink.binary.prefixes.survivors":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "kitchen_sink.compact.flips.outcomes":
        "74156bf9a0b12d580583eafc9213f224a2b5321cf41fb4c0178787ecc716b58b",
    "kitchen_sink.compact.flips.survivors":
        "3f50ef1bd8e28749ae77340da26412cf597abfed57a9c80ec0f8817540f56b7f",
    "kitchen_sink.compact.prefixes.outcomes":
        "8e7b53161a2223c1d25d3c00194ad56d2ae8fade1b7529602ada87cf2005382b",
    "kitchen_sink.compact.prefixes.survivors":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

HISTOGRAMS = {
    "client_event.binary.flips":
        {"ProtocolError": 12003, "ValidationError": 512, "decoded": 7485},
    "kitchen_sink.binary.flips":
        {"ProtocolError": 2262, "ValidationError": 321, "decoded": 2417},
    "kitchen_sink.binary.prefixes": {"ProtocolError": 215},
    "kitchen_sink.compact.flips":
        {"ProtocolError": 3168, "ValidationError": 230, "decoded": 1602},
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
