"""In-memory span recorder, local to the harness.

The harness times the program *from outside*: the driver wraps its own
calls into each layer's public functions in :meth:`Tracer.span`. Spans
stay in a list until the run ends and are written out once. This is not
``repro.obs.trace`` (which follows single log entries hop by hop inside
the program) and it touches no program state.

A span is ``[name, start_s, end_s, parent, run_id]``: ``name`` is
``<layer>.<what>``, ``parent`` is the index of the enclosing span (-1 at
the top), ``run_id`` is the round that caused it. A layer's *busy* time
is its spans' self time: duration minus the part child spans cover.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

NAME, START, END, PARENT, RUN = range(5)

#: Spans of the harness's own driver code. Their self time is the
#: untimed gap between calls into the program, so it counts against
#: coverage instead of towards a layer.
HARNESS_LAYER = "harness"


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> None:
        tracer = self._tracer
        self._index = len(tracer.spans)
        parent = tracer._open[-1] if tracer._open else -1
        tracer._open.append(self._index)
        tracer.spans.append(
            [self._name, time.perf_counter(), 0.0, parent, tracer.run_id])

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        tracer.spans[self._index][END] = end
        tracer._open.pop()
        return False


class Tracer:
    """Records spans while :attr:`enabled`; a no-op context otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.run_id = 0
        self.spans: List[list] = []
        self._open: List[int] = []

    def span(self, name: str):
        """Context manager timing one call (or block of calls) into a
        layer."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    # -- roll-ups ---------------------------------------------------------
    def run_ids(self) -> List[int]:
        """Every run id that recorded at least one span, sorted."""
        return sorted({span[RUN] for span in self.spans})

    def durations(self, name: str, run_id: int) -> List[float]:
        """Durations (s) of one run's spans of one name, in call order."""
        return [span[END] - span[START] for span in self.spans
                if span[RUN] == run_id and span[NAME] == name]

    def self_times(self, run_id: int) -> Dict[str, float]:
        """Per span name, the summed self time (s) within one run."""
        covered: Dict[int, float] = {}
        for span in self.spans:
            if span[RUN] == run_id and span[PARENT] >= 0:
                covered[span[PARENT]] = (covered.get(span[PARENT], 0.0)
                                         + span[END] - span[START])
        out: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span[RUN] == run_id:
                own = span[END] - span[START] - covered.get(index, 0.0)
                out[span[NAME]] = out.get(span[NAME], 0.0) + own
        return out

    def dump(self, path: str) -> None:
        """Write every span as JSON (times in seconds since the first)."""
        origin = self.spans[0][START] if self.spans else 0.0
        rows = [{"name": s[NAME], "start_s": s[START] - origin,
                 "end_s": s[END] - origin, "parent": s[PARENT],
                 "run_id": s[RUN]} for s in self.spans]
        with open(path, "w") as handle:
            json.dump(rows, handle)
            handle.write("\n")


def layer_of(span_name: str) -> str:
    """``scribe.log`` -> ``scribe``."""
    return span_name.split(".", 1)[0]
