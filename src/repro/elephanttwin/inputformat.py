"""Index-aware input format: selection pushdown at the InputFormat level.

"Our Elephant Twin indexing framework integrates with Hadoop at the level
of InputFormats, which means that applications and frameworks higher up
the Hadoop stack can transparently take advantage of indexes 'for free'.
In Pig, for example, we can easily support push-down of select
operations." (§6)

:class:`IndexedInputFormat` wraps a :class:`FileInputFormat` and a term
set; :meth:`splits` consults the block index and prunes splits the index
*proves* cannot contain matching records. The proof requires coverage:
a split whose file is absent from the index's coverage map -- data that
landed after the build, or a file that has since grown blocks (shifting
every split's record range) or been rewritten to another length -- is
never pruned. It is returned as *must-scan* work instead, so an indexed
plan always produces identical rows to the unindexed plan, merely with
fewer map tasks when the index is fresh.
"""

from __future__ import annotations

import logging
from typing import Any, Iterable, List

from repro.elephanttwin.index import BlockIndex
from repro.mapreduce.inputformats import FileInputFormat, InputSplit
from repro.obs import names as obs_names
from repro.obs.metrics import get_default_registry

logger = logging.getLogger(__name__)


class IndexedInputFormat:
    """A FileInputFormat filtered through a :class:`BlockIndex`.

    Split selection is three-way, per file path:

    - *covered* path (the split's plan-time ``(file_length, of)``
      fingerprint equals the one recorded at build time) and split
      listed for a wanted term -> selected;
    - *covered* path, split not listed -> pruned (``skipped_splits``,
      ``pruned_bytes``);
    - *uncovered* path (never indexed, or length or block count changed
      since the build) -> every split selected as must-scan
      (``unindexed_splits``).

    The historical bug lived here: splits absent from the index were
    dropped as if proven empty, silently losing rows whenever data landed
    after the index build. Coverage makes the distinction structural.
    """

    def __init__(self, base: FileInputFormat, index: BlockIndex,
                 terms: Iterable[str], field: str = "event") -> None:
        self._base = base
        self._index = index
        self._terms = set(terms)
        self._field = field
        #: Splits the index proved empty for the terms (reporting only;
        #: the engine's map-task counter drops automatically).
        self.skipped_splits = 0
        #: Splits outside index coverage, returned as must-scan work.
        self.unindexed_splits = 0
        #: Bytes of pruned splits the query never has to touch.
        self.pruned_bytes = 0

    def splits(self) -> List[InputSplit]:
        """The splits a correct selective scan must read.

        Pruning decisions and their volume are mirrored into the metrics
        registry (``elephanttwin_splits_skipped_total``,
        ``elephanttwin_splits_unindexed_total``,
        ``elephanttwin_bytes_pruned_total``), labelled by indexed field.
        """
        index = self._index
        wanted = index.splits_for(self._terms)
        selected: List[InputSplit] = []
        skipped = unindexed = pruned_bytes = 0
        for split in self._base.splits():
            if (index.covered.get(split.path) != split.of
                    or index.lengths.get(split.path) != split.file_length):
                unindexed += 1
                selected.append(split)
            elif (split.path, split.index) in wanted:
                selected.append(split)
            else:
                skipped += 1
                pruned_bytes += split.length_bytes
        self.skipped_splits = skipped
        self.unindexed_splits = unindexed
        self.pruned_bytes = pruned_bytes
        registry = get_default_registry()
        registry.counter(obs_names.ELEPHANTTWIN_SPLITS_SKIPPED,
                         field=self._field).inc(skipped)
        registry.counter(obs_names.ELEPHANTTWIN_SPLITS_UNINDEXED,
                         field=self._field).inc(unindexed)
        registry.counter(obs_names.ELEPHANTTWIN_BYTES_PRUNED,
                         field=self._field).inc(pruned_bytes)
        return selected

    def read_split(self, split: InputSplit) -> List[Any]:
        """Delegate to the wrapped input format."""
        return self._base.read_split(split)


class IndexedEventsLoader:
    """Pig loader with pushdown: load client events matching a pattern.

    Expands the pattern against the known event universe (the index's
    term list), then hands the expansion to :class:`IndexedInputFormat`.
    The caller still applies its own filter for exactness -- the index
    only prunes whole splits, it never fabricates matches.

    A pattern expanding to *zero* indexed terms is loud, not silent: the
    loader logs a warning and still routes through the coverage-checked
    input format, so any unindexed splits are scanned rather than the
    query returning empty because the index simply had not seen the term
    yet.
    """

    def __init__(self, base_loader: Any, index: BlockIndex,
                 pattern: str, field: str = "event") -> None:
        from repro.core.names import EventPattern

        self._base_loader = base_loader
        self._index = index
        self._pattern = pattern
        self._field = field
        matcher = EventPattern(pattern)
        self._terms = [t for t in index.terms() if matcher.matches(t)]

    @property
    def matched_terms(self) -> List[str]:
        """Event names the pattern expanded to against the index."""
        return list(self._terms)

    def input_format(self) -> IndexedInputFormat:
        """The pushdown-filtered input format.

        Never returns an empty plan just because no indexed term matched:
        uncovered splits still flow through as must-scan work.
        """
        if not self._terms:
            logger.warning(
                "pattern %r matched no indexed %r terms; covered splits "
                "will be pruned, unindexed splits scanned", self._pattern,
                self._field)
        return IndexedInputFormat(self._base_loader.input_format(),
                                  self._index, self._terms,
                                  field=self._field)

