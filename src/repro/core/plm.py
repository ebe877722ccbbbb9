"""Precision-Level Map: in-memory completeness bookkeeping (paper IV-D).

"STASH relies on a precision-level map (PLM) to check for completeness of
the in-memory data.  The PLM is a memory-resident bitmap that associates
the Cells contained in-memory for a given level to the actual data blocks
in the distributed storage."

Our PLM keeps, per level, the mapping ``cell key -> backing block ids``.
Presence of a key in the PLM means the cell was computed from *all* of
its backing blocks (or rolled up from complete children), so membership
is completeness.  Live updates find stale cells by extent
(:meth:`~repro.core.graph.StashGraph.invalidate_extents`), which also
reaches cells cached as empty, whose block set is empty.
"""

from __future__ import annotations

from repro.core.keys import CellKey
from repro.data.block import BlockId
from repro.errors import CacheError


class PrecisionLevelMap:
    """Per-level cell-to-block completeness map."""

    def __init__(self) -> None:
        #: level -> {cell key -> backing blocks}
        self._by_level: dict[int, dict[CellKey, frozenset[BlockId]]] = {}

    def contains(self, level: int, key: CellKey) -> bool:
        return key in self._by_level.get(level, ())

    def add(self, level: int, key: CellKey, blocks: frozenset[BlockId]) -> None:
        level_map = self._by_level.setdefault(level, {})
        if key in level_map:
            raise CacheError(f"PLM already tracks {key}")
        level_map[key] = blocks

    def remove(self, level: int, key: CellKey) -> None:
        try:
            del self._by_level[level][key]
        except KeyError:
            raise CacheError(f"PLM does not track {key}") from None

    def blocks_of(self, level: int, key: CellKey) -> frozenset[BlockId]:
        try:
            return self._by_level[level][key]
        except KeyError:
            raise CacheError(f"PLM does not track {key}") from None
