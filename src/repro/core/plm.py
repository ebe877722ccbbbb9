"""Precision-Level Map: in-memory completeness bookkeeping (paper IV-D).

"STASH relies on a precision-level map (PLM) to check for completeness of
the in-memory data.  The PLM is a memory-resident bitmap that associates
the Cells contained in-memory for a given level to the actual data blocks
in the distributed storage."

Our PLM keeps, per level, the mapping ``cell key -> backing block ids``
plus the reverse index ``block id -> cell keys``.  Presence of a key in
the PLM means the cell was computed from *all* of its backing blocks (or
rolled up from complete children), so membership is completeness.  The
reverse index supports real-time-update invalidation: when a block
changes, every dependent cached cell is identified in O(dependents).
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
        #: block id -> set of dependent cell keys
        self._by_block: dict[BlockId, set[CellKey]] = {}

    def __len__(self) -> int:
        return sum(len(cells) for cells in self._by_level.values())

    def contains(self, level: int, key: CellKey) -> bool:
        return key in self._by_level.get(level, ())

    def add(self, level: int, key: CellKey, blocks: frozenset[BlockId]) -> None:
        level_map = self._by_level.setdefault(level, {})
        if key in level_map:
            raise CacheError(f"PLM already tracks {key}")
        level_map[key] = blocks
        for block_id in blocks:
            self._by_block.setdefault(block_id, set()).add(key)

    def remove(self, level: int, key: CellKey) -> None:
        level_map = self._by_level.get(level)
        if level_map is None or key not in level_map:
            raise CacheError(f"PLM does not track {key}")
        blocks = level_map.pop(key)
        for block_id in blocks:
            dependents = self._by_block.get(block_id)
            if dependents is not None:
                dependents.discard(key)
                if not dependents:
                    del self._by_block[block_id]

    def blocks_of(self, level: int, key: CellKey) -> frozenset[BlockId]:
        try:
            return self._by_level[level][key]
        except KeyError:
            raise CacheError(f"PLM does not track {key}") from None

    def dependents_of_block(self, block_id: BlockId) -> set[CellKey]:
        """Cells whose summaries were computed from ``block_id``.

        Used when the underlying store receives an update: these cells
        are stale and must be recomputed on next access (paper IV-D).
        """
        return set(self._by_block.get(block_id, ()))

    def tracked_levels(self) -> list[int]:
        return sorted(level for level, cells in self._by_level.items() if cells)

    def check_consistency(self) -> None:
        """Assert the forward and reverse indexes mirror each other.

        Every (cell -> blocks) entry must be reflected block-by-block in
        the reverse index and vice versa, with no empty dangling reverse
        entries.  Raises :class:`~repro.errors.CacheError` on the first
        violation; used by the eviction/re-insert regression tests to
        prove the remove path is the exact inverse of the insert path.
        """
        forward: dict[BlockId, set[CellKey]] = {}
        for cells in self._by_level.values():
            for key, blocks in cells.items():
                for block_id in blocks:
                    forward.setdefault(block_id, set()).add(key)
        for block_id, dependents in self._by_block.items():
            if not dependents:
                raise CacheError(f"PLM reverse index has empty entry {block_id}")
            if forward.get(block_id) != dependents:
                raise CacheError(
                    f"PLM reverse index for {block_id} disagrees with the "
                    f"forward map: {sorted(map(str, dependents))} vs "
                    f"{sorted(map(str, forward.get(block_id, ())))}"
                )
        missing = set(forward) - set(self._by_block)
        if missing:
            raise CacheError(
                f"PLM forward map references untracked blocks {sorted(map(str, missing))}"
            )
