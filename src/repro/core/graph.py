"""The per-node STASH graph: levels of cells + PLM + eviction hooks.

``G_STASH = (V, {E_H, E_L})`` — vertices are Cells grouped into levels by
spatiotemporal resolution (paper IV-C); both edge families are computed
from cell keys on demand (see :mod:`repro.core.keys`), so the graph
stores only the level maps and the PLM.

Empty cells (zero observations) are stored explicitly: presence of a key
— empty or not — means "this bin's value is known and complete", which is
what makes roll-up recomputation sound (a missing child might have
unscanned data on disk; an empty child is known to have none).

Freshness bookkeeping is stored *in columns*: each level carries a
:class:`FreshnessColumns` block of dense numpy arrays ``(freshness,
last_touch, access_count)`` aligned with a slot map, so the per-query
freshness touch is one gather/scatter (:meth:`StashGraph.touch_batch`)
and whole-graph eviction scoring is one vectorized ``exp`` per level
(:func:`repro.core.eviction.rank_victims`) instead of a Python loop over
every resident cell.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.cell import Cell
from repro.core.keys import CellKey
from repro.core.plm import PrecisionLevelMap
from repro.data.block import BlockId
from repro.errors import CacheError, ResolutionError
from repro.geo.resolution import ResolutionSpace
from repro.geo.temporal import NUM_TEMPORAL_RESOLUTIONS, TimeKey

#: Initial slot capacity of a level's column block.
_MIN_CAPACITY = 64


class FreshnessColumns:
    """Dense per-level freshness columns with a key -> slot index.

    Slots are kept dense with swap-remove: deleting a slot moves the last
    slot into the hole, so ``freshness[:size]`` is always a gap-free view
    the eviction kernel can score in one vectorized pass.
    """

    __slots__ = ("keys", "slot_of", "freshness", "last_touch", "access_count", "size")

    def __init__(self) -> None:
        #: Slot -> cell key (dense prefix of length ``size``).
        self.keys: list[CellKey] = []
        #: Cell key -> slot.
        self.slot_of: dict[CellKey, int] = {}
        self.freshness = np.zeros(_MIN_CAPACITY, dtype=np.float64)
        self.last_touch = np.zeros(_MIN_CAPACITY, dtype=np.float64)
        self.access_count = np.zeros(_MIN_CAPACITY, dtype=np.int64)
        self.size = 0

    def _grow(self) -> None:
        capacity = max(_MIN_CAPACITY, 2 * self.freshness.shape[0])
        for name in ("freshness", "last_touch", "access_count"):
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: self.size] = old[: self.size]
            setattr(self, name, new)

    def add(
        self, key: CellKey, freshness: float, last_touch: float, access_count: int
    ) -> int:
        """Assign the next dense slot to ``key``; returns the slot."""
        if self.size == self.freshness.shape[0]:
            self._grow()
        slot = self.size
        self.keys.append(key)
        self.slot_of[key] = slot
        self.freshness[slot] = freshness
        self.last_touch[slot] = last_touch
        self.access_count[slot] = access_count
        self.size += 1
        return slot

    def remove(self, key: CellKey) -> tuple[float, float, int]:
        """Free a slot (swap-remove); returns its final column values."""
        slot = self.slot_of.pop(key)
        values = (
            float(self.freshness[slot]),
            float(self.last_touch[slot]),
            int(self.access_count[slot]),
        )
        last = self.size - 1
        if slot != last:
            moved = self.keys[last]
            self.keys[slot] = moved
            self.slot_of[moved] = slot
            self.freshness[slot] = self.freshness[last]
            self.last_touch[slot] = self.last_touch[last]
            self.access_count[slot] = self.access_count[last]
        self.keys.pop()
        self.size = last
        return values


class StashGraph:
    """One node's in-memory cell store (local or guest)."""

    def __init__(self, space: ResolutionSpace, name: str = "local"):
        self.space = space
        self.name = name
        #: level -> {cell key -> cell}
        self._levels: dict[int, dict[CellKey, Cell]] = {}
        #: level -> freshness column store, parallel to ``_levels``.
        self._columns: dict[int, FreshnessColumns] = {}
        self.plm = PrecisionLevelMap()

    # -- size ------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(cells) for cells in self._levels.values())

    def level_size(self, level: int) -> int:
        """Number of resident cells at one level."""
        return len(self._levels.get(level, ()))

    # -- membership --------------------------------------------------------

    def level_of(self, key: CellKey) -> int:
        """``space.level_of(key.resolution)``, read off the key's two lengths."""
        space = self.space
        spatial = len(key.geohash)
        if not space.min_spatial <= spatial <= space.max_spatial:
            raise ResolutionError(f"{key.resolution} outside space {space}")
        return (spatial - space.min_spatial) * NUM_TEMPORAL_RESOLUTIONS + (
            len(key.time_key.components) - 1
        )

    def contains(self, key: CellKey) -> bool:
        return key in self._levels.get(self.level_of(key), ())

    def get(self, key: CellKey) -> Cell | None:
        return self._levels.get(self.level_of(key), {}).get(key)

    def insert(
        self,
        cell: Cell,
        backing_blocks: frozenset[BlockId] | None = None,
    ) -> None:
        """Add a complete cell; duplicate inserts are rejected.

        ``backing_blocks`` defaults to none: the graph does not know the
        catalog's blocks, so callers on the query path pass the explicit
        set they scanned.
        """
        level = self.level_of(cell.key)
        cells = self._levels.setdefault(level, {})
        if cell.key in cells:
            raise CacheError(f"cell {cell.key} already cached in {self.name}")
        if backing_blocks is None:
            backing_blocks = frozenset()
        # PLM first: if it rejects the key the graph stays untouched, so
        # the two structures cannot diverge (a cell in the graph but not
        # the PLM would wedge every later evict -> repopulate cycle on
        # "PLM already tracks" errors).
        self.plm.add(level, cell.key, backing_blocks)
        cells[cell.key] = cell
        columns = self._columns.get(level)
        if columns is None:
            columns = self._columns[level] = FreshnessColumns()
        columns.add(cell.key, cell.freshness, cell.last_touched, cell.access_count)
        cell._attach(columns)

    def upsert(
        self, cell: Cell, backing_blocks: frozenset[BlockId] | None = None
    ) -> bool:
        """Insert, or silently keep the existing cell; True if inserted.

        Population is asynchronous (a background thread in the paper), so
        two in-flight queries may race to populate the same cell; the
        first write wins and both are correct (cells are complete values).
        """
        if self.contains(cell.key):
            return False
        self.insert(cell, backing_blocks)
        return True

    def remove(self, key: CellKey) -> Cell:
        level = self.level_of(key)
        cells = self._levels.get(level)
        if not cells or key not in cells:
            raise CacheError(f"cell {key} not cached in {self.name}")
        cell = cells.pop(key)
        self.plm.remove(level, key)
        cell._detach(*self._columns[level].remove(key))
        return cell

    def clear(self) -> int:
        """Drop every cell and PLM entry (a crashed node loses its cache).

        Returns the number of cells dropped.
        """
        dropped = len(self)
        for level, cells in self._levels.items():
            columns = self._columns.get(level)
            if columns is None:
                continue
            for cell in cells.values():
                cell._detach(*columns.remove(cell.key))
        self._levels.clear()
        self._columns.clear()
        self.plm = PrecisionLevelMap()
        return dropped

    # -- iteration ---------------------------------------------------------

    def cells(self) -> Iterator[Cell]:
        for level_cells in self._levels.values():
            yield from level_cells.values()

    # -- freshness column kernels ------------------------------------------

    def freshness_columns(self) -> Iterator[FreshnessColumns]:
        """The non-empty per-level column blocks (eviction scoring input)."""
        for columns in self._columns.values():
            if columns.size:
                yield columns

    def touch_batch(
        self,
        keys: list[CellKey],
        amount: float,
        now: float,
        decay_rate: float,
        count_access: bool = False,
    ) -> int:
        """Apply one freshness increment to every *resident* key, batched.

        Equivalent to calling ``cell.touched(amount, now, decay_rate)``
        (plus an ``access_count`` bump when ``count_access``) on each
        present cell, but the decay + increment runs as one vectorized
        update per level.  Duplicate keys in one batch coalesce into a
        single decay step carrying ``k * amount`` — identical to ``k``
        scalar touches at the same ``now`` up to float associativity.
        Returns the number of touches applied (absent keys are skipped —
        only resident cells carry freshness).
        """
        # A key list is runs of one resolution (a footprint, a ring), and
        # a key's level is its two lengths: resolve it once per run.
        slots_by_level: dict[int, list[int]] = {}
        shape = None
        for key in keys:
            key_shape = (len(key.geohash), len(key.time_key.components))
            if key_shape != shape:
                shape = key_shape
                level = self.level_of(key)
                columns = self._columns.get(level)
                slot_of = {} if columns is None else columns.slot_of
                slots = slots_by_level.setdefault(level, [])
            slot = slot_of.get(key)
            if slot is not None:
                slots.append(slot)
        touched = 0
        for level, slots in slots_by_level.items():
            if not slots:
                continue
            touched += len(slots)
            columns = self._columns[level]
            idx = np.asarray(slots, dtype=np.intp)
            if len(set(slots)) < len(slots):
                idx, counts = np.unique(idx, return_counts=True)
                increments = amount * counts
            else:
                counts = None
                increments = amount
            freshness = columns.freshness
            last_touch = columns.last_touch
            elapsed = np.maximum(0.0, now - last_touch[idx])
            freshness[idx] = (
                freshness[idx] * np.exp(-decay_rate * elapsed) + increments
            )
            last_touch[idx] = now
            if count_access:
                columns.access_count[idx] += 1 if counts is None else counts
        return touched

    # -- invalidation (real-time updates, paper IV-D) -----------------------

    def invalidate_block(self, block_id: BlockId) -> list[CellKey]:
        """Drop every cell computed from a now-stale block."""
        stale = self.plm.dependents_of_block(block_id)
        for key in stale:
            self.remove(key)
        return sorted(stale, key=str)

    def invalidate_extents(
        self, extents: set[tuple[str, tuple[int, ...]]], block_precision: int
    ) -> list[CellKey]:
        """Drop every cell whose extent nests with a touched block's.

        ``extents`` is :func:`stale_extents` of the touched blocks.  A
        cell and a block overlap exactly when their labels agree once
        both are cut to the shorter one, per axis, so each resident key
        is cut to the block's lengths and probed once — by extent rather
        than by the PLM's reverse index, because a cell cached as empty
        has no block set to find it through.  Returns the keys removed.
        """
        stale = [
            key
            for cells in self._levels.values()
            for key in cells
            if (key.geohash[:block_precision], key.time_key.components[:3]) in extents
        ]
        for key in stale:
            self.remove(key)
        return stale


def stale_extents(
    touched: list[BlockId], block_precision: int
) -> set[tuple[str, tuple[int, ...]]]:
    """Every (geohash prefix, year[/month[/day]]) label enclosing a block.

    Geohash cells and calendar bins nest, so the labels of the cells
    that contain a ``block_precision``-character, one-day block are the
    truncations of its own label: ``block_precision x 3`` per block,
    built per distinct day (a batch touches many blocks on few days).
    The probe set of :meth:`StashGraph.invalidate_extents`.
    """
    by_day: dict[str, set[str]] = {}
    for block_id in touched:
        by_day.setdefault(block_id.day, set()).add(block_id.geohash)
    extents: set[tuple[str, tuple[int, ...]]] = set()
    for day, geohashes in by_day.items():
        components = TimeKey.parse(day).components
        bins = [components[:n] for n in (1, 2, 3)]
        prefixes = {
            geohash[:length]
            for geohash in geohashes
            for length in range(1, block_precision + 1)
        }
        extents.update((prefix, bin_) for prefix in prefixes for bin_ in bins)
    return extents
