"""The per-node STASH graph: levels of cell summaries + eviction hooks.

``G_STASH = (V, {E_H, E_L})`` — vertices are Cells grouped into levels by
spatiotemporal resolution (paper IV-C); both edge families are computed
from cell keys on demand (see :mod:`repro.core.keys`), so the graph
stores only the level maps.

A level is ``key -> SummaryVector`` beside its :class:`FreshnessColumns`,
with no object per resident cell; ``get`` / ``cells`` hand out detached
:class:`~repro.core.cell.Cell` snapshots for tests and tools.  The
per-op paths read summaries and insert batches (``insert_many``).

Residency is the paper's precision-level map (IV-D).  Empty cells (zero
observations) are stored explicitly: presence of a key — empty or not —
means "this bin's value is known and complete", which is what makes
roll-up recomputation sound (a missing child might have unscanned data
on disk; an empty child is known to have none).  The PLM's other half,
a cell's backing blocks, is computed from keys like the edges:
:meth:`~repro.storage.backend.StorageCatalog.blocks_for_cell` for a scan,
:func:`stale_extents` for an ingest.

Freshness bookkeeping is stored *in columns*: each level carries a
:class:`FreshnessColumns` block of dense numpy arrays ``(freshness,
last_touch, access_count)`` aligned with a slot map, so the per-query
freshness touch is one gather/scatter (:meth:`StashGraph.touch_runs`)
and whole-graph eviction scoring is one vectorized ``exp`` per level
(:func:`repro.core.eviction.rank_victims`) instead of a Python loop over
every resident cell.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.cell import Cell
from repro.core.keys import CellKey
from repro.data.block import BlockId
from repro.data.statistics import SummaryVector
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

    def _reserve(self, size: int) -> None:
        """Double the column capacity until ``size`` slots fit."""
        capacity = self.freshness.shape[0]
        if size <= capacity:
            return
        while capacity < size:
            capacity *= 2
        for name in ("freshness", "last_touch", "access_count"):
            old = getattr(self, name)
            new = np.zeros(capacity, dtype=old.dtype)
            new[: self.size] = old[: self.size]
            setattr(self, name, new)

    def extend(self, keys: list[CellKey]) -> int:
        """Assign the next dense slots to ``keys``, bookkeeping all zero
        (one slice write per column); returns the first slot."""
        start = self.size
        stop = start + len(keys)
        self._reserve(stop)
        self.keys.extend(keys)
        self.slot_of.update(zip(keys, range(start, stop)))
        self.freshness[start:stop] = 0.0
        self.last_touch[start:stop] = 0.0
        self.access_count[start:stop] = 0
        self.size = stop
        return start

    def remove(self, key: CellKey) -> None:
        """Free a slot (swap-remove)."""
        slot = self.slot_of.pop(key)
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


class StashGraph:
    """One node's in-memory cell store (local or guest)."""

    def __init__(self, space: ResolutionSpace, name: str = "local"):
        self.space = space
        self.name = name
        #: level -> {cell key -> summary}
        self._levels: dict[int, dict[CellKey, SummaryVector]] = {}
        #: level -> freshness column store, parallel to ``_levels``.
        self._columns: dict[int, FreshnessColumns] = {}

    # -- size ------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(cells) for cells in self._levels.values())

    def level_size(self, level: int) -> int:
        """Number of resident cells at one level."""
        return len(self._levels.get(level, ()))

    # -- membership --------------------------------------------------------

    def level_of(self, key: CellKey) -> int:
        """``space.level_of(key.resolution)``, read off the key's two lengths
        (of a ``CellKey`` or a ``(geohash, TimeKey)`` probe pair)."""
        space = self.space
        geohash, time_key = key
        spatial = len(geohash)
        if not space.min_spatial <= spatial <= space.max_spatial:
            raise ResolutionError(f"{CellKey(*key).resolution} outside space {space}")
        return (spatial - space.min_spatial) * NUM_TEMPORAL_RESOLUTIONS + (
            len(time_key.components) - 1
        )

    def finer_levels(self, key: CellKey) -> Iterator[tuple[str, int]]:
        """``(axis, level)`` of the spatially, then the temporally, finer
        resolution of ``key`` in the space: where its children live."""
        low, high = self.space.min_spatial, self.space.max_spatial
        spatial, temporal = len(key.geohash), len(key.time_key.components)
        if low <= spatial + 1 <= high:
            yield "spatial", (spatial + 1 - low) * NUM_TEMPORAL_RESOLUTIONS + temporal - 1
        if temporal < NUM_TEMPORAL_RESOLUTIONS and low <= spatial <= high:
            yield "temporal", (spatial - low) * NUM_TEMPORAL_RESOLUTIONS + temporal

    def contains(self, key: CellKey) -> bool:
        return key in self._levels.get(self.level_of(key), ())

    def summary_of(self, key: CellKey) -> SummaryVector | None:
        """The resident summary of ``key``, or None."""
        return self._levels.get(self.level_of(key), {}).get(key)

    def summaries_at(self, level: int) -> dict[CellKey, SummaryVector]:
        """One level's ``key -> summary`` map; callers only read it."""
        return self._levels.get(level, {})

    def get(self, key: CellKey) -> Cell | None:
        """A detached snapshot of the resident cell ``key``, or None."""
        level = self.level_of(key)
        summary = self._levels.get(level, {}).get(key)
        return None if summary is None else self._snapshot(level, key, summary)

    def _snapshot(self, level: int, key: CellKey, summary: SummaryVector) -> Cell:
        columns = self._columns[level]
        slot = columns.slot_of[key]
        return Cell(
            key,
            summary,
            float(columns.freshness[slot]),
            float(columns.last_touch[slot]),
            int(columns.access_count[slot]),
        )

    def _columns_of(self, level: int) -> FreshnessColumns:
        if level not in self._columns:
            self._columns[level] = FreshnessColumns()
        return self._columns[level]

    def insert(self, cell: Cell) -> None:
        """Add a complete cell, copying its freshness bookkeeping into the
        columns; duplicate inserts are rejected."""
        level = self.level_of(cell.key)
        cells = self._levels.setdefault(level, {})
        if cell.key in cells:
            raise CacheError(f"cell {cell.key} already cached in {self.name}")
        cells[cell.key] = cell.summary
        columns = self._columns_of(level)
        slot = columns.extend([cell.key])
        columns.freshness[slot] = cell.freshness
        columns.last_touch[slot] = cell.last_touched
        columns.access_count[slot] = cell.access_count

    def upsert(self, cell: Cell) -> bool:
        """Insert, or silently keep the existing cell; True if inserted.

        Population is asynchronous (a background thread in the paper), so
        two in-flight queries may race to populate the same cell; the
        first write wins and both are correct (cells are complete values).
        """
        if self.contains(cell.key):
            return False
        self.insert(cell)
        return True

    def insert_many(self, cells: dict[CellKey, SummaryVector]) -> list[CellKey]:
        """:meth:`upsert` a batch at zero freshness; returns the keys inserted.

        A batch is runs of one resolution (one footprint's scan), so the
        level is resolved once per run and a run's new keys take
        consecutive slots; keys already resident keep their state.
        """
        pending: list[tuple[int, dict[CellKey, SummaryVector]]] = []
        shape = None
        for key, summary in cells.items():
            key_shape = (len(key.geohash), len(key.time_key.components))
            if key_shape != shape:
                shape = key_shape
                level = self.level_of(key)
                level_cells = self._levels.get(level, {})
                fresh: dict[CellKey, SummaryVector] = {}
                pending.append((level, fresh))
            if key not in level_cells:
                fresh[key] = summary
        inserted: list[CellKey] = []
        for level, fresh in pending:
            if fresh:
                self._levels.setdefault(level, {}).update(fresh)
                keys = list(fresh)
                self._columns_of(level).extend(keys)
                inserted.extend(keys)
        return inserted

    def remove(self, key: CellKey) -> None:
        level = self.level_of(key)
        cells = self._levels.get(level)
        if not cells or key not in cells:
            raise CacheError(f"cell {key} not cached in {self.name}")
        del cells[key]
        self._columns[level].remove(key)

    def clear(self) -> int:
        """Drop every cell (a crashed node loses its cache).

        Returns the number of cells dropped.
        """
        dropped = len(self)
        self._levels.clear()
        self._columns.clear()
        return dropped

    # -- iteration ---------------------------------------------------------

    def items(self) -> Iterator[tuple[CellKey, SummaryVector]]:
        """Every resident ``(key, summary)``, level by level in insertion order."""
        for level_cells in self._levels.values():
            yield from level_cells.items()

    def cells(self) -> Iterator[Cell]:
        """A detached snapshot of every resident cell, in :meth:`items` order."""
        for level, level_cells in self._levels.items():
            for key, summary in level_cells.items():
                yield self._snapshot(level, key, summary)

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
        """:meth:`touch_runs` of one run: ``amount`` to every resident key."""
        return self.touch_runs(((keys, amount, count_access),), now, decay_rate)

    def touch_runs(
        self, runs: Iterable[tuple[list[CellKey], float, bool]], now: float, decay_rate: float
    ) -> int:
        """Freshness increments to the *resident* keys of several runs.

        A run is ``(keys, amount, count_access)``: each resident key gets
        the scalar touch ``tests/reference.py::touch_cell`` of ``amount``
        (and, with ``count_access``, an ``access_count`` bump), all runs'
        slots at one level in one gather/exp/scatter.  A key listed ``k`` times in a run coalesces
        into one decay step carrying ``k * amount`` (``k`` scalar touches
        up to float associativity); a slot in two runs sums those.  Keys
        are ``CellKey``s or ``(geohash, TimeKey)`` pairs, which find the
        same slots.  Returns the touches applied (absent keys are skipped).
        """
        # Per level, one (run, slots, amount, count_access) segment per run.
        # A run's keys come in stretches of one resolution, and a key's
        # level is its two lengths: resolve it once per stretch.
        segments_by_level: dict[int, list[tuple[int, list[int], float, bool]]] = {}
        for run, (keys, amount, count_access) in enumerate(runs):
            shape = None
            for key in keys:
                # (len(geohash), len(time_key.components)), by index: a
                # namedtuple field read is slower than a tuple subscript.
                key_shape = (len(key[0]), len(key[1][0]))
                if key_shape != shape:
                    shape = key_shape
                    level = self.level_of(key)
                    columns = self._columns.get(level)
                    slot_of = {} if columns is None else columns.slot_of
                    segments = segments_by_level.setdefault(level, [])
                    if not segments or segments[-1][0] != run:
                        segments.append((run, [], amount, count_access))
                    slots = segments[-1][1]
                slot = slot_of.get(key)
                if slot is not None:
                    slots.append(slot)
        touched = 0
        for level, segments in segments_by_level.items():
            if len(segments) == 1:
                flat = segments[0][1]
            else:
                flat = [slot for _, slots, _, _ in segments for slot in slots]
            if not flat:
                continue
            touched += len(flat)
            columns = self._columns[level]
            if len(set(flat)) == len(flat):
                idx = np.asarray(flat, dtype=np.intp)
                increments = np.empty(len(flat))
                accessed = []
                start = 0
                for _, slots, amount, count_access in segments:
                    stop = start + len(slots)
                    increments[start:stop] = amount
                    if count_access:
                        accessed.append((idx[start:stop], 1))
                    start = stop
            else:
                # Coalesce duplicates: ``amount * k`` per run, summed over runs.
                uniques = [
                    (*np.unique(np.asarray(slots, dtype=np.intp), return_counts=True), amount, count)
                    for _, slots, amount, count in segments
                ]
                idx, inverse = np.unique(
                    np.concatenate([u for u, _, _, _ in uniques]), return_inverse=True
                )
                increments = np.zeros(len(idx))
                np.add.at(increments, inverse, np.concatenate([a * k for _, k, a, _ in uniques]))
                accessed = [(u, k) for u, k, _, count in uniques if count]
            freshness = columns.freshness
            last_touch = columns.last_touch
            elapsed = np.maximum(0.0, now - last_touch[idx])
            freshness[idx] = (
                freshness[idx] * np.exp(-decay_rate * elapsed) + increments
            )
            last_touch[idx] = now
            for where, k in accessed:
                columns.access_count[where] += k
        return touched

    # -- invalidation (real-time updates, paper IV-D) -----------------------

    def invalidate_extents(
        self, extents: set[tuple[str, tuple[int, ...]]], block_precision: int
    ) -> list[CellKey]:
        """Drop every cell whose extent nests with a touched block's.

        ``extents`` is :func:`stale_extents` of the touched blocks.  A
        cell and a block overlap exactly when their labels agree once
        both are cut to the shorter one, per axis, so each resident key
        is cut to the block's lengths and probed once, so a cell cached as
        empty (no backing blocks) is found too.  Returns the keys removed.
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
