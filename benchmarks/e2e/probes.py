"""Fixed reference kernels that measure the machine, never the program.

This file imports only the standard library and numpy — never
``repro`` — so a change to the program cannot move a probe reading,
while a change in machine speed (a noisy neighbour, a busy sibling
hyperthread, a frequency step) moves the probes and the workload
together.  ``harness.speed_factor`` turns the readings into the factor
every wall interval is divided by.

The kernels are deliberately *wide*, not tight loops.  The variance
study (VARIANCE.md) found that when this VM enters its slow state the
benchmark workloads slow down by more than a small hot loop does: they
run a large and varied instruction and data footprint, so they lose
more when caches and front-end are shared.  A probe has to lose the
same way to cancel the drift, hence:

* ``probe_py`` — dispatch-bound work, the kind the engine's hot path is
  made of: slotted objects hashed into dicts, tuple-keyed lookups
  scattered over a 200 k-entry dict, a heap, string formatting and
  sorting, ``json`` and ``struct`` round trips, a generator pipeline,
  then hundreds of *small* numpy calls (``unique``, fancy indexing,
  ``exp`` on 60-element arrays) whose cost is call overhead, not
  arithmetic.  Of every kernel tried this family tracked the
  workloads' slow-state penalty most closely.
* ``probe_np`` — bulk array work, the shape of a block scan:
  boolean-mask filter, integer binning, stable argsort and
  ``reduceat`` group sums/minima on 60 k records, with a short run of
  small-array updates.  It slows down *less* than the workloads do,
  which is why no workload uses it alone.

Inputs are built once from fixed seeds in :class:`Probes`; the kernels
are pure functions of them.
"""

from __future__ import annotations

import heapq
import json
import random
import struct
import time

import numpy as np


class _Key:
    """A slotted record with a Python-level ``__hash__``/``__eq__``."""

    __slots__ = ("label", "slot", "weight")

    def __init__(self, label: str, slot: int, weight: float):
        self.label = label
        self.slot = slot
        self.weight = weight

    def __hash__(self) -> int:
        return hash((self.label, self.slot))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _Key)
            and self.label == other.label
            and self.slot == other.slot
        )

    def score(self, now: float) -> float:
        return self.weight * 0.5 + now


def _pipeline(values):
    """A three-stage generator chain (the sim engine's resume pattern)."""
    doubled = (v * 2.0 for v in values)
    shifted = (v + 1.0 for v in doubled)
    for value in shifted:
        yield value


class Probes:
    """The two reference kernels with their frozen inputs."""

    def __init__(self) -> None:
        rng = random.Random(6)
        self._table = {
            ("g%05d" % i, i % 7): float(i) for i in range(200_000)
        }
        keys = list(self._table)
        rng.shuffle(keys)
        self._lookups = keys[:1_000]
        self._pack = struct.Struct(">Id")

        gen = np.random.default_rng(2)
        self._lats = gen.uniform(10.0, 60.0, 60_000)
        self._lons = gen.uniform(-150.0, -50.0, 60_000)
        self._values = gen.random(60_000)
        self._slots = [gen.integers(0, 40, 60) for _ in range(300)]
        self._fresh = gen.random(4_096)

    # -- kernels -----------------------------------------------------------

    def probe_py(self) -> float:
        table = self._table
        records = []
        total = 0.0
        for label, slot in self._lookups:
            record = _Key(label, slot, table[(label, slot)])
            records.append(record)
            total += record.score(1.0)
        seen: dict[_Key, float] = {}
        for record in records:
            seen[record] = seen.get(record, 0.0) + record.weight
        heap: list[tuple[float, int]] = []
        for index, record in enumerate(records):
            heapq.heappush(heap, (record.weight % 17.0, index))
        while heap:
            total += heapq.heappop(heap)[0]
        labels = ["%s@%d" % (record.label, record.slot) for record in records]
        labels.sort()
        by_prefix: dict[str, list[str]] = {}
        for label in labels:
            by_prefix.setdefault(label[:4], []).append(label)
        body = json.dumps(
            {prefix: len(group) for prefix, group in by_prefix.items()},
            sort_keys=True,
        )
        total += len(json.loads(body))
        pack = self._pack
        frames = [pack.pack(record.slot, record.weight) for record in records[:400]]
        total += sum(pack.unpack(frame)[1] for frame in frames)
        total += sum(_pipeline(record.weight for record in records))
        return total + self._small_updates(self._slots[:240])

    def _small_updates(self, batches) -> float:
        """Freshness-style updates on short arrays: pure call overhead."""
        fresh = self._fresh
        total = 0.0
        for slots in batches:
            index, counts = np.unique(slots, return_counts=True)
            elapsed = np.maximum(0.0, 3.0 - fresh[index])
            total += float((fresh[index] * np.exp(-0.01 * elapsed) + counts).sum())
        return total

    def probe_np(self) -> float:
        lats, lons, values = self._lats, self._lons, self._values
        total = 0.0
        for shift in range(2):
            mask = (
                (lats >= 20.0 + shift)
                & (lats < 50.0)
                & (lons >= -140.0)
                & (lons < -60.0 - shift)
            )
            lat, lon, val = lats[mask], lons[mask], values[mask]
            ids = (((lat - 10.0) * 40.0).astype(np.uint64) << np.uint64(20)) | (
                (lon + 150.0) * 40.0
            ).astype(np.uint64)
            order = np.argsort(ids, kind="stable")
            sorted_ids = ids[order]
            boundary = np.empty(sorted_ids.shape[0], dtype=bool)
            boundary[0] = True
            boundary[1:] = sorted_ids[1:] != sorted_ids[:-1]
            starts = np.flatnonzero(boundary)
            grouped = val[order]
            total += float(np.add.reduceat(grouped, starts).sum())
            total += float(np.minimum.reduceat(grouped, starts).sum())
        return total + self._small_updates(self._slots[240:])

    # -- reading -------------------------------------------------------------

    def read(self) -> tuple[float, float]:
        """One probe pair: wall seconds of ``probe_py`` and ``probe_np``."""
        clock = time.perf_counter
        t0 = clock()
        self.probe_py()
        t1 = clock()
        self.probe_np()
        t2 = clock()
        return t1 - t0, t2 - t1
