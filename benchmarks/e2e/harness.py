"""Timing core of the end-to-end benchmark: chunks, probes, normalisation.

Nothing here imports ``repro``: the module knows about *ops* (opaque
objects a workload executes), wall intervals and probe readings, and
turns them into the end-to-end metrics.  ``test_harness.py`` pins the
algebra on synthetic records.

Definitions (README.md has the long form):

* a **pass** is one trip over the workload's fixed op list, every op a
  fresh request object built before the pass starts;
* a pass is cut into **chunks** of ``chunk_ops`` ops; a probe pair
  (``probe_py``, ``probe_np``) runs before the first chunk and after
  every chunk;
* the pass's **speed factor** is
  ``f = (py / py_ref) ** w_py * (np / np_ref) ** w_np`` from the median
  probe readings inside the pass — ``f > 1`` means the machine was
  slower than the reference machine state;
* every wall interval measured in the pass is divided by ``f``.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence


def percentile(values: Iterable[float], q: float) -> float:
    """``q``-th percentile (0..100), linear interpolation (NumPy default).

    Re-implemented here (not imported from ``repro.stats``) so a change
    to the program cannot move the benchmark's own arithmetic; the
    self-tests hold the two to equality.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    rank = (len(ordered) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def chunk_bounds(num_ops: int, chunk_ops: int) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` slices covering every op exactly once."""
    if num_ops < 1 or chunk_ops < 1:
        raise ValueError("num_ops and chunk_ops must be positive")
    return [
        (start, min(start + chunk_ops, num_ops))
        for start in range(0, num_ops, chunk_ops)
    ]


@dataclass(frozen=True)
class ProbeRefs:
    """Frozen reference probe readings (seconds) — the unit of speed."""

    py_s: float
    np_s: float


@dataclass(frozen=True)
class ProbeMix:
    """Exponents of the two probes in a workload's speed factor."""

    py: float
    np: float


def speed_factor(
    py_readings: Sequence[float],
    np_readings: Sequence[float],
    mix: ProbeMix,
    refs: ProbeRefs,
) -> float:
    """``f`` for one bracket of probe readings (medians against refs)."""
    py = statistics.median(py_readings)
    np_ = statistics.median(np_readings)
    return (py / refs.py_s) ** mix.py * (np_ / refs.np_s) ** mix.np


@dataclass
class PassRecord:
    """Raw measurements of one pass; nothing normalised yet."""

    #: Per-op wall latency in seconds, in op order.
    latencies: list[float] = field(default_factory=list)
    #: Parallel to ``latencies``: does the op count toward the latency
    #: percentiles (reads) or only toward throughput (writes)?
    pooled: list[bool] = field(default_factory=list)
    #: Ops that raised, returned an error status, or timed out.
    failed: int = 0
    #: Probe readings (seconds), one more than there are chunks.
    probe_py: list[float] = field(default_factory=list)
    probe_np: list[float] = field(default_factory=list)
    #: Process CPU seconds (all threads) spent inside the timed ops.
    cpu_s: float = 0.0

    @property
    def wall_s(self) -> float:
        """Service time of the pass: the sum of its timed op intervals."""
        return math.fsum(self.latencies)

    def factor(self, mix: ProbeMix, refs: ProbeRefs) -> float:
        return speed_factor(self.probe_py, self.probe_np, mix, refs)


def run_pass(
    ops: Sequence[Any],
    execute: Callable[[Any], bool],
    pooled: Callable[[Any], bool],
    before_op: Callable[[Any], None],
    chunk_ops: int,
    read_probes: Callable[[], tuple[float, float]],
) -> PassRecord:
    """One closed-loop pass: probe, chunk, probe, chunk, ..., probe.

    ``execute(op)`` is the timed call and returns whether the op
    succeeded; an exception counts as a failure and the pass goes on.
    ``before_op`` runs untimed (``scan_cold``'s cache flush).
    """
    record = PassRecord()
    clock = time.perf_counter_ns
    latencies = record.latencies
    py, np_ = read_probes()
    record.probe_py.append(py)
    record.probe_np.append(np_)
    for start, stop in chunk_bounds(len(ops), chunk_ops):
        cpu0 = time.process_time()
        for index in range(start, stop):
            op = ops[index]
            before_op(op)
            t0 = clock()
            try:
                ok = execute(op)
            except Exception:  # noqa: BLE001 - a failed op is a counted outcome
                ok = False
            t1 = clock()
            latencies.append((t1 - t0) * 1e-9)
            if not ok:
                record.failed += 1
        record.cpu_s += time.process_time() - cpu0
        py, np_ = read_probes()
        record.probe_py.append(py)
        record.probe_np.append(np_)
    record.pooled = [pooled(op) for op in ops]
    return record


@dataclass(frozen=True)
class TimedPhase:
    """One set-up, bracketed by its own probe readings."""

    wall_s: float
    probe_py: tuple[float, ...]
    probe_np: tuple[float, ...]

    def factor(self, mix: ProbeMix, refs: ProbeRefs) -> float:
        return speed_factor(self.probe_py, self.probe_np, mix, refs)

    def normalised(self, mix: ProbeMix, refs: ProbeRefs) -> float:
        return self.wall_s / self.factor(mix, refs)


def timed_phases(
    phases: Sequence[Callable[[], None]],
    read_probes: Callable[[], tuple[float, float]],
) -> TimedPhase:
    """Run set-up phases in order; probes before, between and after.

    Three probe pairs are read at each end and two between phases, so a
    set-up of three phases yields ten readings per probe — a set-up
    lasts a second or two and has no chunks to hang readings on.  Probe
    time is excluded from the wall.
    """
    py_readings: list[float] = []
    np_readings: list[float] = []

    def probe(times: int) -> None:
        for _ in range(times):
            py, np_ = read_probes()
            py_readings.append(py)
            np_readings.append(np_)

    wall = 0.0
    probe(3)
    for index, phase in enumerate(phases):
        started = time.perf_counter()
        phase()
        wall += time.perf_counter() - started
        probe(3 if index == len(phases) - 1 else 2)
    return TimedPhase(wall, tuple(py_readings), tuple(np_readings))


def summarise(
    passes: Sequence[PassRecord],
    mix: ProbeMix,
    refs: ProbeRefs,
) -> dict[str, float]:
    """Normalised and raw end-to-end numbers over a set of passes.

    Every statistic is computed per pass and the **median over passes**
    is reported: throughput from the pass wall, latency percentiles from
    the pass's own pooled op samples (reads only where the workload
    marks writes as unpooled).  A pass's speed factor comes from a
    handful of jittery probe readings; pooling samples across passes
    first would let the worst-estimated pass own the tail.
    """
    if not passes:
        raise ValueError("no passes to summarise")
    factors = [p.factor(mix, refs) for p in passes]
    ops_per_pass = len(passes[0].latencies)
    raw_walls = [p.wall_s for p in passes]
    norm_walls = [wall / f for wall, f in zip(raw_walls, factors)]
    pools = [
        [lat for lat, keep in zip(p.latencies, p.pooled) if keep] for p in passes
    ]

    def latency_ms(q: float, normalised: bool) -> float:
        return 1e3 * statistics.median(
            percentile(pool, q) / (f if normalised else 1.0)
            for pool, f in zip(pools, factors)
        )

    all_py = [r for p in passes for r in p.probe_py]
    all_np = [r for p in passes for r in p.probe_np]
    median_wall = statistics.median(norm_walls)
    total_ops = ops_per_pass * len(passes)
    return {
        "throughput_ops_s": ops_per_pass / median_wall,
        "latency_p50_ms": latency_ms(50.0, True),
        "latency_p95_ms": latency_ms(95.0, True),
        "latency_p99_ms": latency_ms(99.0, True),
        "raw_throughput_ops_s": ops_per_pass / statistics.median(raw_walls),
        "raw_latency_p50_ms": latency_ms(50.0, False),
        "raw_latency_p95_ms": latency_ms(95.0, False),
        "speed_factor": statistics.median(factors),
        "probe_py_ms": statistics.median(all_py) * 1e3,
        "probe_np_ms": statistics.median(all_np) * 1e3,
        "probe_cv": _cv(all_py) * mix.py + _cv(all_np) * mix.np,
        "pass_spread_pct": 100.0
        * (max(norm_walls) - min(norm_walls))
        / median_wall,
        "cpu_ms_per_op": 1e3 * sum(p.cpu_s for p in passes) / total_ops,
        "passes": float(len(passes)),
        "latency_samples": float(sum(len(pool) for pool in pools)),
        "failed_ops": float(sum(p.failed for p in passes)),
        "total_ops": float(total_ops),
    }


def _cv(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = statistics.fmean(values)
    return statistics.pstdev(values) / mean if mean > 0 else 0.0
