"""Conformance campaigns: the full cluster vs the brute-force oracle.

A campaign replays randomized exploration workloads through a freshly
built :class:`~repro.core.cluster.StashCluster` under every configuration
axis that could plausibly change an answer — cold cache, warm cache,
eviction pressure, roll-up on/off, replication on/off, hotspot rerouting,
fault schedules, membership churn; one row of :data:`AXES` each, run by
:func:`run_axis` — and checks every result against
:class:`~repro.oracle.engine.BruteForceOracle`.

The comparison policy is the correctness contract of the whole system:

* a **complete** answer (``completeness == 1``) must have exactly the
  oracle's non-empty cell set, every value within ``approx_equal``
  tolerance;
* a **degraded** answer (``completeness < 1``) may *omit* cells, but
  every cell it does return must match the oracle — partial answers are
  explicit, never silently wrong, and a fabricated cell is a divergence
  even when flagged degraded.

When an axis diverges, the harness re-runs the failing query on the same
(still live, still stateful) cluster and greedily shrinks it along
spatial/temporal partitions to report a minimal failing query.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Literal

import numpy as np

from repro.config import (
    DEFAULT_CONFIG,
    ClusterConfig,
    EvictionConfig,
    FaultConfig,
    GossipConfig,
    ObservabilityConfig,
    OverloadConfig,
    ReplicationConfig,
    StashConfig,
)
from repro.core.cluster import StashCluster
from repro.core.keys import CellKey
from repro.data.generator import NAM_DOMAIN, conformance_dataset
from repro.data.observation import ObservationBatch
from repro.data.statistics import SummaryVector
from repro.dht.partitioner import PrefixPartitioner
from repro.errors import ReproError
from repro.faults.schedule import FaultEvent
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey, TimeRange
from repro.oracle.engine import DEFAULT_REL_TOL, BruteForceOracle
from repro.oracle.explorer import ExploringSimulator
from repro.oracle.metamorphic import (
    RelationFailure,
    check_eviction_independence,
    check_pan_consistency,
    check_parent_children,
    check_split_additivity,
    describe_query,
)
from repro.query.model import AggregationQuery, QueryResult
from repro.system import coordinator_for


# ---------------------------------------------------------------------------
# comparison policy
# ---------------------------------------------------------------------------


def compare_result(
    result: QueryResult, truth: dict[CellKey, SummaryVector]
) -> list[tuple[str, str]]:
    """Divergences of one cluster answer from the oracle's answer.

    Returns ``(kind, detail)`` pairs; empty means the answer conforms.
    """
    out: list[tuple[str, str]] = []
    if not 0.0 <= result.completeness <= 1.0:
        out.append(
            ("bad-completeness", f"completeness {result.completeness} outside [0, 1]")
        )
        return out
    extra = sorted(set(result.cells) - set(truth), key=str)
    for key in extra:
        out.append(
            (
                "fabricated-cell",
                f"cell {key} returned with count {result.cells[key].count} "
                f"but holds no observations",
            )
        )
    if not result.degraded:
        missing = sorted(set(truth) - set(result.cells), key=str)
        for key in missing:
            out.append(
                (
                    "missing-cell",
                    f"cell {key} with {truth[key].count} observations omitted "
                    f"from an answer claiming completeness 1.0",
                )
            )
    for key, vec in result.cells.items():
        expected = truth.get(key)
        if expected is not None and not vec.approx_equal(expected, rel=DEFAULT_REL_TOL):
            out.append(
                (
                    "value-mismatch",
                    f"cell {key}: got count {vec.count}, oracle says "
                    f"{expected.count} (or summary values differ beyond "
                    f"rel={DEFAULT_REL_TOL})",
                )
            )
    return out


@dataclass(frozen=True)
class Divergence:
    """One confirmed disagreement between the cluster and the oracle."""

    axis: str
    kind: str
    query: AggregationQuery
    detail: str
    #: Smallest sub-query still diverging on the same cluster state, when
    #: the harness managed to shrink one (None for relation failures).
    minimal: AggregationQuery | None = None

    def format(self) -> str:
        lines = [
            f"axis={self.axis} kind={self.kind}",
            f"  query:   {describe_query(self.query)}",
            f"  detail:  {self.detail}",
        ]
        if self.minimal is not None:
            lines.append(f"  minimal: {describe_query(self.minimal)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# divergence shrinking
# ---------------------------------------------------------------------------


def minimize_failing_query(
    diverges: Callable[[AggregationQuery], bool],
    query: AggregationQuery,
    max_steps: int = 24,
) -> AggregationQuery:
    """Greedily shrink a failing query along exact footprint partitions.

    Each step splits the current query spatially or temporally (both
    splits partition the footprint exactly — see
    :meth:`AggregationQuery.split_spatial`) and descends into a half that
    still fails ``diverges``; stops when no half reproduces.  ``diverges``
    is evaluated on clones so every probe is a fresh request.
    """
    current = query
    if not diverges(current.clone()):
        return current
    for _ in range(max_steps):
        descended = False
        for part in current.split_spatial() + current.split_temporal():
            if diverges(part.clone()):
                current = part
                descended = True
                break
        if not descended:
            break
    return current


# ---------------------------------------------------------------------------
# randomized exploration workloads
# ---------------------------------------------------------------------------

#: (size-class extent, resolution) mix.  Coarse spatial resolutions (2,
#: 3) are deliberately over-represented: cells coarser than the block
#: precision span multiple storage blocks, which is the only place
#: cross-block scan merges and roll-up merges actually fire.
_SHAPES: list[tuple[tuple[float, float], Resolution]] = [
    ((16.0, 32.0), Resolution(2, TemporalResolution.DAY)),
    ((16.0, 32.0), Resolution(3, TemporalResolution.DAY)),
    ((8.0, 16.0), Resolution(3, TemporalResolution.DAY)),
    ((4.0, 8.0), Resolution(3, TemporalResolution.DAY)),
    ((4.0, 8.0), Resolution(4, TemporalResolution.DAY)),
    ((4.0, 8.0), Resolution(3, TemporalResolution.HOUR)),
    ((1.0, 2.0), Resolution(4, TemporalResolution.DAY)),
    ((1.0, 2.0), Resolution(4, TemporalResolution.HOUR)),
]


#: Per-query footprint cap: keeps a multi-hundred-query campaign in the
#: seconds range while still covering multi-block and multi-day cells.
_MAX_WORKLOAD_CELLS = 1_500


def _random_box(
    rng: np.random.Generator, domain: BoundingBox, extent: tuple[float, float]
) -> BoundingBox:
    height, width = extent
    height = min(height, domain.height)
    width = min(width, domain.width)
    south = float(rng.uniform(domain.south, domain.north - height))
    west = float(rng.uniform(domain.west, domain.east - width))
    return BoundingBox(south, south + height, west, west + width)


def exploration_workload(
    rng: np.random.Generator,
    num_requests: int,
    days: list[TimeKey],
    attribute_names: list[str],
    domain: BoundingBox = NAM_DOMAIN,
) -> list[AggregationQuery]:
    """Randomized exploration sessions over the conformance dataset.

    Each session starts from a random rectangle/day/resolution/attribute
    selection and then navigates — pans, dices, drills, rolls — the way
    the paper's visual front-end does.  Sessions vary every query
    dimension the system branches on: multi-day time ranges (multi-block
    cells), HOUR resolution (temporal roll-up axis), coarse precisions
    (spatial roll-up + cross-block merges), and attribute projections.
    """
    out: list[AggregationQuery] = []
    while len(out) < num_requests:
        extent, resolution = _SHAPES[int(rng.integers(0, len(_SHAPES)))]
        day_idx = int(rng.integers(0, len(days)))
        span = 1
        if resolution.temporal == TemporalResolution.DAY and rng.random() < 0.3:
            span = int(rng.integers(2, len(days) + 1))
        day_idx = min(day_idx, len(days) - span)
        time_range = TimeRange(
            days[day_idx].epoch_range().start,
            days[day_idx + span - 1].epoch_range().end,
        )
        attributes: tuple[str, ...] | None = None
        if rng.random() < 0.3:
            count = min(int(rng.integers(1, 3)), len(attribute_names))
            picked = rng.choice(len(attribute_names), size=count, replace=False)
            attributes = tuple(sorted(attribute_names[i] for i in picked))
        query = AggregationQuery(
            bbox=_random_box(rng, domain, extent),
            time_range=time_range,
            resolution=resolution,
            attributes=attributes,
        )
        if query.footprint_size() > _MAX_WORKLOAD_CELLS:
            continue
        out.append(query)
        for _ in range(int(rng.integers(0, 4))):
            move = rng.random()
            if move < 0.45:
                query = query.panned(
                    float(rng.uniform(-0.4, 0.4)) * query.bbox.height,
                    float(rng.uniform(-0.4, 0.4)) * query.bbox.width,
                )
            elif move < 0.7:
                query = query.diced(float(rng.choice([0.5, 2.0])))
            else:
                res = query.resolution
                step = (
                    res.finer_spatial() if rng.random() < 0.5 else res.coarser_spatial()
                )
                if step is None or not 2 <= step.spatial <= 4:
                    continue
                query = query.at_resolution(step)
            if query.footprint_size() > _MAX_WORKLOAD_CELLS:
                break
            out.append(query)
    return out[:num_requests]


# ---------------------------------------------------------------------------
# configuration axes
# ---------------------------------------------------------------------------

#: Days of :func:`~repro.data.generator.conformance_dataset`.
_DAYS = [TimeKey.of(2013, 2, day) for day in (1, 2, 3)]


def _base_config() -> StashConfig:
    """Conformance cluster shape: small enough to simulate hundreds of
    queries quickly, with both replication and roll-up exercised.  The
    flight recorder is ON so every conformance campaign doubles as a
    recorder-passivity check: if recording ever perturbed an answer,
    the oracle comparison would catch it."""
    return DEFAULT_CONFIG.with_(
        cluster=ClusterConfig(num_nodes=8),
        observability=ObservabilityConfig(flight_recorder=True),
    )


#: A workload step: a query to check, or ``("warm", query)`` run only to
#: heat the cache (serial driver).
Step = AggregationQuery | tuple[str, AggregationQuery]


def _exploration(rng, n, attribute_names) -> list[Step]:
    return exploration_workload(rng, n, _DAYS, attribute_names)


def _rollup_workload(rng, n, attribute_names) -> list[Step]:
    """Warm fine (and hourly), query coarse: answers recomputed via roll-up."""
    steps: list[Step] = []
    checked = 0
    while checked < n:
        day = _DAYS[int(rng.integers(0, len(_DAYS)))]
        box = _random_box(rng, NAM_DOMAIN, (8.0, 16.0))
        fine = AggregationQuery(
            bbox=box,
            time_range=day.epoch_range(),
            resolution=Resolution(4, TemporalResolution.DAY),
        )
        hourly = AggregationQuery(
            bbox=_random_box(rng, box, (2.0, 4.0)),
            time_range=day.epoch_range(),
            resolution=Resolution(3, TemporalResolution.HOUR),
        )
        coarse = [
            fine.at_resolution(Resolution(3, TemporalResolution.DAY)),
            fine.at_resolution(Resolution(2, TemporalResolution.DAY)),
            AggregationQuery(
                bbox=hourly.bbox,
                time_range=hourly.time_range,
                resolution=Resolution(3, TemporalResolution.DAY),
            ),
        ][: n - checked]
        steps += [("warm", fine), ("warm", hourly), *coarse]
        checked += len(coarse)
    return steps


def _hotspot_walk(rng, n, attribute_names) -> list[Step]:
    """Small pans around one box: every request lands on one coordinator."""
    query = AggregationQuery(
        bbox=_random_box(rng, NAM_DOMAIN, (4.0, 8.0)),
        time_range=_DAYS[0].epoch_range(),
        resolution=Resolution(4, TemporalResolution.DAY),
    )
    queries: list[Step] = []
    while len(queries) < n:
        queries.append(query)
        query = query.panned(
            float(rng.uniform(-0.15, 0.15)) * query.bbox.height,
            float(rng.uniform(-0.15, 0.15)) * query.bbox.width,
        )
    return queries


#: How :func:`run_axis` sends a workload.
Driver = Literal["serial", "replay", "concurrent", "open-loop"]
#: Which schedules a row runs: the canonical ``(time, seq)`` one, or one
#: seeded :class:`~repro.oracle.explorer.ExploringSimulator` schedule.
Schedule = Literal["canonical", "explore"]


@dataclass(frozen=True)
class Axis:
    """One configuration axis: the base cluster plus one regime.

    ``overrides`` are :meth:`StashConfig.with_` keyword arguments.  Fault
    events in them name the roles ``coordinator`` (the node the first
    query is sent to) and ``peer`` (the first other node); each run
    resolves them against its own workload.  ``workload(rng, n,
    attribute_names)`` returns the steps, and ``driver`` says how
    :func:`run_axis` sends them.  ``simulator`` picks the schedule; an
    explored row's answers are checked against the oracle like any
    other, and a ``serial`` one's must also be byte-identical to the
    canonical schedule's (:meth:`QueryResult.differences`).
    """

    name: str
    description: str
    overrides: dict = field(default_factory=dict)
    workload: Callable[..., list[Step]] = _exploration
    driver: Driver = "serial"
    simulator: Schedule = "canonical"


#: Timeouts and retries shared by the fault-injecting axes.
_RECOVERY = dict(enabled=True, rpc_timeout=0.25, evaluate_timeout=1.0, max_retries=1)

#: The campaign, one row per regime, in report order.  A new regime is a
#: new row; axes are seeded by ``[seed, row index]``, so append.
AXES: tuple[Axis, ...] = (
    Axis("cold-cache", "fresh cluster, serial workload"),
    Axis("warm-cache", "same workload replayed after warm-up", driver="replay"),
    Axis(
        "eviction-pressure",
        "96-cell cache, constant churn",
        {"eviction": EvictionConfig(max_cells=96, safe_fraction=0.5)},
    ),
    Axis("rollup", "warm fine, query coarse (roll-up path)", workload=_rollup_workload),
    Axis(
        "no-rollup", "enable_rollup=False, disk on every miss", {"enable_rollup": False}
    ),
    Axis("no-replication", "enable_replication=False", {"enable_replication": False}),
    # Concurrent, so queue depth crosses the lowered hotspot threshold
    # and guest graphs serve rerouted queries.
    Axis(
        "replication-hotspot",
        "forced clique handoff + reroute_probability=1",
        {
            "replication": ReplicationConfig(
                hotspot_queue_threshold=3, cooldown=0.0, reroute_probability=1.0
            )
        },
        _hotspot_walk,
        "concurrent",
    ),
    # Shared membership, instantaneous failover: any answer produced
    # while the coordinator is down must match the oracle or carry
    # completeness < 1.
    Axis(
        "faults",
        "coordinator crash/restart + link loss",
        {
            "faults": FaultConfig(
                **_RECOVERY,
                schedule=(
                    FaultEvent(kind="crash", at=0.05, node="coordinator"),
                    FaultEvent(kind="restart", at=1.5, node="coordinator"),
                    FaultEvent(kind="drop_link", at=2.0, until=2.6, dst="peer"),
                    FaultEvent(kind="slow_disk", at=0.0, until=4.0, node="peer", factor=3.0),
                ),
            )
        },
        driver="open-loop",
    ),
    # Every node keeps its own epidemic liveness view: the crash is found
    # by heartbeat silence, misrouted legs bounce through NOT_OWNER,
    # survivors promote guest replicas, the restarted node rejoins by
    # handoff, and overload shedding is armed.  Tight gossip timings put
    # suspect -> dead -> repair -> rejoin inside the workload window.
    Axis(
        "churn",
        "gossip membership churn: crash/restart + anti-entropy + overload",
        {
            "faults": FaultConfig(
                **_RECOVERY,
                backoff_jitter=0.2,
                schedule=(
                    FaultEvent(kind="crash", at=0.3, node="coordinator"),
                    FaultEvent(kind="restart", at=2.0, node="coordinator"),
                ),
            ),
            "gossip": GossipConfig(
                enabled=True, interval=0.05, suspect_after=0.2, dead_after=0.2
            ),
            "overload": OverloadConfig(enabled=True, queue_limit=32),
        },
        driver="open-loop",
    ),
)

#: The explorer column: six of the regimes above again, each on one
#: seeded schedule.  Serial rows (no faults, no eviction pressure) must
#: give the canonical answers byte for byte -- the socket twin rests on
#: it; concurrent and open-loop rows obey the subset-not-fabricate rule.
AXES += tuple(
    replace(
        next(axis for axis in AXES if axis.name == base),
        name=f"explore-{name}",
        description=f"explored schedules, {description}",
        driver=driver,
        simulator="explore",
    )
    for name, base, driver, description in (
        ("serial", "cold-cache", "serial", "serial: byte-identical to canonical"),
        ("rollup", "rollup", "serial", "roll-up path: byte-identical to canonical"),
        ("eviction", "eviction-pressure", "concurrent", "96-cell cache, concurrent clients"),
        ("hotspot", "replication-hotspot", "concurrent", "forced clique handoff, concurrent"),
        ("faults", "faults", "open-loop", "crash/restart + link loss"),
        ("churn", "churn", "open-loop", "gossip churn + overload"),
    )
)


@dataclass
class AxisRun:
    """What one axis produced: each executed query with its result.

    An explored row carries its schedule's seed; a serial one also the
    canonical run of the same steps, its ``twin``.
    """

    cluster: StashCluster
    pairs: list[tuple[AggregationQuery, QueryResult]]
    schedule: int | None = None
    twin: "AxisRun | None" = None


def _axis_config(axis: Axis, first: AggregationQuery) -> StashConfig:
    """The axis's config with schedule roles bound to node ids."""
    config = _base_config().with_(**axis.overrides)
    if not config.faults.schedule:
        return config
    node_ids = [f"node-{i}" for i in range(config.cluster.num_nodes)]
    partitioner = PrefixPartitioner(node_ids, config.cluster.partition_precision)
    coordinator = coordinator_for(partitioner, first)
    peer = next(node for node in node_ids if node != coordinator)
    roles = {"coordinator": coordinator, "peer": peer}

    def bind(role: str | None) -> str | None:
        return roles.get(role, role)

    schedule = tuple(
        replace(event, node=bind(event.node), src=bind(event.src), dst=bind(event.dst))
        for event in config.faults.schedule
    )
    return config.with_(faults=replace(config.faults, schedule=schedule))


def run_axis(
    axis: Axis, dataset: ObservationBatch, rng: np.random.Generator, n: int
) -> AxisRun:
    """Build the axis's cluster and drive its workload.

    An explored row draws its schedule seed from ``rng`` after the
    workload, and a serial one runs the same steps again under the
    canonical schedule as its twin.
    """
    steps = axis.workload(rng, n, dataset.attribute_names)
    queries = [step for step in steps if not isinstance(step, tuple)]
    config = _axis_config(axis, queries[0])
    if axis.simulator == "canonical":
        return _drive(axis, StashCluster(dataset, config), steps, rng)
    schedule = int(rng.integers(2**63))
    sim = ExploringSimulator(schedule)
    run = _drive(axis, StashCluster(dataset, config, sim), steps, rng)
    run.schedule = schedule
    if axis.driver == "serial":
        run.twin = _drive(axis, StashCluster(dataset, config), steps, rng)
    return run


def _drive(
    axis: Axis, cluster: StashCluster, steps: list[Step], rng: np.random.Generator
) -> AxisRun:
    """Send ``steps`` to ``cluster``; the one place a driver is chosen.

    * ``serial`` — run and drain each query; ``("warm", q)`` steps only
      heat the cache;
    * ``replay`` — warm the whole workload, then serial over clones, so
      answers must come from cache unchanged;
    * ``concurrent`` — fire every query at once, then drain the
      background machinery before comparing;
    * ``open-loop`` — Poisson arrivals, then drain.  Serial run + drain
      would fast-forward simulated time past every fault window after
      the first request; arrivals spread the queries across them.
    """
    queries = [step for step in steps if not isinstance(step, tuple)]
    if axis.driver == "replay":
        cluster.warm(queries)
        steps = queries = [query.clone() for query in queries]
    if axis.driver in ("serial", "replay"):
        results = []
        for step in steps:
            if isinstance(step, tuple):
                cluster.warm([step[1]])
                continue
            results.append(cluster.run_query(step))
            cluster.drain()
    elif axis.driver == "concurrent":
        results = cluster.run_concurrent(queries)
        cluster.drain()
    else:  # open-loop
        rate = max(16.0, len(queries) / 3.0)
        results = cluster.run_open_loop(queries, rate=rate, seed=int(rng.integers(2**31)))
        cluster.drain()
    return AxisRun(cluster, list(zip(queries, results)))


# ---------------------------------------------------------------------------
# campaign driver
# ---------------------------------------------------------------------------


@dataclass
class AxisReport:
    """Outcome of one configuration axis."""

    axis: str
    description: str
    queries: int = 0
    degraded: int = 0
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_json_dict(self) -> dict:
        return {
            "axis": self.axis,
            "description": self.description,
            "queries": self.queries,
            "degraded": self.degraded,
            "divergences": [
                {
                    "kind": d.kind,
                    "query": describe_query(d.query),
                    "detail": d.detail,
                    "minimal": None if d.minimal is None else describe_query(d.minimal),
                }
                for d in self.divergences
            ],
        }


@dataclass
class CampaignReport:
    """Outcome of a whole conformance campaign."""

    seed: int
    quick: bool
    axes: list[AxisReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(axis.ok for axis in self.axes)

    @property
    def total_queries(self) -> int:
        return sum(axis.queries for axis in self.axes)

    @property
    def total_divergences(self) -> int:
        return sum(len(axis.divergences) for axis in self.axes)

    def format(self) -> str:
        lines = [
            f"conformance campaign: seed={self.seed} "
            f"profile={'quick' if self.quick else 'full'}",
            "",
            f"{'axis':<22} {'queries':>8} {'degraded':>9} {'divergent':>10}",
        ]
        for axis in self.axes:
            lines.append(
                f"{axis.axis:<22} {axis.queries:>8} {axis.degraded:>9} "
                f"{len(axis.divergences):>10}  {'ok' if axis.ok else 'FAIL'}"
            )
        lines.append("")
        lines.append(
            f"total: {self.total_queries} checks, "
            f"{self.total_divergences} divergences -> "
            f"{'CONFORMS' if self.ok else 'DIVERGES'}"
        )
        for axis in self.axes:
            for divergence in axis.divergences:
                lines.append("")
                lines.append(divergence.format())
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "quick": self.quick,
            "ok": self.ok,
            "total_queries": self.total_queries,
            "total_divergences": self.total_divergences,
            "axes": [axis.to_json_dict() for axis in self.axes],
        }


#: Divergences minimized per axis; shrinking re-runs queries, so bound it.
_MAX_MINIMIZED = 2
#: Divergences recorded per axis before bailing (a broken merge diverges
#: on nearly every query; the report needs examples, not thousands).
_MAX_RECORDED = 8


def _check_axis(axis: Axis, run: AxisRun, oracle: BruteForceOracle) -> AxisReport:
    report = AxisReport(axis=axis.name, description=axis.description)
    twin = run.twin

    def problems_of(
        query: AggregationQuery, result: QueryResult, canonical: QueryResult | None
    ) -> list[tuple[str, str]]:
        problems = compare_result(result, oracle.answer(query))
        if not problems and canonical is not None:
            problems = [("schedule-dependent", p) for p in result.differences(canonical)]
        if run.schedule is not None:
            problems = [(kind, f"schedule {run.schedule}: {d}") for kind, d in problems]
        return problems

    def diverges(query: AggregationQuery) -> bool:
        result = run.cluster.run_query(query)
        run.cluster.drain()
        canonical = None
        if twin is not None:
            canonical = twin.cluster.run_query(query)
            twin.cluster.drain()
        return bool(problems_of(query, result, canonical))

    canonicals = [r for _, r in twin.pairs] if twin else [None] * len(run.pairs)
    for (query, result), canonical in zip(run.pairs, canonicals):
        report.queries += 1
        if result.degraded:
            report.degraded += 1
        problems = problems_of(query, result, canonical)
        if not problems:
            continue
        kind, detail = problems[0]
        minimal = None
        if len(report.divergences) < _MAX_MINIMIZED:
            minimal = minimize_failing_query(diverges, query)
            if minimal.query_id == query.query_id:
                minimal = None
        report.divergences.append(
            Divergence(
                axis=axis.name, kind=kind, query=query, detail=detail, minimal=minimal
            )
        )
        if len(report.divergences) >= _MAX_RECORDED:
            break
    return report


def _check_metamorphic(
    dataset: ObservationBatch, rng: np.random.Generator, n: int
) -> AxisReport:
    """Relation checks on a default cluster (no oracle involved)."""
    report = AxisReport(
        axis="metamorphic",
        description="parent/children, pan overlap, split, eviction",
    )
    cluster = StashCluster(dataset, _base_config())
    queries = exploration_workload(rng, n, _DAYS, dataset.attribute_names)
    failures: list[RelationFailure] = []
    for index, query in enumerate(queries):
        checks = index % 4
        if checks == 0 and query.footprint_size() <= 48:
            axis = "spatial" if index % 8 == 0 else "temporal"
            failures = check_parent_children(cluster, query, axis)
        elif checks == 1:
            failures = check_pan_consistency(
                cluster, query, 0.3 * query.bbox.height, 0.3 * query.bbox.width
            )
        elif checks == 2:
            failures = check_split_additivity(cluster, query)
        else:
            failures = check_eviction_independence(cluster, query)
        report.queries += 1
        for failure in failures[:_MAX_RECORDED]:
            report.divergences.append(
                Divergence(
                    axis="metamorphic",
                    kind=failure.relation,
                    query=failure.query,
                    detail=failure.detail,
                )
            )
        if len(report.divergences) >= _MAX_RECORDED:
            break
    return report


def run_campaign(
    seed: int = 0,
    quick: bool = False,
    queries_per_axis: int | None = None,
    axes: list[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> CampaignReport:
    """Run the full conformance campaign and return its report.

    The full profile runs enough randomized queries (608 checks at seed
    0) to exercise every configuration surface; ``quick`` is the CI
    smoke shape.  Deterministic for a given seed.  ``axes`` selects rows
    of :data:`AXES` and/or ``metamorphic`` by name; an unknown name or an
    empty selection is a :class:`ReproError`.
    """
    valid = [axis.name for axis in AXES] + ["metamorphic"]
    if axes is not None:
        unknown = sorted(set(axes) - set(valid))
        if unknown or not axes:
            what = f"unknown axis {unknown}" if unknown else "no axis selected"
            raise ReproError(f"{what}; choose from {valid}")
    if queries_per_axis is None:
        queries_per_axis = 8 if quick else 64
    dataset = conformance_dataset(seed=seed)
    oracle = BruteForceOracle(dataset)
    report = CampaignReport(seed=seed, quick=quick)
    for index, axis in enumerate(AXES):
        if axes is not None and axis.name not in axes:
            continue
        if progress is not None:
            progress(f"axis {axis.name}: {axis.description}")
        # Seed each axis independently of which axes were selected (and of
        # PYTHONHASHSEED) so one axis's workload is reproducible in isolation.
        rng = np.random.default_rng([seed, index])
        run = run_axis(axis, dataset, rng, queries_per_axis)
        report.axes.append(_check_axis(axis, run, oracle))
    if axes is None or "metamorphic" in axes:
        if progress is not None:
            progress("axis metamorphic: relation checks")
        rng = np.random.default_rng([seed, 987_654_321])
        report.axes.append(
            _check_metamorphic(dataset, rng, max(4, queries_per_axis // 2))
        )
    return report
