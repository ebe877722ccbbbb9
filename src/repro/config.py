"""Configuration dataclasses for every tunable in the STASH reproduction.

The paper reports results from a 120-node physical cluster processing the
~1.1 TB NOAA NAM dataset.  We reproduce the system on a deterministic
discrete-event simulator; every hardware constant the paper's testbed
implied (disk seek/throughput, NIC latency/bandwidth, per-record CPU cost)
is an explicit, documented knob here so experiments are reproducible and
the calibration is auditable (see DESIGN.md section 5).

All simulated durations are in **seconds of simulated time**; all sizes in
bytes unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import FaultError, NetworkError


@dataclass(frozen=True)
class CostModel:
    """Hardware cost constants driving the discrete-event simulation.

    Defaults are calibrated so that a cold country-sized query lands in
    the multi-second range and a fully cached one in the tens of
    milliseconds, matching the latency *ratios* of the paper's Fig. 6a.
    """

    #: One-way network latency for any message (seconds).
    network_latency: float = 2.0e-4
    #: Network bandwidth (bytes / second).
    network_bandwidth: float = 1.0e9
    #: Disk seek + request overhead per block read (seconds).
    disk_seek: float = 4.0e-3
    #: Sustained disk read throughput (bytes / second).
    disk_bandwidth: float = 1.5e8
    #: Multiplier applied to on-disk block sizes to emulate the paper's
    #: TB-scale dataset with a laptop-scale synthetic one.
    data_scale: float = 64.0
    #: CPU cost to scan + bin one raw observation record (seconds).
    scan_cost_per_record: float = 2.0e-7
    #: CPU cost to look up one cell in the in-memory graph (seconds).
    cell_lookup_cost: float = 2.0e-6
    #: CPU cost to merge one child cell into a parent aggregate (seconds).
    cell_merge_cost: float = 1.0e-6
    #: CPU cost to insert one cell into the graph (population path).
    cell_insert_cost: float = 4.0e-6
    #: Fixed per-request server-side overhead (deserialize, dispatch).
    request_overhead: float = 5.0e-4
    #: Approximate serialized size of one cell on the wire (bytes).
    cell_wire_size: int = 256

    def disk_read_time(self, nbytes: int) -> float:
        """Simulated seconds to read ``nbytes`` (pre-scaling) from disk."""
        return self.disk_seek + (nbytes * self.data_scale) / self.disk_bandwidth

    def network_time(self, nbytes: int) -> float:
        """Simulated seconds for a message of ``nbytes`` to traverse a link."""
        return self.network_latency + nbytes / self.network_bandwidth


@dataclass(frozen=True)
class FreshnessConfig:
    """Freshness scoring parameters (paper section V-C)."""

    #: Fraction of one access's freshness increment
    #: (:data:`repro.core.freshness.F_INC`) dispersed to each cell in the
    #: immediate spatiotemporal neighborhood of an accessed region.
    dispersion_fraction: float = 0.35
    #: Exponential decay half-life of freshness (simulated seconds).
    half_life: float = 120.0


@dataclass(frozen=True)
class EvictionConfig:
    """Cell replacement thresholds (paper section V-C)."""

    #: Hard capacity: max cells resident in one node's local graph.
    max_cells: int = 200_000
    #: After a threshold breach, evict until at or below this fraction of
    #: ``max_cells`` (the paper's "safe limit").
    safe_fraction: float = 0.8


@dataclass(frozen=True)
class ReplicationConfig:
    """Dynamic clique replication parameters (paper section VII)."""

    #: A node deems itself hotspotted when its pending request queue
    #: exceeds this many entries (paper used 100).
    hotspot_queue_threshold: int = 100
    #: Clique depth: a clique is a cell plus descendants this many levels
    #: down (paper example: depth 2).
    clique_depth: int = 2
    #: Max number of cells replicated in one handoff (paper's ``N``).
    max_replicated_cells: int = 4_000
    #: Max cliques per handoff (paper's top ``K``).
    top_k_cliques: int = 8
    #: Cooldown between successive handoffs on one node (simulated s).
    cooldown: float = 30.0
    #: Probability that a query fully covered by a replica is rerouted
    #: to the helper node.
    reroute_probability: float = 0.5
    #: Guest-graph entries unused for this long are purged (simulated s).
    guest_ttl: float = 120.0


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and concurrency of the simulated cluster."""

    #: Number of storage/STASH nodes (the paper used 120).
    num_nodes: int = 16
    #: Geohash prefix length used to partition data over the DHT
    #: (the paper partitioned on the first 2 characters).
    partition_precision: int = 2
    #: Geohash precision of individual storage blocks (disk read units).
    #: Galileo stores many finer-grained block files inside each node's
    #: partition; a node owns every block whose prefix falls in its
    #: partition.  Must be >= partition_precision.
    block_precision: int = 3
    #: Seed for any randomized placement decisions.
    seed: int = 7


@dataclass(frozen=True)
class ElasticConfig:
    """Simulated ElasticSearch baseline (paper section VIII-A)."""

    #: Shards per index (the paper used 600 over 120 data nodes).
    num_shards: int = 64
    #: Page/block LRU cache capacity per node, in chunks.  Calibrated to
    #: the paper's regime (1.1 TB corpus vs 16 GB nodes): the cache holds
    #: only a sliver of any realistic query working set, so overlapping-
    #: but-not-identical queries mostly re-read disk.  Raise this to
    #: explore RAM-rich deployments.
    page_cache_blocks: int = 4


@dataclass(frozen=True)
class ObservabilityConfig:
    """Query tracing and time-series metric sampling (repro.obs).

    Both features are passive observers: enabling them never changes
    simulated results, only records them.  Tracing is off by default so
    the hot path stays allocation-free.
    """

    #: Record per-query span trees (enables latency attribution and the
    #: Chrome-trace exporter).
    trace: bool = False
    #: Sample registered gauges every this many simulated seconds
    #: (0 disables the periodic sampler).
    sample_interval: float = 0.0
    #: Enable the query flight recorder: per-query trace contexts carried
    #: through every RPC/retry/redirect leg, mergeable latency histograms
    #: (per query class, per node, cluster-wide), and outcome/SLO
    #: accounting.  Passive like tracing: results are byte-identical
    #: either way.
    flight_recorder: bool = False
    #: Latency SLO targets as ``(query_class, percentile, seconds)``
    #: triples, e.g. ``(("pan", 95.0, 0.1), ("*", 99.0, 1.0))``.  Class
    #: ``"*"`` applies to every query.  Checked by the flight recorder;
    #: violations increment the ``slo_violations`` counter.
    slo_targets: tuple = ()


#: Growth factor of the retry backoff: retry ``i`` waits
#: ``backoff_base * BACKOFF_MULTIPLIER**i``.
BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class FaultConfig:
    """Fault injection and failure recovery (repro.faults).

    With ``enabled`` false and an empty ``schedule`` the fault layer is
    completely inert: no timers, no extra simulation events, and every
    RPC takes the exact pre-fault code path, so results are bit-identical
    to a build without the layer.
    """

    #: Master switch for timeout/retry/failover on RPCs.  Automatically
    #: considered on when a schedule is present (see :attr:`active`).
    enabled: bool = False
    #: Coordinator-side timeout for one leg of fetch_cells / populate /
    #: scan / clique RPCs (simulated seconds).
    rpc_timeout: float = 5.0
    #: Client-side timeout for a whole evaluate round trip.
    evaluate_timeout: float = 30.0
    #: Retries after the first attempt before declaring the peer dead.
    max_retries: int = 2
    #: Backoff before the first retry (see :data:`BACKOFF_MULTIPLIER`).
    backoff_base: float = 0.5
    #: Fraction of the nominal backoff randomized symmetrically around it
    #: (0.2 means each delay is drawn from +/-20% of nominal).  0 keeps
    #: the historical deterministic schedule; >0 decorrelates retries so
    #: many callers timing out on one dead node don't re-arrive in
    #: lockstep (a synchronized retry storm).
    backoff_jitter: float = 0.0
    #: Fault events to inject: a tuple of
    #: :class:`repro.faults.schedule.FaultEvent` (typed loosely so the
    #: config module does not import repro.faults).
    schedule: tuple = ()

    def __post_init__(self) -> None:
        """Refuse values the retry loop cannot run on."""
        for name, rule, ok in (
            ("rpc_timeout", "finite and > 0", 0 < self.rpc_timeout < math.inf),
            ("evaluate_timeout", "finite and > 0", 0 < self.evaluate_timeout < math.inf),
            ("max_retries", ">= 0", self.max_retries >= 0),
            ("backoff_base", "finite and >= 0", 0 <= self.backoff_base < math.inf),
            ("backoff_jitter", "in [0, 1]", 0 <= self.backoff_jitter <= 1),
        ):
            if not ok:
                raise FaultError(f"FaultConfig.{name} must be {rule}, got {getattr(self, name)!r}")

    @property
    def active(self) -> bool:
        """Whether any fault machinery should run at all."""
        return self.enabled or bool(self.schedule)

    def backoff_delay(self, attempt: int, rng: Any = None) -> float:
        """Delay before retry ``attempt`` (0-based), with optional jitter.

        ``rng`` is a ``numpy.random.Generator``; it is only consumed when
        ``backoff_jitter`` > 0, so jitter-free configs draw nothing and
        stay bit-identical to the pre-jitter schedule.
        """
        delay = self.backoff_base * BACKOFF_MULTIPLIER**attempt
        if self.backoff_jitter > 0.0 and rng is not None:
            spread = self.backoff_jitter * (2.0 * float(rng.random()) - 1.0)
            delay *= 1.0 + spread
        return delay


@dataclass(frozen=True)
class GossipConfig:
    """Epidemic membership: per-node liveness views (repro.faults.gossip).

    When ``enabled`` every participant (each storage node plus the
    client) keeps its own versioned view of the cluster and exchanges it
    via periodic push-gossip rounds over the simulated network.  With no
    faults injected all views agree with the static partition map, so
    routing — and therefore every simulated result — is byte-identical
    to the shared-view wiring.
    """

    #: Off: the client and every node hold one shared view (zero-hop,
    #: instantaneous).  On: one view per participant plus gossip agents.
    enabled: bool = False
    #: Seconds of simulated time between push-gossip rounds.
    interval: float = 0.25
    #: No heartbeat progress from a peer for this long -> SUSPECT.
    suspect_after: float = 1.0
    #: A SUSPECT peer with still no progress for this much longer is
    #: confirmed DEAD (total silence budget = suspect_after + dead_after).
    dead_after: float = 1.0
    #: Anti-entropy: on a confirmed death, survivors promote /
    #: re-disperse guest replicas covering the dead node's range, and on
    #: a rejoin they stream the node's hot cells back (handoff) instead
    #: of letting it cold-start.
    repair: bool = True


@dataclass(frozen=True)
class OverloadConfig:
    """Per-node admission control and circuit breaking.

    A bounded admission queue sheds the lowest-priority work first
    (background population, then replication/cache fetches); evaluate
    requests are never shed.  Sustained shedding trips a per-node circuit
    breaker that converts overload into explicit degraded
    (completeness < 1) answers instead of cascading timeouts.  The
    breaker's trip count, window and cooldown are fixed constants of
    :mod:`repro.faults.overload`.
    """

    #: Master switch; off leaves dispatch untouched.
    enabled: bool = False
    #: Pending-request depth above which priority-0 work (populate,
    #: replicate, distress) is shed; priority-1 work (fetch_cells, scan)
    #: is shed above twice this depth.
    queue_limit: int = 64


@dataclass(frozen=True)
class ServeConfig:
    """Socket serving (``repro serve``): the asyncio transport backend.

    These knobs only affect the real-socket deployment; the simulator
    twin ignores them, which is what makes the sim-vs-socket equivalence
    check meaningful (same logical config, different runtime).
    """

    #: Interface the node servers bind (port is always OS-assigned).
    host: str = "127.0.0.1"
    #: Wall-clock seconds per simulated second for engine timers.  The
    #: default compresses simulated-time timeouts (tuned for the
    #: discrete-event world, e.g. a 5 s RPC timeout) onto loop timers
    #: without making daemon work spin hot.
    time_scale: float = 0.05
    #: Hard wall-clock budget for one whole ``repro serve`` run; the
    #: launcher kills the cluster when it is exceeded (CI guard).
    wall_clock_budget: float = 300.0
    #: HTTP facade (``repro serve --http`` / repro.serve.http).  The
    #: facade binds ``http_host``; port 0 asks the OS for a free port.
    http_host: str = "127.0.0.1"
    http_port: int = 0

    def __post_init__(self) -> None:
        """Refuse values the engine or the launcher cannot run on."""
        for name, rule, ok in (
            ("time_scale", "finite and > 0", 0 < self.time_scale < math.inf),
            ("wall_clock_budget", "finite and > 0", 0 < self.wall_clock_budget < math.inf),
            ("http_port", "in [0, 65535]", 0 <= self.http_port <= 65535),
        ):
            if not ok:
                raise NetworkError(f"ServeConfig.{name} must be {rule}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class StashConfig:
    """Top-level configuration bundle for a STASH deployment."""

    cost: CostModel = field(default_factory=CostModel)
    freshness: FreshnessConfig = field(default_factory=FreshnessConfig)
    eviction: EvictionConfig = field(default_factory=EvictionConfig)
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    elastic: ElasticConfig = field(default_factory=ElasticConfig)
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    gossip: GossipConfig = field(default_factory=GossipConfig)
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    serve: ServeConfig = field(default_factory=ServeConfig)
    #: Enable the dynamic clique replication subsystem (RQ-3).
    enable_replication: bool = True
    #: Enable roll-up recomputation of missing coarse cells from cached
    #: finer cells (paper V-B).  Off forces disk for every cache miss.
    enable_rollup: bool = True

    def with_(self, **kwargs: Any) -> "StashConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = StashConfig()
