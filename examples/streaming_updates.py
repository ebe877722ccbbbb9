#!/usr/bin/env python
"""Streaming updates: live ingest with extent-driven cache invalidation.

Simulates a live sensor feed: a dashboard keeps watching one region
while new observation batches stream into the cluster.  After each
ingest, every cached cell whose extent nests with a touched block is
invalidated (the paper's section IV-D update path, found by the cell's
label rather than by a stored block set, so cells cached as empty go
too), and the next refresh recomputes a fresh — and *correct* —
summary; untouched regions keep their cache.

Run with::

    python examples/streaming_updates.py
"""

import numpy as np

from repro import (
    AggregationQuery,
    BoundingBox,
    DatasetSpec,
    Resolution,
    StashCluster,
    SyntheticNAMGenerator,
    TemporalResolution,
    TimeKey,
)
from repro.data.observation import ObservationBatch


def sensor_burst(n, rng, day, lat0, lon0, temp):
    """A batch of fresh readings from a localized sensor array."""
    extent = day.epoch_range()
    return ObservationBatch(
        lats=rng.uniform(lat0, lat0 + 1.5, n),
        lons=rng.uniform(lon0, lon0 + 2.5, n),
        epochs=rng.uniform(extent.start, extent.end - 1, n),
        attributes={
            "temperature": rng.normal(temp, 1.5, n),
            "humidity": rng.uniform(20, 60, n),
            "precipitation": np.zeros(n),
            "snow_depth": np.zeros(n),
        },
    )


def main() -> None:
    day = TimeKey.of(2013, 2, 2)
    dataset = SyntheticNAMGenerator(
        DatasetSpec(num_records=60_000, start_day=(2013, 2, 1), num_days=2)
    ).generate()
    cluster = StashCluster(dataset)

    watched = AggregationQuery(
        bbox=BoundingBox(south=34.0, north=40.0, west=-108.0, east=-98.0),
        time_range=day.epoch_range(),
        resolution=Resolution(4, TemporalResolution.DAY),
    )
    elsewhere = AggregationQuery(
        bbox=BoundingBox(south=44.0, north=50.0, west=-90.0, east=-80.0),
        time_range=day.epoch_range(),
        resolution=Resolution(4, TemporalResolution.DAY),
    )

    def refresh(query):
        result = cluster.run_query(query.panned(0, 0))
        cluster.drain()
        return result

    baseline = refresh(watched)
    refresh(elsewhere)
    temp = baseline.overall_summary()["temperature"]
    print(f"baseline: {baseline.total_count:,} obs, "
          f"max temperature {temp.maximum:.1f}C "
          f"({baseline.latency * 1e3:.1f} ms)")

    rng = np.random.default_rng(7)
    for wave, heat in enumerate((25.0, 32.0, 41.0), start=1):
        burst = sensor_burst(400, rng, day, lat0=35.0, lon0=-106.0, temp=heat)
        blocks, invalidated = cluster.ingest_live(burst)
        print(f"\nwave {wave}: ingested {len(burst)} readings "
              f"({blocks} blocks touched, {invalidated} cached cells invalidated)")

        result = refresh(watched)
        temp = result.overall_summary()["temperature"]
        print(f"  watched region: {result.total_count:,} obs, "
              f"max temperature {temp.maximum:.1f}C "
              f"({result.latency * 1e3:.1f} ms, "
              f"{result.provenance['cells_from_disk']} cells recomputed)")

        far = refresh(elsewhere)
        print(f"  far region:     untouched cache -> "
              f"{far.provenance['cells_from_disk']} cells recomputed, "
              f"{far.latency * 1e3:.1f} ms")

    print("\nheat anomaly visible the moment it lands; cold cache only "
          "where the data actually changed.")


if __name__ == "__main__":
    main()
