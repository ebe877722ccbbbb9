"""Tests for the exploration session and renderers."""

import json

import numpy as np
import pytest

from repro.baselines.basic import BasicSystem
from repro.client.render import render_ascii_heatmap, render_json
from repro.client.session import ExplorationSession
from repro.config import ClusterConfig, StashConfig
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.data.observation import ObservationBatch
from repro.errors import QueryError
from repro.geo.bbox import BoundingBox
from repro.geo.resolution import Resolution
from repro.geo.temporal import TemporalResolution, TimeKey
from repro.storage.backend import ground_truth_cells
from tests.reference import box_area


@pytest.fixture(scope="module")
def dataset():
    return small_test_dataset(num_records=6_000)


@pytest.fixture()
def cluster(dataset):
    return StashCluster(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))


def make_session(cluster, **kwargs):
    return ExplorationSession(
        cluster,
        viewport=BoundingBox(32, 40, -112, -102),
        day=TimeKey.of(2013, 2, 2),
        resolution=Resolution(3, TemporalResolution.DAY),
        **kwargs,
    )


def new_observations(n):
    """``n`` observations inside the session's viewport on its day."""
    rng = np.random.default_rng(7)
    day = TimeKey.of(2013, 2, 2).epoch_range()
    return ObservationBatch(
        lats=rng.uniform(35.0, 36.0, n),
        lons=rng.uniform(-107.0, -106.0, n),
        epochs=rng.uniform(day.start, day.end - 1, n),
        attributes={
            "temperature": np.full(n, 30.0),
            "humidity": np.full(n, 10.0),
            "precipitation": np.zeros(n),
            "snow_depth": np.zeros(n),
        },
    )


class TestGestures:
    def test_refresh_matches_truth(self, cluster, dataset):
        session = make_session(cluster)
        result = session.refresh()
        truth = ground_truth_cells(dataset, session.current_query())
        assert set(result.cells) == set(truth)

    def test_pan_moves_viewport(self, cluster):
        session = make_session(cluster)
        before = session.viewport
        session.pan("e", 0.25)
        assert session.viewport.west > before.west
        assert session.viewport.height == pytest.approx(before.height)

    def test_pan_unknown_direction(self, cluster):
        with pytest.raises(QueryError):
            make_session(cluster).pan("up")

    def test_dice_shrinks(self, cluster):
        session = make_session(cluster)
        before_area = box_area(session.viewport)
        session.dice(0.8)
        assert box_area(session.viewport) == pytest.approx(before_area * 0.8)

    def test_drill_and_roll(self, cluster):
        session = make_session(cluster)
        session.drill_down()
        assert session.resolution.spatial == 4
        session.roll_up()
        assert session.resolution.spatial == 3

    def test_roll_up_at_floor(self, cluster):
        session = make_session(cluster)
        session.resolution = Resolution(1, TemporalResolution.DAY)
        with pytest.raises(QueryError):
            session.roll_up()

    def test_slice_day(self, cluster):
        session = make_session(cluster)
        result = session.slice_day(TimeKey.of(2013, 2, 3))
        for key in result.cells:
            assert str(key.time_key) == "2013-02-03"

    def test_drill_time_to_hours(self, cluster):
        session = make_session(cluster)
        result = session.drill_time()
        assert session.resolution.temporal == TemporalResolution.HOUR
        for key in result.cells:
            assert key.time_key.resolution == TemporalResolution.HOUR

    def test_drill_time_at_floor(self, cluster):
        session = make_session(cluster)
        session.resolution = Resolution(3, TemporalResolution.HOUR)
        with pytest.raises(QueryError):
            session.drill_time()

    def test_roll_time_to_month(self, cluster):
        session = make_session(cluster)
        result = session.roll_time()
        assert session.resolution.temporal == TemporalResolution.MONTH
        for key in result.cells:
            assert str(key.time_key) == "2013-02"

    def test_time_zoom_roundtrip_counts(self, cluster):
        """Hour bins re-aggregate to exactly the day bins' counts."""
        session = make_session(cluster)
        day_result = session.refresh()
        hour_result = session.drill_time()
        assert hour_result.total_count == day_result.total_count
        back = session.roll_time()
        assert back.total_count == day_result.total_count

    def test_temporal_rollup_reuses_hour_cells(self, cluster):
        """After browsing at hour bins, the day view rolls up in-memory."""
        session = make_session(cluster)
        session.resolution = Resolution(3, TemporalResolution.HOUR)
        session.refresh()
        cluster.drain()
        result = session.roll_time()
        assert result.provenance["cells_from_rollup"] > 0
        assert result.provenance["cells_from_disk"] == 0

    def test_pan_matches_truth(self, cluster, dataset):
        session = make_session(cluster)
        session.refresh()
        cluster.drain()
        result = session.pan("e", 0.25)
        truth = ground_truth_cells(dataset, session.current_query())
        assert set(result.cells) == set(truth)
        for key, vec in result.cells.items():
            assert vec.approx_equal(truth[key])

    def test_roll_up_reuses_finer_cells(self, cluster, dataset):
        """Zooming out after exploring a finer level rolls the cluster's
        cached finer cells up instead of reading disk."""
        session = make_session(cluster)
        session.resolution = Resolution(4, TemporalResolution.DAY)
        # Snap the viewport to the coarse cells so fine cells tile it.
        coarse_query = session.current_query().at_resolution(
            Resolution(3, TemporalResolution.DAY)
        )
        session.viewport = coarse_query.snapped_bbox()
        session.refresh()
        cluster.drain()
        result = session.roll_up()
        assert result.provenance["cells_from_rollup"] > 0
        assert result.provenance["cells_from_disk"] == 0
        truth = ground_truth_cells(dataset, session.current_query())
        assert set(result.cells) == set(truth)
        for key, vec in result.cells.items():
            assert vec.approx_equal(truth[key])

    def test_history_recorded(self, cluster):
        session = make_session(cluster)
        session.refresh()
        session.pan("n")
        session.dice(0.8)
        assert len(session.stats.history) == 3
        assert session.stats.queries_sent == 3


class TestSharedCache:
    """A session holds no cache of its own: every gesture is a query to
    the cluster, whose cache all sessions share."""

    def test_every_gesture_asks_the_cluster(self, cluster):
        session = make_session(cluster)
        session.refresh()
        session.refresh()
        assert session.stats.queries_sent == 2

    def test_repeat_viewport_served_from_cluster_cache(self, cluster):
        session = make_session(cluster)
        first = session.refresh()
        cluster.drain()
        second = session.refresh()
        assert second.provenance["cells_from_disk"] == 0
        assert second.provenance["cells_from_cache"] > 0
        assert second.cells == first.cells

    def test_repeat_refresh_matches_truth(self, cluster, dataset):
        session = make_session(cluster)
        truth = ground_truth_cells(dataset, session.current_query())
        session.refresh()
        cluster.drain()
        repeat = session.refresh()
        assert set(repeat.cells) == set(truth)

    def test_refresh_after_ingest_matches_run_query(self, cluster):
        session = make_session(cluster)
        before = session.refresh()
        cluster.drain()
        blocks, _ = cluster.ingest_live(new_observations(9))
        assert blocks > 0
        after = session.refresh()
        assert after.total_count == before.total_count + 9
        assert after.cells == cluster.run_query(session.current_query()).cells


class TestBaselines:
    def test_session_over_basic_system(self, dataset):
        system = BasicSystem(dataset, StashConfig(cluster=ClusterConfig(num_nodes=4)))
        session = make_session(system)
        first = session.refresh()
        assert session.refresh().cells == first.cells
        session.pan("e", 0.25)
        assert session.stats.queries_sent == 3


class TestPrefetch:
    def test_momentum_prefetch_issued(self, cluster):
        session = make_session(cluster, prefetch=True)
        session.pan("e")
        assert session.stats.prefetches_issued == 0
        session.pan("e")
        assert session.stats.prefetches_issued == 1
        session.pan("n")
        assert session.stats.prefetches_issued == 1

    def test_prefetch_warms_server_cache(self, cluster):
        session = make_session(cluster, prefetch=True)
        session.pan("e")
        session.pan("e")
        cluster.drain()  # let the prefetch land
        third = session.pan("e")  # arrives where the prefetch predicted
        assert third.provenance["cells_from_disk"] == 0


class TestRendering:
    def test_render_json_parses(self, cluster):
        result = make_session(cluster).refresh()
        body = json.loads(render_json(result))
        assert body["cells"]
        first = next(iter(body["cells"].values()))
        assert "temperature" in first

    def test_ascii_heatmap_shape(self, cluster):
        result = make_session(cluster).refresh()
        art = render_ascii_heatmap(result, "temperature")
        lines = art.splitlines()
        assert "temperature" in lines[0]
        assert len(lines) > 2
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # rectangular grid

    def test_ascii_heatmap_statistics(self, cluster):
        result = make_session(cluster).refresh()
        for stat in ("mean", "min", "max", "count"):
            assert render_ascii_heatmap(result, "temperature", stat)
        with pytest.raises(QueryError):
            render_ascii_heatmap(result, "temperature", "median")

    def test_heatmap_warmer_south(self, cluster):
        """Bottom rows (south) should render warmer temperatures."""
        session = ExplorationSession(
            cluster,
            viewport=BoundingBox(15, 60, -130, -60),
            day=TimeKey.of(2013, 2, 2),
            resolution=Resolution(2, TemporalResolution.DAY),
        )
        result = session.refresh()
        art = render_ascii_heatmap(result, "temperature")
        from repro.client.render import SHADES

        lines = art.splitlines()[1:]
        def mean_shade(line):
            shades = [SHADES.index(c) for c in line if c in SHADES and c != " "]
            return sum(shades) / len(shades) if shades else None

        top = mean_shade(lines[0])
        bottom = mean_shade(lines[-1])
        assert top is not None and bottom is not None
        assert bottom > top
