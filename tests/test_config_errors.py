"""Tests for configuration dataclasses and the error hierarchy."""

import dataclasses
import math

import pytest

from repro import errors
from repro.cli import main
from repro.config import (
    DEFAULT_CONFIG,
    ClusterConfig,
    CostModel,
    EvictionConfig,
    ServeConfig,
    StashConfig,
)


class TestCostModel:
    def test_disk_read_time_scales(self):
        cost = CostModel()
        small = cost.disk_read_time(1_000)
        large = cost.disk_read_time(1_000_000)
        assert large > small > cost.disk_seek

    def test_data_scale_effect(self):
        slow = CostModel(data_scale=128.0)
        fast = CostModel(data_scale=1.0)
        nbytes = 100_000
        assert slow.disk_read_time(nbytes) > fast.disk_read_time(nbytes)
        # Seek is unaffected by scale.
        assert slow.disk_read_time(0) == fast.disk_read_time(0)

    def test_network_time(self):
        cost = CostModel()
        assert cost.network_time(0) == cost.network_latency
        assert cost.network_time(10**9) == pytest.approx(
            cost.network_latency + 1.0
        )


class TestStashConfig:
    def test_default_config_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.enable_replication = False  # type: ignore[misc]

    def test_with_replaces_top_level(self):
        config = StashConfig().with_(enable_replication=False)
        assert config.enable_replication is False
        assert StashConfig().enable_replication is True

    def test_with_nested_replacement(self):
        config = StashConfig().with_(
            eviction=EvictionConfig(max_cells=7), cluster=ClusterConfig(num_nodes=3)
        )
        assert config.eviction.max_cells == 7
        assert config.cluster.num_nodes == 3
        # Untouched sections keep defaults.
        assert config.cost == CostModel()

    def test_block_precision_default_geq_partition(self):
        cluster = ClusterConfig()
        assert cluster.block_precision >= cluster.partition_precision


class TestServeConfigChecks:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("time_scale", 0.0),
            ("time_scale", -1.0),
            ("time_scale", math.nan),
            ("time_scale", math.inf),
            ("wall_clock_budget", 0.0),
            ("wall_clock_budget", math.nan),
            ("wall_clock_budget", math.inf),
            ("http_port", -1),
            ("http_port", 65_536),
        ],
    )
    def test_refused_naming_the_field(self, field, value):
        with pytest.raises(errors.NetworkError, match=rf"ServeConfig\.{field} must be"):
            ServeConfig(**{field: value})

    def test_edges_accepted(self):
        ServeConfig(time_scale=1e-6, wall_clock_budget=1e-9, http_port=0)
        ServeConfig(http_port=65_535)

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--time-scale", "nan"], "time_scale"),
            (["--time-scale", "inf"], "time_scale"),
            (["--budget", "nan"], "wall_clock_budget"),
            (["--http", "--port", "65536"], "http_port"),
        ],
    )
    def test_serve_exits_2_before_spawning(self, flags, field, monkeypatch, capsys):
        import repro.serve
        import repro.serve.cluster

        def spawned(*args, **kwargs):
            raise AssertionError("a node was spawned")

        monkeypatch.setattr(repro.serve, "run_serve", spawned)
        monkeypatch.setattr(repro.serve.cluster.ServeCluster, "start", spawned)
        argv = ["serve", "--nodes", "2", "--requests", "1", "--records", "3000",
                "--no-sim-check", *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: ServeConfig.{field} must be")
        assert "Traceback" not in err


class TestErrorHierarchy:
    def test_all_errors_are_repro_errors(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_network_error_is_simulation_error(self):
        assert issubclass(errors.NetworkError, errors.SimulationError)

    def test_catch_all(self):
        with pytest.raises(errors.ReproError):
            raise errors.CacheError("x")
        with pytest.raises(errors.ReproError):
            raise errors.WorkloadError("y")
