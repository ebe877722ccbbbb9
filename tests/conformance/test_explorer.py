"""The seeded schedule explorer and the campaign's ``explore-*`` rows.

:class:`ExploringSimulator` orders same-instant events by a seeded key
and stretches positive delays by a seeded jitter.  The engine tests pin
what it may and may not change; the row tests pin what the rows check:
a serial row's answers are byte-identical to the canonical schedule's,
and two seeded read-after-yield races in an owner's fetch are caught by
an explored schedule and missed by the canonical one at the same seed.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.node import StashNode
from repro.data.generator import conformance_dataset
from repro.data.statistics import SummaryVector
from repro.oracle import ExploringSimulator
from repro.oracle.conformance import AXES, _check_axis, run_axis, run_campaign
from repro.oracle.explorer import EXPLORE_JITTER
from repro.oracle.engine import BruteForceOracle
from repro.sim.engine import Simulator

ROWS = {axis.name: axis for axis in AXES}
EXPLORED = [axis.name for axis in AXES if axis.simulator == "explore"]


def fire_order(sim: Simulator, n: int = 40) -> list[int]:
    """Schedule ``n`` zero-delay events and return the order they fire in."""
    fired: list[int] = []
    for i in range(n):
        sim.event().succeed(i).add_callback(lambda ev: fired.append(ev.value))
    sim.run()
    return fired


class TestExploringSimulator:
    def test_canonical_engine_fires_ties_in_seq_order(self):
        assert fire_order(Simulator()) == list(range(40))

    def test_a_seed_permutes_ties_and_replays_exactly(self):
        order = fire_order(ExploringSimulator(7))
        assert sorted(order) == list(range(40))
        assert order != list(range(40))
        assert fire_order(ExploringSimulator(7)) == order
        assert fire_order(ExploringSimulator(8)) != order

    def test_causality_holds(self):
        """An event fires only after the event that scheduled it."""
        for seed in range(20):
            sim = ExploringSimulator(seed)
            fired: list[str] = []

            def chain(name: str, depth: int):
                fired.append(name)
                if depth:
                    sim.event().succeed().add_callback(
                        lambda _ev: chain(name + "'", depth - 1)
                    )

            for name in "abc":
                sim.event().succeed().add_callback(lambda _ev, n=name: chain(n, 3))
            sim.run()
            for name in "abc":
                steps = [fired.index(name + "'" * d) for d in range(4)]
                assert steps == sorted(steps)

    def test_jitter_stays_within_its_bound(self):
        sim = ExploringSimulator(3)
        fired: dict[str, float] = {}
        for name, delay in (("a", 1.0), ("b", 2.0), ("zero", 0.0)):
            sim.timeout(delay).add_callback(lambda _ev, n=name: fired.setdefault(n, sim.now))
        sim.timeout(1.0, daemon=True).add_callback(
            lambda _ev: fired.setdefault("daemon", sim.now)
        )
        sim.run(until=10.0)
        assert 1.0 < fired["a"] < 1.0 + EXPLORE_JITTER
        assert 2.0 < fired["b"] < 2.0 + EXPLORE_JITTER
        assert fired["zero"] == 0.0
        assert fired["daemon"] == 1.0


class TestTwinDifferences:
    def test_identical_answers_have_no_difference(self):
        dataset = conformance_dataset(num_records=2_000, seed=3)
        run = run_axis(ROWS["explore-serial"], dataset, np.random.default_rng(1), 3)
        assert run.schedule is not None and run.twin is not None
        for (_, result), (_, canonical) in zip(run.pairs, run.twin.pairs):
            assert result.differences(canonical) == []
        # The explored schedule really differed: jitter moved latencies.
        latencies = [r.latency for _, r in run.pairs]
        assert latencies != [r.latency for _, r in run.twin.pairs]

    def test_a_last_bit_difference_is_a_divergence(self):
        dataset = conformance_dataset(num_records=2_000, seed=3)
        run = run_axis(ROWS["cold-cache"], dataset, np.random.default_rng(1), 1)
        (_, result), = run.pairs
        key = next(iter(result.cells))
        vec = result.cells[key]
        name = vec.attributes[0]
        summary = vec[name]
        nudged = summary._replace(total=math.nextafter(summary.total, math.inf))
        cells = dict(result.cells)
        cells[key] = SummaryVector({**{a: vec[a] for a in vec.attributes}, name: nudged})
        twin = dataclasses.replace(result, cells=cells)
        assert twin.differences(result) == [f"summary mismatch at {key}"]


def drops_evicted_found(real):
    """The owner re-reads its planned cells after charging the plan's CPU
    and silently drops one evicted meanwhile: neither found nor missing."""

    def fetch(self, payload, parent=None):
        response = yield from real(self, payload, parent=parent)
        found = response["found"]
        response["found"] = {k: v for k, v in found.items() if self.graph.contains(k)}
        return response

    return fetch


def drops_populated_missing(real):
    """The owner re-reads its misses after charging the plan's CPU and
    drops one a concurrent populate inserted meanwhile: neither found nor
    missing."""

    def fetch(self, payload, parent=None):
        response = yield from real(self, payload, parent=parent)
        missing = response["missing"]
        response["missing"] = [k for k in missing if not self.graph.contains(k)]
        return response

    return fetch


def divergences(row: str, seed: int, simulator: str) -> list[str]:
    """Run one ``explore-*`` row at ``seed`` as the campaign does, on the
    explored or the canonical schedule; its divergence kinds."""
    axis = dataclasses.replace(ROWS[row], simulator=simulator)
    dataset = conformance_dataset(seed=seed)
    rng = np.random.default_rng([seed, list(ROWS).index(row)])
    report = _check_axis(axis, run_axis(axis, dataset, rng, 64), BruteForceOracle(dataset))
    return [d.kind for d in report.divergences]


class TestSeededRaces:
    """Each mutation reads the owner's graph again after the plan's CPU
    charge.  At these seeds the canonical schedule lands no concurrent
    eviction or populate in that window, and the explored one does
    (docs/testing.md gives the catch rates over seeds 0-11)."""

    @pytest.mark.parametrize(
        "mutation, row, seed",
        [
            (drops_evicted_found, "explore-eviction", 2),
            (drops_populated_missing, "explore-eviction", 8),
        ],
    )
    def test_caught_by_the_explorer_only(self, monkeypatch, mutation, row, seed):
        assert divergences(row, seed, "explore") == []
        monkeypatch.setattr(
            StashNode, "_fetch_cells_impl", mutation(StashNode._fetch_cells_impl)
        )
        assert divergences(row, seed, "canonical") == []
        assert "missing-cell" in divergences(row, seed, "explore")


def test_explored_rows_conform_at_a_second_seed():
    report = run_campaign(seed=1, quick=True, axes=EXPLORED)
    assert report.ok, report.format()
    assert [axis.axis for axis in report.axes] == EXPLORED
