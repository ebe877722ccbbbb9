"""The verdict rule of ``.github/scripts/pairs.py``, on synthetic runs.

A gain or a loss is claimable when one side wins at least nine tenths of
the pairs and the medians differ by more than the parent's inter-quartile
range; a metric whose parent IQR exceeds its bound is unresolved.  Apart
from the verdict, a metric is inside its bound when the median paired
change is smaller than the bound.
"""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / ".github" / "scripts" / "pairs.py"


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Ten parent runs with an IQR of 2 around a median of 100 (2 %).
PARENT = [97.0, 98.0, 99.0, 99.5, 100.0, 100.0, 100.5, 101.0, 102.0, 103.0]
METRICS = [
    {"name": "throughput", "unit": "ops/s", "better": "higher", "bound": 0.2},
    {"name": "latency", "unit": "ms", "better": "lower", "bound": 0.2},
]


def runs(values: list[float]) -> list[dict]:
    return [{"throughput": v, "latency": v} for v in values]


def verdicts(pairs, parent: list[float], change: list[float], bound: float = 0.2) -> dict:
    metrics = [dict(metric, bound=bound) for metric in METRICS]
    table = pairs.report(metrics, runs(parent), runs(change))
    rows = table.splitlines()[2:]
    return {row.split("`")[1]: row.rsplit("|", 2)[1].strip() for row in rows}


class TestVerdict:
    def test_a_clear_rise_is_a_gain_when_higher_is_better(self, pairs):
        change = [v * 1.08 for v in PARENT]
        assert verdicts(pairs, PARENT, change) == {
            "throughput": "claimable gain",
            "latency": "claimable loss",
        }

    def test_a_clear_fall_is_a_loss_when_higher_is_better(self, pairs):
        change = [v * 0.92 for v in PARENT]
        assert verdicts(pairs, PARENT, change) == {
            "throughput": "claimable loss",
            "latency": "claimable gain",
        }

    def test_nine_wins_in_ten_are_enough(self, pairs):
        change = [v * 1.08 for v in PARENT]
        change[3] = PARENT[3] - 1.0  # one pair lost
        assert verdicts(pairs, PARENT, change)["throughput"] == "claimable gain"

    def test_eight_wins_in_ten_are_noise(self, pairs):
        change = [v * 1.08 for v in PARENT]
        change[3] = PARENT[3] - 1.0
        change[6] = PARENT[6] - 1.0
        assert verdicts(pairs, PARENT, change) == {
            "throughput": "within noise",
            "latency": "within noise",
        }

    def test_a_shift_inside_the_parents_iqr_is_noise(self, pairs):
        change = [v + 1.0 for v in PARENT]  # wins 10/10, medians 1 apart, IQR 2
        assert verdicts(pairs, PARENT, change)["throughput"] == "within noise"

    def test_an_iqr_above_the_bound_is_unresolved(self, pairs):
        change = [v * 1.08 for v in PARENT]
        assert verdicts(pairs, PARENT, change, bound=0.01) == {
            "throughput": "unresolved",
            "latency": "unresolved",
        }

    def test_ties_count_for_neither_side(self, pairs):
        assert verdicts(pairs, PARENT, list(PARENT)) == {
            "throughput": "within noise",
            "latency": "within noise",
        }


def inside_bound(pairs, parent: list[float], change: list[float], bound: float) -> dict:
    metrics = [dict(metric, bound=bound) for metric in METRICS]
    rows = pairs.report(metrics, runs(parent), runs(change)).splitlines()[2:]
    return {row.split("`")[1]: row.rsplit("|", 3)[1].strip() for row in rows}


class TestInsideBound:
    def test_a_zero_iqr_loss_inside_the_bound_is_flagged_inside(self, pairs):
        """Peak RSS that reads the same on every parent run: a +0.8 % rise
        won on every pair is a claimable loss, and inside a 5 % bound."""
        parent = [145.2] * 10
        change = [146.4] * 10
        assert verdicts(pairs, parent, change, bound=0.05)["latency"] == "claimable loss"
        assert inside_bound(pairs, parent, change, bound=0.05) == {
            "throughput": "yes",
            "latency": "yes",
        }

    def test_a_change_beyond_the_bound_is_flagged_outside(self, pairs):
        change = [v * 1.08 for v in PARENT]
        assert inside_bound(pairs, PARENT, change, bound=0.05) == {
            "throughput": "no",
            "latency": "no",
        }
