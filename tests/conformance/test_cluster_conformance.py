"""Cluster-vs-oracle conformance across configuration axes (small runs).

The CI ``repro conform`` job runs the full campaign; these tests keep a
per-axis slice inside the tier-1 suite so a conformance break fails fast
with a readable divergence report, and they pin the harness's own
behavior: the degraded-answer policy, the fault axis actually injecting
faults, deterministic workloads per seed, and every cluster call each
axis of the quick seed-0 campaign makes.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.data.generator import conformance_dataset
from repro.errors import ReproError
from repro.oracle.conformance import (
    AXES,
    _check_axis,
    compare_result,
    exploration_workload,
    minimize_failing_query,
    run_axis,
    run_campaign,
)
from repro.oracle.engine import BruteForceOracle
from repro.oracle.metamorphic import describe_query
from repro.geo.temporal import TimeKey
from repro.system import DistributedSystem

DAYS = [TimeKey.of(2013, 2, day) for day in (1, 2, 3)]
ROWS = {axis.name: axis for axis in AXES}


@pytest.fixture(scope="module")
def dataset():
    return conformance_dataset(num_records=3_000, seed=3)


@pytest.fixture(scope="module")
def oracle(dataset):
    return BruteForceOracle(dataset)


@pytest.mark.parametrize(
    "axis",
    ["cold-cache", "warm-cache", "eviction-pressure", "rollup", "no-rollup"],
)
def test_axis_conforms(axis, dataset, oracle):
    rng = np.random.default_rng([11, list(ROWS).index(axis)])
    run = run_axis(ROWS[axis], dataset, rng, 5)
    report = _check_axis(ROWS[axis], run, oracle)
    assert report.ok, "\n".join(d.format() for d in report.divergences)
    assert report.queries == 5


def test_replication_axis_conforms(dataset, oracle):
    rng = np.random.default_rng([11, 6])
    run = run_axis(ROWS["replication-hotspot"], dataset, rng, 8)
    report = _check_axis(ROWS["replication-hotspot"], run, oracle)
    assert report.ok, "\n".join(d.format() for d in report.divergences)


def test_fault_axis_injects_and_conforms(dataset, oracle):
    """Faults genuinely fire mid-workload, and every answer produced under
    them either matches the oracle or is explicitly degraded."""
    rng = np.random.default_rng([11, 7])
    run = run_axis(ROWS["faults"], dataset, rng, 24)
    cluster = run.cluster
    assert cluster.fault_injector is not None
    assert len(cluster.fault_injector.applied) >= 2
    # The point of the axis: at least one answer raced a fault window.
    touched = (
        cluster.fault_counters.get("client_timeouts")
        + cluster.network.messages_dropped
        + sum(1 for _, r in run.pairs if r.degraded)
    )
    assert touched > 0
    report = _check_axis(ROWS["faults"], run, oracle)
    assert report.ok, "\n".join(d.format() for d in report.divergences)
    for _, result in run.pairs:
        if result.degraded:
            assert result.completeness < 1.0
            truth = oracle.answer(result.query)
            assert set(result.cells) <= set(truth)


class TestComparePolicy:
    def test_complete_answer_must_be_exact(self, dataset, oracle):
        rng = np.random.default_rng(5)
        query = exploration_workload(rng, 1, DAYS, dataset.attribute_names)[0]
        truth = oracle.answer(query)
        assert truth, "workload query unexpectedly empty; pick another seed"

        class Fake:
            completeness = 1.0
            degraded = False
            cells = dict(truth)

        assert compare_result(Fake(), truth) == []
        missing = dict(truth)
        missing.pop(next(iter(missing)))
        Fake.cells = missing
        kinds = [kind for kind, _ in compare_result(Fake(), truth)]
        assert kinds == ["missing-cell"]

    def test_degraded_answer_may_omit_but_not_fabricate(self, dataset, oracle):
        rng = np.random.default_rng(5)
        query = exploration_workload(rng, 1, DAYS, dataset.attribute_names)[0]
        truth = oracle.answer(query)
        subset = dict(list(truth.items())[:1])

        class Fake:
            completeness = 0.4
            degraded = True
            cells = subset

        assert compare_result(Fake(), truth) == []
        # A cell that holds no observations is a fabrication even degraded.
        from repro.core.keys import CellKey
        from repro.geo.temporal import TimeKey as TK

        bogus = CellKey("zzz", TK.of(2013, 2, 1))
        Fake.cells = {**subset, bogus: next(iter(truth.values()))}
        kinds = [kind for kind, _ in compare_result(Fake(), truth)]
        assert "fabricated-cell" in kinds

    def test_bad_completeness_flagged(self, dataset, oracle):
        class Fake:
            completeness = 1.5
            degraded = False
            cells = {}

        kinds = [kind for kind, _ in compare_result(Fake(), {})]
        assert kinds == ["bad-completeness"]


class TestHarnessMechanics:
    def test_workload_deterministic(self, dataset):
        a = exploration_workload(
            np.random.default_rng([4, 2]), 12, DAYS, dataset.attribute_names
        )
        b = exploration_workload(
            np.random.default_rng([4, 2]), 12, DAYS, dataset.attribute_names
        )
        assert [(q.bbox, q.time_range, q.resolution, q.attributes) for q in a] == [
            (q.bbox, q.time_range, q.resolution, q.attributes) for q in b
        ]

    def test_workload_covers_branch_surfaces(self, dataset):
        qs = exploration_workload(
            np.random.default_rng([4, 3]), 80, DAYS, dataset.attribute_names
        )
        assert any(q.resolution.spatial == 2 for q in qs), "no coarse queries"
        assert any(q.resolution.temporal.name == "HOUR" for q in qs)
        assert any(q.attributes is not None for q in qs)
        assert any(
            len(q.time_range.covering_keys(q.resolution.temporal)) > 1
            or q.resolution.temporal.name == "HOUR"
            for q in qs
        )
        from repro.oracle.conformance import _MAX_WORKLOAD_CELLS

        assert all(q.footprint_size() <= _MAX_WORKLOAD_CELLS for q in qs)

    def test_minimizer_descends_to_small_query(self, dataset, oracle):
        rng = np.random.default_rng([11, 0])
        big = exploration_workload(rng, 6, DAYS, dataset.attribute_names)[0]
        target = sorted(oracle.answer(big), key=str)
        assert target, "need a non-empty query for the shrink test"
        victim = target[0]

        def diverges(query):
            return victim in oracle.answer(query)

        minimal = minimize_failing_query(diverges, big)
        assert diverges(minimal)
        assert minimal.footprint_size() <= big.footprint_size()
        assert minimal.footprint_size() <= 8

    def test_campaign_report_shape(self, dataset):
        report = run_campaign(seed=9, queries_per_axis=2, axes=["cold-cache"])
        assert report.ok
        assert report.total_queries >= 2
        data = report.to_json_dict()
        assert data["ok"] is True
        assert data["axes"][0]["axis"] == "cold-cache"
        assert "CONFORMS" in report.format()

    @pytest.mark.parametrize("axes", [["nonsense"], [], ["cold-cache", "nonsense"]])
    def test_bad_selection_raises(self, axes):
        with pytest.raises(ReproError, match="choose from .*'explore-churn', 'metamorphic'"):
            run_campaign(seed=9, queries_per_axis=1, axes=axes)


#: ``repro conform --seed 0 --quick`` per axis: (checked queries, degraded
#: answers, digest of every cluster call the axis made).  Keyed by name so
#: a new row leaves the pinned ones alone.
QUICK_FINGERPRINT = {
    "cold-cache": (8, 0, "417cca04caca0ad8"),
    "warm-cache": (8, 0, "dfc7f8bb3d598ce1"),
    "eviction-pressure": (8, 0, "321bcb6696b9476f"),
    "rollup": (8, 0, "b638170fdf6e9d59"),
    "no-rollup": (8, 0, "61b16c2ed552b090"),
    "no-replication": (8, 0, "102dbf5527b994fc"),
    "replication-hotspot": (8, 0, "89e53b5eed588408"),
    "faults": (8, 1, "995daecb6d93b5d5"),
    "churn": (8, 4, "f09ebc432f6f7c47"),
    "explore-serial": (8, 0, "b387443fe5425a99"),
    "explore-rollup": (8, 0, "9cb1268e0d32450f"),
    "explore-eviction": (8, 0, "dbebe4b7885ac5ad"),
    "explore-hotspot": (8, 0, "a95874493c3c0f59"),
    "explore-faults": (8, 2, "9458c1755a9eb790"),
    "explore-churn": (8, 5, "222b0a26e9f791a0"),
    "metamorphic": (4, 0, "7ee3093c6a40ed6b"),
}


def _fingerprinted_campaign(axes=None) -> dict[str, tuple[int, int, str]]:
    """Run the quick seed-0 campaign, recording every ``run_query`` /
    ``run_concurrent`` / ``run_open_loop`` call per axis: each query's
    description, completeness, (cell key, count) set and latency repr."""
    calls: dict[str, list] = {}
    current = [""]

    def recording(method, kind):
        def wrapper(self, queries, *args, **kwargs):
            results = method(self, queries, *args, **kwargs)
            pairs = (
                [(queries, results)] if kind == "query" else zip(queries, results)
            )
            calls.setdefault(current[0], []).append(
                (
                    kind,
                    [
                        (
                            describe_query(query),
                            result.completeness,
                            sorted((str(k), v.count) for k, v in result.cells.items()),
                            repr(result.latency),
                        )
                        for query, result in pairs
                    ],
                )
            )
            return results

        return wrapper

    def progress(line: str) -> None:
        current[0] = line.split()[1].rstrip(":")

    with pytest.MonkeyPatch.context() as patch:
        for name, kind in (
            ("run_query", "query"),
            ("run_concurrent", "concurrent"),
            ("run_open_loop", "open"),
        ):
            patch.setattr(
                DistributedSystem, name, recording(getattr(DistributedSystem, name), kind)
            )
        report = run_campaign(seed=0, quick=True, axes=axes, progress=progress)
    assert report.ok, report.format()
    return {
        axis.axis: (
            axis.queries,
            axis.degraded,
            hashlib.sha256(json.dumps(calls[axis.axis]).encode()).hexdigest()[:16],
        )
        for axis in report.axes
    }


@pytest.fixture(scope="module")
def quick_fingerprint():
    return _fingerprinted_campaign()


class TestCampaignFingerprint:
    @pytest.mark.parametrize("axis", sorted(QUICK_FINGERPRINT))
    def test_axis_pinned(self, quick_fingerprint, axis):
        assert quick_fingerprint[axis] == QUICK_FINGERPRINT[axis]

    def test_report_order(self, quick_fingerprint):
        pinned = [axis for axis in quick_fingerprint if axis in QUICK_FINGERPRINT]
        assert pinned == list(QUICK_FINGERPRINT)

    def test_selection_independent(self, quick_fingerprint):
        alone = _fingerprinted_campaign(axes=["churn"])
        assert alone == {"churn": quick_fingerprint["churn"]}
