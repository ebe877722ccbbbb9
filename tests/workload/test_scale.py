"""Property tests for the session-scale workload generator.

The generator's contract (repro/workload/scale.py): deterministic per
seed — bit-identical across fresh processes — with a Markov gesture
walk that can only emit legal gestures and only along transitions the
matrix allows, and Zipf hotspot popularity matching the configured
skew exponent.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.errors import WorkloadError
from repro.workload.queries import QuerySize
from repro.workload.scale import (
    DEFAULT_TRANSITIONS,
    GESTURE_INDEX,
    GESTURE_KIND,
    ScaleWorkloadSpec,
    SessionTable,
    observed_hotspot_frequencies,
    run_closed_loop,
)
from repro.workload.sessions import GESTURES

SPEC = ScaleWorkloadSpec(num_users=400, session_length=6, seed=13)


@pytest.fixture(scope="module")
def table() -> SessionTable:
    return SessionTable.synthesize(SPEC)


# ---------------------------------------------------------------------------
# determinism


class TestDeterminism:
    def test_same_seed_same_digest(self, table):
        again = SessionTable.synthesize(SPEC)
        assert again.digest() == table.digest()

    def test_different_seed_different_digest(self, table):
        other = SessionTable.synthesize(SPEC.with_(seed=14))
        assert other.digest() != table.digest()

    def test_population_size_invariance(self, table):
        """User u's session depends only on (seed, u), not num_users."""
        bigger = SessionTable.synthesize(SPEC.with_(num_users=1000))
        assert np.array_equal(bigger.gestures[:400], table.gestures)
        assert np.array_equal(bigger.center_lat[:400], table.center_lat)
        assert np.array_equal(bigger.precision[:400], table.precision)
        assert np.array_equal(bigger.hotspot[:400], table.hotspot)

    def test_cross_process_identical_streams(self, table):
        """Same seed => identical gesture bytes in a fresh interpreter."""
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))
        program = (
            "from repro.workload.scale import ScaleWorkloadSpec, SessionTable\n"
            f"table = SessionTable.synthesize(ScaleWorkloadSpec("
            f"num_users={SPEC.num_users}, session_length={SPEC.session_length}, "
            f"seed={SPEC.seed}))\n"
            "print(table.digest())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(src_root, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        out = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, timeout=120, env=env, check=True,
        )
        assert out.stdout.split() == [table.digest()]


# ---------------------------------------------------------------------------
# spec validation


class TestSpecValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_users": 0},
            {"session_length": 0},
            {"num_hotspots": 0},
            {"hotspot_precision": 0},
            {"hotspot_precision": 7},
            {"zipf_s": 0.0},
            {"spatial_range": (0, 4)},
            {"spatial_range": (5, 4)},
            {"num_days": 0},
        ],
    )
    def test_bad_knob_raises(self, overrides):
        with pytest.raises(WorkloadError):
            SPEC.with_(**overrides).validated()

    def test_non_stochastic_matrix_raises(self):
        bad = tuple(
            tuple(0.5 for _ in GESTURES) for _ in GESTURES
        )
        with pytest.raises(WorkloadError, match="sum to 1"):
            SPEC.with_(transitions=bad).validated()

    def test_negative_probability_raises(self):
        matrix = [list(row) for row in DEFAULT_TRANSITIONS]
        matrix[0][0], matrix[0][1] = -0.1, matrix[0][1] + matrix[0][0] + 0.1
        with pytest.raises(WorkloadError, match="non-negative"):
            SPEC.with_(transitions=tuple(map(tuple, matrix))).validated()

    def test_oversized_viewport_raises(self):
        from repro.geo.bbox import BoundingBox

        small_domain = BoundingBox(30.0, 40.0, -110.0, -100.0)
        with pytest.raises(WorkloadError, match="exceeds domain"):
            SessionTable.synthesize(
                SPEC.with_(size=QuerySize.COUNTRY), domain=small_domain
            )


# ---------------------------------------------------------------------------
# the Markov navigation model


def _renormalized(matrix: np.ndarray) -> tuple:
    return tuple(tuple(row / row.sum()) for row in matrix)


class TestMarkovModel:
    def test_sessions_open_with_jump(self, table):
        assert (table.gestures[:, 0] == GESTURE_INDEX["jump"]).all()

    def test_gestures_stay_in_legal_set(self, table):
        assert table.gestures.max() < len(GESTURES)

    def test_every_query_kind_is_tagged(self, table):
        kinds = {table.query(u, s).kind for u in range(20) for s in range(6)}
        assert kinds <= set(GESTURE_KIND.values())

    def test_precision_stays_in_band(self, table):
        lo, hi = SPEC.spatial_range
        assert int(table.precision.min()) >= lo
        assert int(table.precision.max()) <= hi

    def test_viewports_stay_inside_domain(self, table):
        for user in range(0, 400, 37):
            for step in range(SPEC.session_length):
                box = table.query(user, step).bbox
                assert table.domain.south <= box.south < box.north <= table.domain.north
                assert table.domain.west <= box.west < box.east <= table.domain.east

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.lists(
            st.lists(
                st.floats(0.05, 1.0, allow_nan=False), min_size=len(GESTURES),
                max_size=len(GESTURES),
            ),
            min_size=len(GESTURES), max_size=len(GESTURES),
        ),
        forbidden=st.tuples(
            st.integers(0, len(GESTURES) - 1), st.integers(0, len(GESTURES) - 2)
        ),
    )
    def test_transitions_respect_the_matrix(self, seed, rows, forbidden):
        """Legal gestures only — and a zeroed transition never occurs."""
        matrix = np.asarray(rows, dtype=np.float64)
        row, col = forbidden
        matrix[row, col] = 0.0
        spec = SPEC.with_(
            num_users=150, seed=seed, transitions=_renormalized(matrix)
        )
        got = SessionTable.synthesize(spec)
        gestures = got.gestures
        assert gestures.max() < len(GESTURES)
        previous, current = gestures[:, :-1], gestures[:, 1:]
        assert not ((previous == row) & (current == col)).any()


# ---------------------------------------------------------------------------
# Zipf hotspot placement


class TestZipfHotspots:
    def test_hotspots_are_geohash_cells(self, table):
        assert len(table.hotspot_cells) == SPEC.num_hotspots
        assert all(
            len(cell) == SPEC.hotspot_precision for cell in table.hotspot_cells
        )

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        zipf_s=st.floats(0.6, 2.0, allow_nan=False),
        num_hotspots=st.integers(4, 24),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_draws_respect_the_skew_exponent(self, zipf_s, num_hotspots, seed):
        """Empirical hotspot frequencies track 1/rank**s closely."""
        spec = ScaleWorkloadSpec(
            num_users=6000, session_length=1, seed=seed,
            zipf_s=zipf_s, num_hotspots=num_hotspots,
        )
        got = SessionTable.synthesize(spec)
        empirical = observed_hotspot_frequencies(got)
        theoretical = spec.zipf_weights()
        assert empirical.shape == theoretical.shape
        assert abs(float(empirical.sum()) - 1.0) < 1e-9
        # 6000 draws: binomial std of the head ranks is < 0.007, so a
        # 0.03 tolerance is ~4+ sigma while still catching a wrong
        # exponent (rank-1 weight moves by >0.1 across the s range).
        assert float(np.abs(empirical - theoretical).max()) < 0.03

    def test_skewier_exponent_concentrates_rank_one(self):
        flat = SessionTable.synthesize(
            SPEC.with_(num_users=4000, zipf_s=0.6)
        )
        steep = SessionTable.synthesize(
            SPEC.with_(num_users=4000, zipf_s=2.0)
        )
        assert (
            observed_hotspot_frequencies(steep)[0]
            > observed_hotspot_frequencies(flat)[0]
        )


# ---------------------------------------------------------------------------
# drivers


class TestSimDrivers:
    @pytest.fixture(scope="class")
    def bench(self):
        from repro.bench.harness import (
            BenchScale, bench_config, bench_dataset, make_system,
        )

        scale = BenchScale.unit()
        return bench_dataset(scale), bench_config(scale), make_system

    def test_closed_loop_completes_every_gesture(self, bench):
        dataset, config, make_system = bench
        small = SessionTable.synthesize(
            ScaleWorkloadSpec(num_users=6, session_length=3, seed=5)
        )
        system = make_system("stash", dataset, config)
        results = run_closed_loop(system, small, think_time=0.25)
        assert len(results) == 18
        assert all(result.completeness == 1.0 for result in results)

    def test_closed_loop_user_subset(self, bench):
        dataset, config, make_system = bench
        small = SessionTable.synthesize(
            ScaleWorkloadSpec(num_users=6, session_length=3, seed=5)
        )
        system = make_system("stash", dataset, config)
        results = run_closed_loop(system, small, users=2, think_time=0.25)
        assert len(results) == 6

    def test_negative_think_time_rejected(self, bench):
        dataset, config, make_system = bench
        small = SessionTable.synthesize(
            ScaleWorkloadSpec(num_users=2, session_length=2, seed=5)
        )
        system = make_system("stash", dataset, config)
        with pytest.raises(WorkloadError):
            run_closed_loop(system, small, think_time=-1.0)
