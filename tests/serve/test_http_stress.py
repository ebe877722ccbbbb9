"""Closed-loop overload flood through the HTTP facade.

Overlapping requests race inside the simulator, batch by batch, while
admission control sheds and the circuit breaker fires.  The contract
under stress is narrow but absolute: the flood terminates, every
request gets an answer with honest completeness, and the flight
recorder accounts for every evaluated query exactly once.
"""

import json
import socket
import threading

import pytest

from repro.config import (
    ClusterConfig,
    FaultConfig,
    ObservabilityConfig,
    OverloadConfig,
    StashConfig,
)
from repro.core.cluster import StashCluster
from repro.data.generator import small_test_dataset
from repro.faults import overload
from repro.serve.http import SimBackend, StashHttpServer
from repro.workload.scale import ScaleWorkloadSpec, SessionTable
from repro.workload.trace import query_to_dict

from tests.serve._http import http_get, http_post, raw_post

NUM_USERS = 16
SESSION_LENGTH = 6


@pytest.fixture(scope="module")
def aggressive_breaker():
    """Two sheds inside 2 s open the breaker for 1 s."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(overload, "BREAKER_SHEDS", 2)
        mp.setattr(overload, "BREAKER_WINDOW", 2.0)
        mp.setattr(overload, "BREAKER_COOLDOWN", 1.0)
        yield


@pytest.fixture(scope="module")
def flood(aggressive_breaker):
    """Run the flood once; every test inspects the same aftermath."""
    config = StashConfig(
        cluster=ClusterConfig(num_nodes=4),
        faults=FaultConfig(enabled=True, rpc_timeout=0.5, max_retries=1),
        overload=OverloadConfig(enabled=True, queue_limit=1),
        observability=ObservabilityConfig(flight_recorder=True),
    )
    system = StashCluster(small_test_dataset(num_records=6_000), config)
    backend = SimBackend(system)
    table = SessionTable.synthesize(
        ScaleWorkloadSpec(
            num_users=NUM_USERS, session_length=SESSION_LENGTH, seed=21
        )
    )

    responses: list[tuple[int, dict, dict]] = []
    lock = threading.Lock()

    def one_user(user: int) -> None:
        for step in range(SESSION_LENGTH):
            body = query_to_dict(table.query(user, step))
            reply = http_post(server.url, "/aggregate", body, timeout=300.0)
            with lock:
                responses.append(reply)

    with StashHttpServer(backend, config) as server:
        threads = [
            threading.Thread(target=one_user, args=(user,))
            for user in range(NUM_USERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            # The satellite's termination clause: a hung flood fails
            # here instead of wedging the suite.
            thread.join(timeout=300.0)
        alive = [thread for thread in threads if thread.is_alive()]
        assert not alive, f"{len(alive)} client threads never finished"
        stats = http_get(server.url, "/stats")[1]
    backend.close()
    return system, responses, stats


class TestFloodTerminates:
    def test_every_request_answered(self, flood):
        _, responses, _ = flood
        assert len(responses) == NUM_USERS * SESSION_LENGTH
        assert all(status == 200 for status, _, _ in responses)

    def test_answers_stay_honest_under_pressure(self, flood):
        _, responses, _ = flood
        for _, body, _ in responses:
            assert 0.0 <= body["completeness"] <= 1.0
            assert body["degraded"] is (body["completeness"] < 1.0)

    def test_every_evaluation_reached_the_simulator(self, flood):
        system, _, stats = flood
        # Duplicate viewports (users sharing a hotspot) are absorbed by
        # the facade cache; everything else went into the simulator.
        assert system.recorder.queries == stats["cache"]["misses"]
        assert system.recorder.queries > 0


class TestExactlyOnceAccounting:
    def test_recorder_outcome_sum_matches_queries(self, flood):
        system, _, _ = flood
        report = system.recorder.report()
        assert sum(report["outcomes"].values()) == report["queries"]

    def test_recorder_matches_cache_misses(self, flood):
        """Every facade cache miss became exactly one recorded query —
        no double-counted retries, no dropped attempts."""
        system, _, stats = flood
        assert system.recorder.queries == stats["cache"]["misses"]
        assert (
            stats["cache"]["hits"]
            + stats["cache"]["misses"]
            == NUM_USERS * SESSION_LENGTH
        )

    def test_stats_endpoint_reflects_the_recorder(self, flood):
        _, _, stats = flood
        recorded = stats["recorder"]
        assert recorded["queries"] == stats["cache"]["misses"]
        assert sum(recorded["outcomes"].values()) == recorded["queries"]

    def test_no_phantom_shed_outcomes(self, flood):
        """Whether or not admission control actually shed anything under
        this machine's thread timing (tests/faults/test_overload.py pins
        shedding deterministically), the accounting never invents or
        drops an outcome: every recorded query is exactly one of
        ok/degraded/failed."""
        system, _, _ = flood
        report = system.recorder.report()
        assert all(count >= 0 for count in report["outcomes"].values())
        assert (
            report["outcomes"]["ok"]
            + report["outcomes"]["degraded"]
            + report["outcomes"]["failed"]
            == report["queries"]
        )


class TestConnectionBurst:
    def test_64_connections_opened_before_any_request(self):
        """A burst far past the stdlib's default accept backlog of 5:
        every connection is held open, unsent, until all 64 exist."""
        system = StashCluster(
            small_test_dataset(num_records=2_000),
            StashConfig(cluster=ClusterConfig(num_nodes=2)),
        )
        backend = SimBackend(system)
        request = raw_post(
            "/aggregate",
            json.dumps(
                {
                    "bbox": [25.0, 50.0, -130.0, -70.0],
                    "time": [1359763200, 1359849600],
                    "spatial": 3,
                    "temporal": "day",
                }
            ).encode(),
        )
        answers = []
        with StashHttpServer(backend) as server:
            connections = [
                socket.create_connection(server.address, timeout=60.0)
                for _ in range(64)
            ]
            try:
                for conn in connections:
                    conn.sendall(request)
                for conn in connections:
                    chunks = []
                    while chunk := conn.recv(65536):
                        chunks.append(chunk)
                    answers.append(b"".join(chunks))
            finally:
                for conn in connections:
                    conn.close()
        backend.close()
        assert len(answers) == 64
        assert all(a.startswith(b"HTTP/1.1 200 ") for a in answers)
