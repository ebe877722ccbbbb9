"""Retry backoff: exponential schedule with optional jitter."""

import numpy as np

from repro.config import BACKOFF_MULTIPLIER, FaultConfig


class TestBackoffDelay:
    def test_zero_jitter_is_exact_and_consumes_no_randomness(self):
        faults = FaultConfig(backoff_base=0.1)
        rng = np.random.default_rng(7)
        state_before = rng.bit_generator.state
        for attempt in range(4):
            assert faults.backoff_delay(attempt, rng) == 0.1 * 2.0**attempt
        # jitter=0 must not draw from the stream: determinism of other
        # consumers of a shared rng is preserved.
        assert rng.bit_generator.state == state_before

    def test_no_rng_falls_back_to_nominal(self):
        faults = FaultConfig(backoff_base=0.2, backoff_jitter=0.5)
        assert faults.backoff_delay(1) == 0.2 * BACKOFF_MULTIPLIER

    def test_jitter_stays_within_band(self):
        faults = FaultConfig(backoff_base=0.1, backoff_jitter=0.25)
        rng = np.random.default_rng(123)
        for attempt in range(3):
            nominal = 0.1 * 2.0**attempt
            for _ in range(200):
                delay = faults.backoff_delay(attempt, rng)
                assert nominal * 0.75 <= delay <= nominal * 1.25

    def test_jitter_is_deterministic_per_seed(self):
        faults = FaultConfig(backoff_base=0.1, backoff_jitter=0.3)
        a = [faults.backoff_delay(i, np.random.default_rng(42)) for i in range(5)]
        b = [faults.backoff_delay(i, np.random.default_rng(42)) for i in range(5)]
        assert a == b

    def test_jitter_actually_spreads_delays(self):
        faults = FaultConfig(backoff_base=0.1, backoff_jitter=0.3)
        rng = np.random.default_rng(9)
        delays = {faults.backoff_delay(0, rng) for _ in range(32)}
        assert len(delays) > 1
