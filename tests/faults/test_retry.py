"""The participant base: ``incident()``, the retry loop, and the config it runs on."""

import math

import pytest

from repro.cli import main
from repro.config import CostModel, FaultConfig, StashConfig
from repro.dht.partitioner import PrefixPartitioner
from repro.errors import FaultError
from repro.faults.membership import RPC_FAILED, Membership
from repro.faults.retry import Participant
from repro.faults.schedule import FaultSchedule
from repro.obs.recorder import FlightRecorder, QueryContext
from repro.obs.registry import Counters
from repro.obs.tracer import Tracer
from repro.sim.engine import Simulator
from repro.sim.network import Network

SPAN = ("timeout:scan", "network", 0.0, 1.0, None, {"to": "b"})


class Probe(Participant):
    """A participant whose retry hooks log their calls."""

    def __init__(self, observe: bool = True, **faults):
        sim = Simulator()
        network = Network(
            sim,
            CostModel(),
            tracer=Tracer(sim, enabled=observe),
            recorder=FlightRecorder(sim, enabled=observe),
        )
        membership = Membership(PrefixPartitioner(["a", "b", "c"], 2))
        config = StashConfig(faults=FaultConfig(enabled=True, **faults))
        super().__init__(sim, network, "probe", membership, config)
        self.counters = Counters()
        self.calls: list[tuple] = []

    def _timed_out(self, kind, target, ctx, attempt, span):
        self.calls.append(("timed_out", target, attempt, self.sim.now))

    def _retry(self, kind, target, ctx, attempt, backoff, span):
        self.calls.append(("retry", target, attempt, backoff))

    def _gave_up(self, kind, target, ctx, parent):
        self.calls.append(("gave_up", target))

    def retrying(self, send, resolve=lambda: "b", ctx=None, bump=False):
        loop = self._retrying("scan", send, resolve, 1.0, ctx, None, bump=bump)
        return self.sim.run(until=self.sim.process(loop))


class TestIncident:
    def test_counts_with_the_tracer_and_recorder_off(self):
        probe = Probe(observe=False)
        probe.incident("rpc_timeout", QueryContext(1), counter="rpc_timeouts", span=SPAN)
        assert probe.counters == {"rpc_timeouts": 1}
        assert probe.recorder.events == []
        assert probe.tracer.spans == []

    def test_no_context_records_nothing(self):
        probe = Probe()
        probe.incident("rpc_failed", None, {"to": "b"}, counter="rpc_failed")
        assert probe.counters == {"rpc_failed": 1}
        assert probe.recorder.events == []

    def test_event_at_node_span_on_the_participant(self):
        probe = Probe()
        ctx = QueryContext(4, leg="b")
        probe.incident("client_timeout", ctx, {"to": "b"}, node="b", span=SPAN)
        probe.incident("force_serve", ctx)
        first, second = probe.recorder.events
        assert (first.name, first.node, first.leg, first.detail) == (
            "client_timeout", "b", "b", (("to", "b"),)
        )
        assert second.node == "probe"
        (span,) = probe.tracer.spans
        assert (span.name, span.node, span.start, span.end, span.attrs) == (
            "timeout:scan", "probe", 0.0, 1.0, {"to": "b"}
        )
        assert probe.counters == {}


class TestRetryLoop:
    def test_times_out_backs_off_and_gives_up(self):
        probe = Probe(max_retries=2, backoff_base=0.5)
        sent = []
        reply = probe.retrying(lambda target, ctx: sent.append(target) or probe.sim.event())
        assert reply == (RPC_FAILED, None, "b")
        assert sent == ["b", "b", "b"]
        assert probe.calls == [
            ("timed_out", "b", 0, 1.0),
            ("retry", "b", 1, 0.5),
            ("timed_out", "b", 1, 2.5),
            ("retry", "b", 2, 1.0),
            ("timed_out", "b", 2, 4.5),
            ("gave_up", "b"),
        ]

    def test_first_reply_wins(self):
        probe = Probe()
        reply = probe.retrying(lambda target, ctx: probe.sim.timeout(0.25, value="ok"))
        assert reply == ("ok", None, "b")
        assert probe.calls == [] and probe.sim.now == 0.25

    def test_hopeless_target_fails_fast(self):
        probe = Probe()
        sent = []
        reply = probe.retrying(lambda target, ctx: sent.append(target), resolve=lambda: None)
        assert reply == (RPC_FAILED, None, None)
        assert sent == [] and probe.calls == [] and probe.sim.now == 0.0

    def test_each_attempt_resolves_and_bumps(self):
        probe = Probe(max_retries=2, backoff_base=0.0)
        targets = iter(["a", "b", "c"])
        seen = []
        reply, ctx, target = probe.retrying(
            lambda target, ctx: seen.append((target, ctx.attempt)) or probe.sim.event(),
            resolve=lambda: next(targets),
            ctx=QueryContext(7),
            bump=True,
        )
        assert seen == [("a", 0), ("b", 1), ("c", 2)]
        assert (reply, ctx, target) == (RPC_FAILED, QueryContext(7, attempt=2), "c")

    def test_without_bump_the_context_is_kept(self):
        probe = Probe(max_retries=1)
        ctx = QueryContext(7, leg="b")
        _, kept, _ = probe.retrying(lambda target, ctx: probe.sim.event(), ctx=ctx)
        assert kept is ctx


class TestFaultConfigChecks:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("rpc_timeout", 0.0),
            ("rpc_timeout", -1.0),
            ("rpc_timeout", math.nan),
            ("rpc_timeout", math.inf),
            ("evaluate_timeout", 0.0),
            ("evaluate_timeout", math.nan),
            ("max_retries", -1),
            ("backoff_base", -0.5),
            ("backoff_base", math.nan),
            ("backoff_base", math.inf),
            ("backoff_jitter", -0.1),
            ("backoff_jitter", 1.5),
            ("backoff_jitter", math.nan),
        ],
    )
    def test_refused_naming_the_field(self, field, value):
        with pytest.raises(FaultError, match=rf"FaultConfig\.{field} must be"):
            FaultConfig(**{field: value})

    def test_edges_accepted(self):
        FaultConfig(max_retries=0, backoff_base=0.0, backoff_jitter=0.0)
        FaultConfig(rpc_timeout=1e-9, evaluate_timeout=1e-9, backoff_jitter=1.0)

    @pytest.mark.parametrize("value", ["0", "nan", "-1"])
    def test_faults_run_exits_2_naming_the_field(self, value, tmp_path, capsys):
        schedule = tmp_path / "schedule.json"
        schedule.write_text(FaultSchedule.crash_restart("node-1", 0.1, 5.0).to_json())
        argv = ["faults", "run", str(schedule), "--requests", "2", "--records", "2000",
                "--nodes", "2", "--rpc-timeout", value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: FaultConfig.rpc_timeout must be finite and > 0")
        assert "Traceback" not in err
