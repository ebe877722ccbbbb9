"""Self-tests of the benchmark harness (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
MIX = harness.ProbeMix(py=0.75, np=0.25)
REFS = harness.ProbeRefs(py_s=0.006, np_s=0.009)


def benchmark_json():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_percentile_matches_repro_stats():
    from repro.stats import percentile

    rng = random.Random(3)
    for size in (1, 2, 3, 10, 101, 1000):
        values = [rng.lognormvariate(0.0, 1.0) for _ in range(size)]
        for q in (0.0, 12.5, 50.0, 95.0, 99.0, 100.0):
            assert harness.percentile(values, q) == percentile(values, q)
    with pytest.raises(ValueError):
        harness.percentile([], 50.0)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 101.0)


@pytest.mark.parametrize("num_ops,chunk_ops", [(1, 1), (7, 3), (800, 160), (33, 40)])
def test_chunks_cover_every_op_exactly_once(num_ops, chunk_ops):
    covered = [
        index
        for start, stop in harness.chunk_bounds(num_ops, chunk_ops)
        for index in range(start, stop)
    ]
    assert covered == list(range(num_ops))


def synthetic_passes(drift: float) -> list[harness.PassRecord]:
    """Eight passes; the odd ones run on a machine ``drift`` times slower."""
    rng = random.Random(11)
    base = [rng.lognormvariate(-7.0, 0.6) for _ in range(400)]
    passes = []
    for index in range(8):
        slow = drift if index % 2 else 1.0
        passes.append(
            harness.PassRecord(
                latencies=[latency * slow for latency in base],
                pooled=[i % 17 != 0 for i in range(len(base))],
                probe_py=[REFS.py_s * slow] * 6,
                probe_np=[REFS.np_s * slow] * 6,
            )
        )
    return passes


def test_normalisation_cancels_synthetic_drift():
    steady = harness.summarise(synthetic_passes(1.0), MIX, REFS)
    drifted = harness.summarise(synthetic_passes(1.3), MIX, REFS)
    for name in ("throughput_ops_s", "latency_p50_ms", "latency_p95_ms"):
        assert drifted[name] == pytest.approx(steady[name], rel=0.01)
    # The raw numbers do move, and sit beside the normalised ones.
    assert drifted["raw_latency_p95_ms"] > 1.1 * steady["raw_latency_p95_ms"]


def test_writes_stay_out_of_the_latency_pool():
    record = synthetic_passes(1.0)[0]
    summary = harness.summarise([record], MIX, REFS)
    assert summary["latency_samples"] == sum(record.pooled)
    assert summary["total_ops"] == len(record.latencies)


def test_run_pass_counts_failures_and_probes_every_chunk():
    reads = []

    def read_probes():
        reads.append(1)
        return REFS.py_s, REFS.np_s

    def execute(op):
        if op == 5:
            raise RuntimeError("boom")
        return op != 6

    record = harness.run_pass(
        list(range(10)), execute, lambda op: True, lambda op: None, 4, read_probes
    )
    assert len(record.latencies) == 10
    assert record.failed == 2
    assert len(reads) == len(record.probe_py) == 1 + 3  # before + after each chunk


def test_timed_phases_excludes_probe_time():
    def slow_probe():
        time.sleep(0.02)
        return REFS.py_s, REFS.np_s

    timed = harness.timed_phases([lambda: None, lambda: None], slow_probe)
    assert timed.wall_s < 0.01  # eight 20 ms probes did not count
    assert len(timed.probe_py) == 3 + 2 + 3
    assert timed.normalised(MIX, REFS) == pytest.approx(timed.wall_s)


def test_metric_and_workload_names_are_well_formed():
    spec = benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert {f"{layer}.self_ms_per_op" for layer in tracing.LAYERS} <= set(names)
    with open(os.path.join(HERE, "config.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    assert list(config["workloads"]) == [w["name"] for w in spec["workloads"]]


def test_profile_fold_keeps_the_total():
    """Time of unplaced functions moves to callers; nothing is lost."""
    repro_fn = ("/x/src/repro/geo/cover.py", 1, "covering_cells")
    numpy_fn = ("/x/site-packages/numpy/lib/shape_base.py", 1, "meshgrid")
    builtin = ("~", 0, "<built-in method numpy.arange>")
    stats = {
        repro_fn: (1, 1, 0.5, 1.0, {}),
        numpy_fn: (1, 1, 0.2, 0.5, {repro_fn: (1, 1, 0.2, 0.5)}),
        builtin: (2, 2, 0.3, 0.3, {numpy_fn: (2, 2, 0.3, 0.3)}),
    }
    totals, calls = tracing.fold_profile(stats)
    assert totals["geo"] == pytest.approx(1.0)
    assert sum(totals.values()) == pytest.approx(1.0)
    assert calls == 4


def test_span_self_time_subtracts_children():
    recorder = tracing.SpanRecorder()
    inner = recorder.traced(lambda: time.sleep(0.01), "inner")
    outer = recorder.traced(lambda: inner(), "outer", root=True)
    outer()
    outer()
    assert [s["op_id"] for s in recorder.spans] == [0, 0, 1, 1]
    assert recorder.spans[1]["parent"] == recorder.spans[0]["id"]
    self_ns = recorder.self_times_ns()
    assert self_ns["inner"] >= 2 * 9_000_000
    assert self_ns["outer"] < self_ns["inner"]


def test_fresh_clone_rule():
    """No query reaches the engine with its footprint already memoised."""
    import workloads

    with open(os.path.join(HERE, "config.json"), encoding="utf-8") as handle:
        sizes = json.load(handle)["workloads"]["churn_ingest"]["smoke"]
    workload = workloads.ChurnIngest(sizes, seed=5)
    workload.build_dataset()
    workload.build_engine()
    workload.warm_up()  # memoises footprints on the warm-up clones only
    ops = workload.fresh_ops()
    queries = [op for op in ops if workload.pooled(op)]
    assert queries and len(queries) < len(ops)
    assert all(query._footprint_cache is None for query in queries)
    assert len({query.query_id for query in queries}) == len(queries)
    base_ids = {query.query_id for query in workload.queries}
    assert not base_ids & {query.query_id for query in queries}


def run_smoke(workload: str, trace: int) -> dict:
    started = time.monotonic()
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--smoke",
            "--workload", workload, "--seed", "3", "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert time.monotonic() - started < 20.0
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize(
    "workload",
    ["explore_warm", "scan_cold", "churn_ingest", "http_sim", "socket_rpc"],
)
def test_smoke_emits_every_metric_name(workload):
    spec = benchmark_json()
    end_to_end = run_smoke(workload, trace=0)
    assert set(end_to_end) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert end_to_end[metric["name"]]["unit"] == metric["unit"]
        assert end_to_end[metric["name"]]["value"] > 0.0
    per_layer = run_smoke(workload, trace=1)
    assert set(per_layer) == {m["name"] for m in spec["per_layer"]}
    assert os.path.exists(os.path.join(HERE, "out", f"trace-{workload}.json"))
