"""Command-line interface: run queries and regenerate paper experiments.

Examples::

    python -m repro dataset --records 50000 --days 3
    python -m repro query --engine stash --box 37,41,-109,-102 \
        --day 2013-02-03 --spatial 4 --heatmap temperature
    python -m repro experiment fig6a
    python -m repro experiment all --scale unit
    python -m repro bench scale --quick
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro.bench.harness import BenchScale, ExperimentResult

#: Experiment registry: name -> zero-arg-beyond-scale callable.
def _experiment_registry() -> dict[str, Callable[[BenchScale], ExperimentResult]]:
    from repro.bench import ablations, churn, experiments, faults

    return {
        "churn-recovery": churn.churn_recovery,
        "fault-recovery": faults.fault_crash_recovery,
        "fig6a": experiments.fig6a_latency_by_query_size,
        "fig6b": experiments.fig6b_throughput,
        "fig6c": experiments.fig6c_maintenance,
        "fig6d": experiments.fig6d_hotspot,
        "fig7a": lambda s: experiments.fig7ab_iterative_dicing(s, ascending=False),
        "fig7b": lambda s: experiments.fig7ab_iterative_dicing(s, ascending=True),
        "fig7c": experiments.fig7c_panning,
        "fig7d": lambda s: experiments.fig7de_zoom(s, "drill"),
        "fig7e": lambda s: experiments.fig7de_zoom(s, "roll"),
        "fig8a": experiments.fig8a_es_panning,
        "fig8b": lambda s: experiments.fig8bc_es_dicing(s, ascending=True),
        "fig8c": lambda s: experiments.fig8bc_es_dicing(s, ascending=False),
        "ablation-rollup": ablations.ablation_rollup,
        "ablation-dispersion": ablations.ablation_dispersion,
        "ablation-reroute": ablations.ablation_reroute_probability,
        "ablation-prefetch": ablations.ablation_prefetch,
        "ablation-scaling": ablations.ablation_cluster_scaling,
        "ablation-capacity": ablations.ablation_cache_capacity,
        "sessions": ablations.experiment_realistic_sessions,
    }


def _add_engine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=("stash", "basic", "elastic"), default="stash"
    )


def _add_workload(
    parser: argparse.ArgumentParser, requests: int, workload: str = "pan-cloud"
) -> None:
    """The generated-workload flags (see :func:`_generate_workload`)."""
    parser.add_argument(
        "--workload", choices=("pan-cloud", "hotspot", "zipf"), default=workload
    )
    parser.add_argument(
        "--size", choices=("country", "state", "county", "city"), default="county"
    )
    parser.add_argument("--requests", type=int, default=requests)
    parser.add_argument("--seed", type=int, default=42)


def _add_cluster(
    parser: argparse.ArgumentParser,
    records: int = 50_000,
    days: int = 3,
    nodes: int = 16,
) -> None:
    """The dataset-and-cluster size flags (see :func:`_build_system`)."""
    parser.add_argument("--records", type=int, default=records)
    parser.add_argument("--days", type=int, default=days)
    parser.add_argument("--nodes", type=int, default=nodes)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STASH (CLUSTER 2019) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="generate a synthetic NAM-like dataset")
    ds.add_argument("--records", type=int, default=50_000)
    ds.add_argument("--days", type=int, default=3)
    ds.add_argument("--seed", type=int, default=42)

    qp = sub.add_parser("query", help="run one aggregation query")
    _add_engine(qp)
    _add_cluster(qp)
    qp.add_argument(
        "--box",
        default="37,41,-109,-102",
        help="south,north,west,east in degrees",
    )
    qp.add_argument("--day", default="2013-02-02", help="YYYY-MM-DD")
    qp.add_argument("--spatial", type=int, default=4, help="geohash precision")
    qp.add_argument(
        "--temporal",
        choices=("year", "month", "day", "hour"),
        default="day",
    )
    qp.add_argument("--seed", type=int, default=42)
    qp.add_argument("--repeat", type=int, default=2, help="run N times (shows caching)")
    qp.add_argument("--heatmap", metavar="ATTR", help="render an ASCII heatmap")
    qp.add_argument("--json", action="store_true", help="print the JSON response")

    ex = sub.add_parser("experiment", help="regenerate a paper figure")
    ex.add_argument(
        "name",
        choices=sorted(_experiment_registry()) + ["all"],
        help="figure/ablation id",
    )
    ex.add_argument("--scale", choices=("unit", "default"), default="default")
    ex.add_argument("--save", action="store_true", help="persist to benchmarks/results/")

    tr = sub.add_parser("trace", help="record or replay a query trace")
    tr_sub = tr.add_subparsers(dest="trace_command", required=True)
    rec = tr_sub.add_parser("record", help="generate a workload and save it")
    rec.add_argument("path", help="output JSONL file")
    _add_workload(rec, requests=100)
    rep = tr_sub.add_parser("replay", help="replay a trace against an engine")
    rep.add_argument("path", help="input JSONL file")
    _add_engine(rep)
    _add_cluster(rep)
    rep.add_argument("--concurrent", action="store_true")
    fa = sub.add_parser(
        "faults", help="validate or replay a fault-injection schedule"
    )
    fa_sub = fa.add_subparsers(dest="faults_command", required=True)
    val = fa_sub.add_parser("validate", help="parse and sanity-check a schedule")
    val.add_argument("path", help="fault schedule JSON file")
    frun = fa_sub.add_parser(
        "run", help="run a workload open-loop under a fault schedule"
    )
    frun.add_argument("path", help="fault schedule JSON file")
    _add_engine(frun)
    _add_workload(frun, requests=60, workload="hotspot")
    _add_cluster(frun)
    frun.add_argument(
        "--rate", type=float, default=2.0, help="arrivals per simulated second"
    )
    frun.add_argument(
        "--rpc-timeout", type=float, default=0.35, help="per-leg RPC timeout (s)"
    )
    frun.add_argument(
        "--evaluate-timeout",
        type=float,
        default=1.5,
        help="client-side whole-query timeout (s)",
    )

    be = sub.add_parser(
        "bench", help="simulated workload sweeps: nodes x users"
    )
    be_sub = be.add_subparsers(dest="bench_command", required=True)
    bs = be_sub.add_parser(
        "scale",
        help="nodes x users closed-loop sweep: throughput + latency SLOs, "
        "STASH vs elastic",
    )
    bs.add_argument(
        "--quick", action="store_true",
        help="tiny grid on the unit bench scale (the CI smoke configuration)",
    )
    bs.add_argument("--seed", type=int, default=0)
    bs.add_argument(
        "--nodes", help="comma-separated node counts overriding the sweep"
    )
    bs.add_argument(
        "--users", help="comma-separated concurrent-user counts overriding the sweep"
    )
    bs.add_argument(
        "--output", default="BENCH_scale.json", help="report path ('-' to skip)"
    )

    ep = sub.add_parser(
        "explain",
        help="replay one query with the flight recorder on; print its waterfall",
    )
    _add_engine(ep)
    _add_workload(ep, requests=20)
    _add_cluster(ep)
    ep.add_argument(
        "--query", type=int, default=-1,
        help="workload index to explain (default: the slowest query)",
    )
    ep.add_argument(
        "--trace-out", metavar="PATH",
        help="also export the full run as a Chrome/Perfetto trace",
    )

    cf = sub.add_parser(
        "conform",
        help="replay randomized workloads against the brute-force oracle",
    )
    cf.add_argument("--seed", type=int, default=0)
    cf.add_argument(
        "--quick", action="store_true",
        help="small per-axis workloads (the CI smoke configuration)",
    )
    cf.add_argument(
        "--queries-per-axis", type=int, default=None,
        help="override the per-axis workload size",
    )
    cf.add_argument(
        "--axis", action="append", dest="axes", metavar="NAME",
        help="run only this axis (repeatable); default runs all",
    )
    cf.add_argument("--json", metavar="PATH", help="also dump the report as JSON")

    sv = sub.add_parser(
        "serve",
        help="run the cluster on real asyncio sockets; check vs the sim twin",
    )
    _add_workload(sv, requests=6)
    _add_cluster(sv, records=20_000, days=2, nodes=3)
    sv.add_argument(
        "--time-scale", type=float, default=None,
        help="wall seconds per simulated second (default from ServeConfig)",
    )
    sv.add_argument(
        "--budget", type=float, default=None,
        help="wall-clock budget for the whole run in seconds",
    )
    sv.add_argument(
        "--no-sim-check", action="store_true",
        help="skip the sim-twin byte-identity comparison",
    )
    sv.add_argument("--json", metavar="PATH", help="also dump the report as JSON")
    sv.add_argument(
        "--http", action="store_true",
        help="serve the HTTP query facade instead of replaying a workload",
    )
    sv.add_argument(
        "--http-backend", choices=("sim", "socket"), default="sim",
        help="facade backend: in-process simulated cluster or the real "
        "socket cluster (--nodes processes)",
    )
    sv.add_argument(
        "--port", type=int, default=0,
        help="HTTP port to bind (default: OS-assigned)",
    )
    sv.add_argument(
        "--duration", type=float, default=0.0,
        help="seconds to serve HTTP before exiting (0 = until interrupted)",
    )

    mt = sub.add_parser(
        "metrics", help="run a workload with periodic metric sampling"
    )
    _add_engine(mt)
    _add_workload(mt, requests=20)
    _add_cluster(mt)
    mt.add_argument(
        "--interval", type=float, default=0.25, help="sample period (simulated s)"
    )
    mt.add_argument("--json", metavar="PATH", help="also dump all series as JSON")
    return parser


def _write_json(payload: object, path: str, what: str = "report") -> bool:
    """Write a JSON report; an unwritable path is the CLI error, not a traceback."""
    from repro.bench.reporting import write_json

    try:
        write_json(payload, path)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    print(f"wrote {what} to {path}")
    return True


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.data.generator import DatasetSpec, SyntheticNAMGenerator

    spec = DatasetSpec(
        num_records=args.records,
        start_day=(2013, 2, 1),
        num_days=args.days,
        seed=args.seed,
    )
    batch = SyntheticNAMGenerator(spec).generate()
    print(f"records:    {len(batch):,}")
    print(f"bytes:      {batch.nbytes:,}")
    print(f"lat range:  [{batch.lats.min():.2f}, {batch.lats.max():.2f}]")
    print(f"lon range:  [{batch.lons.min():.2f}, {batch.lons.max():.2f}]")
    for name in batch.attribute_names:
        values = batch.attributes[name]
        print(
            f"{name:>14}: mean={values.mean():8.2f}  "
            f"min={values.min():8.2f}  max={values.max():8.2f}"
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.geo.bbox import BoundingBox
    from repro.geo.resolution import Resolution
    from repro.geo.temporal import TemporalResolution, TimeKey
    from repro.query.model import AggregationQuery

    try:
        south, north, west, east = (float(v) for v in args.box.split(","))
    except ValueError:
        print(f"error: --box must be south,north,west,east, got {args.box!r}",
              file=sys.stderr)
        return 2
    system = _build_system(args, dataset_seed=args.seed)
    query = AggregationQuery(
        bbox=BoundingBox(south, north, west, east),
        time_range=TimeKey.parse(args.day).epoch_range(),
        resolution=Resolution(
            args.spatial, TemporalResolution[args.temporal.upper()]
        ),
    )
    result = None
    for attempt in range(1, max(1, args.repeat) + 1):
        result = system.run_query(query.clone())
        if hasattr(system, "drain"):
            system.drain()
        print(
            f"run {attempt}: {result.latency * 1e3:9.3f} ms  "
            f"cells={len(result.cells):5d}  observations={result.total_count:,}"
        )
        print(f"        provenance: {result.provenance}")
    assert result is not None
    if args.heatmap:
        from repro.client.render import render_ascii_heatmap

        print()
        print(render_ascii_heatmap(result, args.heatmap))
    if args.json:
        from repro.client.render import render_json

        print(render_json(result, indent=2))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    registry = _experiment_registry()
    scale = BenchScale.unit() if args.scale == "unit" else BenchScale.default()
    names = sorted(registry) if args.name == "all" else [args.name]
    for name in names:
        result = registry[name](scale)
        print()
        print(result.format_table())
        from repro.bench.reporting import ascii_chart

        print()
        print(ascii_chart(result))
        if args.save:
            from repro.bench.reporting import save_result

            path = save_result(result)
            print(f"saved to {path}")
    return 0


def _generate_workload(workload: str, size_name: str, requests: int, seed: int):
    """Build the query list the ``trace``/``metrics`` commands run."""
    import numpy as np

    from repro.data.generator import NAM_DOMAIN
    from repro.errors import WorkloadError
    from repro.workload.hotspot import hotspot_workload, zipf_region_workload
    from repro.workload.navigation import pan_cloud
    from repro.workload.queries import QuerySize

    if requests < 1:
        raise WorkloadError(f"--requests must be positive, got {requests}")
    rng = np.random.default_rng(seed)
    size = QuerySize(size_name)
    if workload == "pan-cloud":
        pans = 10
        return pan_cloud(
            rng, size, NAM_DOMAIN,
            num_centers=max(1, requests // pans),
            pans_per_center=pans,
        )[:requests]
    if workload == "hotspot":
        return hotspot_workload(rng, NAM_DOMAIN, requests, size=size)
    return zipf_region_workload(rng, NAM_DOMAIN, requests, size=size)


def _build_system(args: argparse.Namespace, dataset_seed: int = 42, **sections):
    """The ``--engine`` system over a ``--records/--days`` dataset on ``--nodes``.

    ``sections`` are the :class:`~repro.config.StashConfig` sections a
    command sets besides the cluster size (``observability=``, ``faults=``).
    """
    from repro.bench.harness import make_system
    from repro.config import ClusterConfig, StashConfig
    from repro.data.generator import DatasetSpec, SyntheticNAMGenerator

    spec = DatasetSpec(
        num_records=args.records,
        start_day=(2013, 2, 1),
        num_days=args.days,
        seed=dataset_seed,
    )
    dataset = SyntheticNAMGenerator(spec).generate()
    config = StashConfig(cluster=ClusterConfig(num_nodes=args.nodes), **sections)
    return make_system(args.engine, dataset, config)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.workload.trace import load_trace, replay_trace, save_trace

    if args.trace_command == "record":
        queries = _generate_workload(
            args.workload, args.size, args.requests, args.seed
        )
        count = save_trace(queries, args.path)
        print(f"wrote {count} queries to {args.path}")
        return 0

    # replay
    from repro.errors import WorkloadError
    from repro.stats import percentile

    try:
        queries = load_trace(args.path)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    if not queries:
        raise WorkloadError(f"{args.path}: the trace holds no queries")

    system = _build_system(args)
    results = replay_trace(system, queries, concurrent=args.concurrent)
    latencies = [r.latency for r in results]
    total = system.metrics.series["query"].duration()
    print(f"replayed {len(results)} queries on {args.engine}")
    print(f"  mean latency: {sum(latencies) / len(latencies) * 1e3:9.3f} ms")
    print(f"  p95 latency:  {percentile(latencies, 95.0) * 1e3:9.3f} ms")
    print(f"  makespan:     {total * 1e3:9.3f} ms "
          f"({len(results) / total:,.0f} queries/s)")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.schedule import FaultSchedule

    try:
        schedule = FaultSchedule.load(args.path)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2

    if args.faults_command == "validate":
        print(f"{args.path}: {len(schedule)} events, valid")
        for event in schedule:
            window = "" if event.until is None else f" until t={event.until}"
            target = event.node or f"{event.src or '*'}->{event.dst or '*'}"
            print(f"  t={event.at:<8g} {event.kind:<10} {target}{window}")
        return 0

    # run
    from repro.config import FaultConfig

    queries = _generate_workload(args.workload, args.size, args.requests, args.seed)
    system = _build_system(
        args,
        faults=FaultConfig(
            enabled=True,
            rpc_timeout=args.rpc_timeout,
            evaluate_timeout=args.evaluate_timeout,
            schedule=tuple(schedule),
        ),
    )
    results = system.run_open_loop(queries, args.rate, seed=args.seed)
    system.drain()
    from repro.stats import percentile

    degraded = [r for r in results if r.degraded]
    latencies = [r.latency for r in results]
    print(f"ran {len(results)}/{len(queries)} queries on {args.engine} "
          f"under {len(schedule)} fault events")
    print(f"  mean latency:     {sum(latencies) / len(latencies) * 1e3:9.3f} ms")
    print(f"  p95 latency:      {percentile(latencies, 95.0) * 1e3:9.3f} ms")
    print(f"  degraded answers: {len(degraded)}")
    if degraded:
        print(f"  min completeness: {min(r.completeness for r in degraded):.3f}")
    print(f"  messages dropped: {system.network.messages_dropped}")
    print(f"  failovers:        {system.membership.failovers}")
    if system.fault_injector is not None:
        for at, description in system.fault_injector.applied:
            print(f"  applied t={at:<10.3f} {description}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.config import ObservabilityConfig
    from repro.obs import explain_result, write_chrome_trace
    from repro.workload.trace import replay_trace

    queries = _generate_workload(args.workload, args.size, args.requests, args.seed)
    system = _build_system(
        args, observability=ObservabilityConfig(trace=True, flight_recorder=True)
    )
    results = replay_trace(system, queries)
    system.drain()
    if not results:
        print("error: workload produced no results", file=sys.stderr)
        return 2
    if args.query >= 0:
        if args.query >= len(results):
            print(
                f"error: --query {args.query} out of range "
                f"(ran {len(results)} queries)",
                file=sys.stderr,
            )
            return 2
        picked = results[args.query]
    else:
        picked = max(results, key=lambda r: r.latency)
    print(explain_result(system, picked))
    if args.trace_out:
        try:
            write_chrome_trace(system.tracer, args.trace_out)
        except OSError as exc:
            print(f"error: cannot write {args.trace_out}: {exc}", file=sys.stderr)
            return 2
        print(f"\nwrote Chrome trace of the full run to {args.trace_out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.bench.scale import (
        ScaleSweep,
        format_scale_report,
        run_scale,
    )

    sweep = ScaleSweep.quick() if args.quick else ScaleSweep.default()
    overrides = {}
    for name, raw in (("node_counts", args.nodes), ("user_counts", args.users)):
        if not raw:
            continue
        try:
            values = tuple(int(v) for v in raw.split(","))
        except ValueError:
            print(f"error: expected comma-separated ints, got {raw!r}",
                  file=sys.stderr)
            return 2
        if any(v <= 0 for v in values):
            print(f"error: {name} values must be positive", file=sys.stderr)
            return 2
        overrides[name] = values
    if overrides:
        sweep = dataclasses.replace(sweep, **overrides)
    report = run_scale(
        sweep, seed=args.seed, progress=lambda line: print(f"  {line}", flush=True)
    )
    print()
    print(format_scale_report(report))
    if args.output != "-" and not _write_json(report, args.output):
        return 2
    return 0


def _cmd_conform(args: argparse.Namespace) -> int:
    from repro.oracle import run_campaign

    report = run_campaign(
        seed=args.seed,
        quick=args.quick,
        queries_per_axis=args.queries_per_axis,
        axes=args.axes,
        progress=lambda line: print(f"  {line}", flush=True),
    )
    print()
    print(report.format())
    if args.json and not _write_json(report.to_json_dict(), args.json):
        return 2
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.config import ClusterConfig, ServeConfig, StashConfig
    from repro.data.generator import DatasetSpec
    from repro.serve import run_serve

    if args.nodes <= 0 or args.requests <= 0:
        print("error: --nodes and --requests must be positive", file=sys.stderr)
        return 2
    serve_cfg = ServeConfig()
    overrides = {}
    if args.time_scale is not None:
        overrides["time_scale"] = args.time_scale
    if args.budget is not None:
        overrides["wall_clock_budget"] = args.budget
    if args.http:
        overrides["http_port"] = args.port
    if overrides:
        serve_cfg = dataclasses.replace(serve_cfg, **overrides)
    config = StashConfig(
        cluster=ClusterConfig(num_nodes=args.nodes), serve=serve_cfg
    )
    spec = DatasetSpec(
        num_records=args.records,
        start_day=(2013, 2, 1),
        num_days=args.days,
        seed=args.seed,
    )
    if args.http:
        return _cmd_serve_http(args, config, spec)
    queries = _generate_workload(args.workload, args.size, args.requests, args.seed)
    report = run_serve(
        queries,
        spec,
        config,
        check_sim=not args.no_sim_check,
        progress=lambda line: print(f"  {line}", flush=True),
    )
    walls = [a["wall_latency_s"] for a in report["answers"]]
    print(
        f"served {report['queries']} queries over {report['transport']} "
        f"on {report['nodes']} node processes"
    )
    if walls:
        print(
            f"  wall latency: mean {sum(walls) / len(walls) * 1e3:8.1f} ms  "
            f"max {max(walls) * 1e3:8.1f} ms"
        )
    if report["sim_checked"]:
        verdict = "byte-identical" if report["ok"] else "DIVERGED"
        print(f"  sim twin: {verdict} "
              f"({len(report['divergences'])} divergences)")
        for divergence in report["divergences"][:10]:
            print(f"    query {divergence['index']}: {divergence['problem']}")
    if args.json and not _write_json(report, args.json):
        return 2
    return 0 if report["ok"] else 1


def _cmd_serve_http(args: argparse.Namespace, config, spec) -> int:
    """``repro serve --http``: the facade over a sim or socket backend."""
    import time as _time

    from repro.data.generator import SyntheticNAMGenerator
    from repro.serve.http import SimBackend, SocketBackend, StashHttpServer

    launcher = None
    try:
        if args.http_backend == "socket":
            from repro.serve.cluster import ServeCluster

            launcher = ServeCluster(spec, config)
            addresses = launcher.start()
            launcher.broadcast_peers(addresses)
            backend = SocketBackend(launcher.node_ids, addresses, config)
            print(
                f"socket cluster up: {len(launcher.node_ids)} node processes",
                flush=True,
            )
        else:
            from repro.core.cluster import StashCluster

            batch = SyntheticNAMGenerator(spec).generate()
            backend = SimBackend(StashCluster(batch, config))
            print(
                f"simulated cluster up: {config.cluster.num_nodes} nodes, "
                f"{spec.num_records} records",
                flush=True,
            )
        server = StashHttpServer(backend, config)
        server.start()
        print(f"HTTP facade ({backend.name} backend) listening on {server.url}",
              flush=True)
        try:
            if args.duration > 0:
                _time.sleep(args.duration)
            else:
                while True:
                    _time.sleep(3600)
        except KeyboardInterrupt:
            print("interrupted; shutting down", flush=True)
        server.stop()
        backend.close()
        return 0
    finally:
        if launcher is not None:
            launcher.stop()


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.config import ObservabilityConfig
    from repro.workload.trace import replay_trace

    if args.interval <= 0:
        print(f"error: --interval must be positive, got {args.interval}",
              file=sys.stderr)
        return 2
    queries = _generate_workload(args.workload, args.size, args.requests, args.seed)
    system = _build_system(
        args, observability=ObservabilityConfig(sample_interval=args.interval)
    )
    results = replay_trace(system, queries)
    system.drain()
    print(
        f"ran {len(results)} queries on {args.engine}; sampled every "
        f"{args.interval}s of simulated time"
    )
    print(system.metrics.format_table())
    if args.json and not _write_json(system.metrics.to_dict(), args.json, "series"):
        return 2
    return 0


_COMMANDS: dict[str, Callable[[argparse.Namespace], int]] = {
    "dataset": _cmd_dataset,
    "query": _cmd_query,
    "experiment": _cmd_experiment,
    "trace": _cmd_trace,
    "faults": _cmd_faults,
    "bench": _cmd_bench,
    "explain": _cmd_explain,
    "conform": _cmd_conform,
    "serve": _cmd_serve,
    "metrics": _cmd_metrics,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; a library error is ``error: <message>`` and exit 2."""
    from repro.errors import ReproError

    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
