#!/usr/bin/env python3
"""Which functions in ``src/repro`` does no entry point ever enter?

    reachability.py [--tree PATH] [--keep DIR] [--only NAME ...]

Copies ``src/``, ``examples/``, ``benchmarks/`` and ``BENCHMARK.json`` of
the tree (default: the checkout holding this script) into a scratch
directory, so commands
that write reports (``experiment all --save``, ``bench scale``)
never touch the checkout.  Every entry point in :data:`ENTRY_POINTS`
runs there with a ``sitecustomize.py`` on ``PYTHONPATH`` that installs a
``sys.setprofile`` + ``threading.setprofile`` hook; each process,
``spawn`` node children included, writes the code objects it entered on
exit.  The ``serve --http`` runs are driven with real requests on both
backends.  Then an ``ast`` pass lists every outermost ``def`` (module
functions and class methods, not nested defs) and prints, per module and
in total, the ones never entered with their line counts (decorators and
docstrings included).

Not a gate: code only tests use shows up here as never entered, and so
does code an entry point reaches only under a condition the list does not
set up.  A full run takes about ten minutes on two cores.
"""

import argparse
import ast
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

HOOK = '''
import atexit, os, sys, threading

_seen = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    root = os.environ["REACHABILITY_ROOT"]
    names = set()
    for code in list(_seen):
        path = os.path.realpath(code.co_filename)
        if path.startswith(root):
            names.add(f"{path}:{code.co_firstlineno}")
    out = os.path.join(os.environ["REACHABILITY_OUT"], f"{os.getpid()}.txt")
    with open(out, "w") as handle:
        handle.write("\\n".join(sorted(names)))


sys.setprofile(_hook)
threading.setprofile(_hook)
atexit.register(_dump)
'''

SCHEDULE = {
    "events": [
        {"kind": "crash", "at": 5.0, "node": "node-1"},
        {"kind": "restart", "at": 20.0, "node": "node-1"},
    ]
}

#: One viewport of a few hundred cells (time in epoch seconds).
HTTP_QUERY = {
    "bbox": [25.0, 50.0, -130.0, -70.0],
    "time": [1359763200, 1359849600],
    "spatial": 3,
    "temporal": "day",
}

REPRO = [sys.executable, "-m", "repro"]
E2E = ("explore_warm", "scan_cold", "churn_ingest", "http_sim", "socket_rpc")

#: name -> argv, run from the scratch copy's root (plus one entry per
#: example).  ``http-*`` entries are servers driven by :func:`drive_http`.
ENTRY_POINTS = {
    "dataset": REPRO + ["dataset", "--records", "5000"],
    "query": REPRO + ["query", "--records", "5000", "--nodes", "4", "--repeat", "2"],
    "query-heatmap": REPRO + ["query", "--records", "5000", "--heatmap", "temperature", "--json"],
    "query-basic": REPRO + ["query", "--engine", "basic", "--records", "5000"],
    "query-elastic": REPRO + ["query", "--engine", "elastic", "--records", "5000"],
    "experiment-all-save": REPRO + ["experiment", "all", "--save"],
    "conform": REPRO + ["conform", "--seed", "0"],
    "bench-scale": REPRO + ["bench", "scale", "--quick", "--output", "scale.json"],
    "trace-record": REPRO + ["trace", "record", "trace.jsonl", "--requests", "20"],
    "trace-replay": REPRO + ["trace", "replay", "trace.jsonl", "--records", "8000"],
    "trace-replay-concurrent": REPRO
    + ["trace", "replay", "trace.jsonl", "--records", "8000", "--concurrent"],
    "metrics": REPRO + ["metrics", "--requests", "5", "--records", "12000", "--interval", "0.01"],
    "explain": REPRO + ["explain", "--requests", "6", "--records", "12000", "--trace-out", "explain.json"],
    "faults-validate": REPRO + ["faults", "validate", "schedule.json"],
    "faults-run": REPRO + ["faults", "run", "schedule.json", "--requests", "30", "--records", "8000"],
    "serve": REPRO + ["serve", "--nodes", "2", "--requests", "4", "--records", "10000"],
    "http-sim": REPRO + ["serve", "--http", "--nodes", "2", "--records", "8000", "--duration", "20"],
    "http-socket": REPRO
    + ["serve", "--http", "--http-backend", "socket", "--nodes", "2", "--records", "8000", "--duration", "40"],
    **{
        f"e2e-{name}": [sys.executable, "benchmarks/e2e/run.py", "--workload", name, "--smoke"]
        for name in E2E
    },
}


def post(url: str, path: str, body: dict) -> dict:
    request = urllib.request.Request(
        url + path, json.dumps(body).encode(), {"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def drive_http(proc: subprocess.Popen) -> None:
    """Wait for the facade's URL, then send every kind of request."""
    for line in proc.stdout:
        match = re.search(r"listening on (http://\S+)", line)
        if match:
            url = match.group(1)
            break
    else:
        raise RuntimeError("serve --http never printed its URL")
    for path in ("/healthz", "/stats"):
        urllib.request.urlopen(url + path, timeout=60).read()
    post(url, "/aggregate", HTTP_QUERY)
    post(url, "/aggregate", HTTP_QUERY)  # a cache hit
    page = post(url, "/search", {**HTTP_QUERY, "limit": 50})
    if page.get("next_token"):
        post(url, "/search", {**HTTP_QUERY, "limit": 50, "next_token": page["next_token"]})
    post(url, "/drill", {"query": HTTP_QUERY, "direction": "down"})
    post(url, "/drill", {"query": HTTP_QUERY, "direction": "up"})
    for bad in ({**HTTP_QUERY, "bbox": [1, 2]}, {**HTTP_QUERY, "temporal": "week"}):
        try:
            post(url, "/aggregate", bad)
        except urllib.error.HTTPError:
            pass


def run_entry_points(work: pathlib.Path, out: pathlib.Path, only: list[str] | None) -> None:
    entry_points = dict(ENTRY_POINTS)
    for path in sorted((work / "examples").glob("*.py")):
        entry_points[f"example-{path.stem}"] = [sys.executable, f"examples/{path.name}"]
    unknown = set(only or ()) - set(entry_points)
    if unknown:
        raise SystemExit(f"unknown entry points {sorted(unknown)}; known: {sorted(entry_points)}")
    hook_dir = work / "_hook"
    hook_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    (work / "schedule.json").write_text(json.dumps(SCHEDULE))
    env = {
        **os.environ,
        "PYTHONPATH": f"{hook_dir}{os.pathsep}{work / 'src'}",
        "PYTHONHASHSEED": "0",
        "REACHABILITY_ROOT": str((work / "src" / "repro").resolve()),
        "REACHABILITY_OUT": str(out),
    }
    for name in only or entry_points:
        argv = entry_points[name]
        start = time.monotonic()
        if name.startswith("http-"):
            proc = subprocess.Popen(
                argv, cwd=work, env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            )
            try:
                drive_http(proc)
            finally:
                proc.stdout.read()
                status = proc.wait(timeout=600)
        else:
            status = subprocess.run(
                argv, cwd=work, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=3600,
            ).returncode
        print(f"  {name}: exit {status}, {time.monotonic() - start:.0f} s", file=sys.stderr)


def outermost_defs(tree: ast.AST):
    """``(qualname, first line, last line)`` of every def not inside a def."""
    stack = [(node, "") for node in ast.iter_child_nodes(tree)]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield prefix + node.name, first, node.end_lineno
        elif isinstance(node, ast.ClassDef):
            stack += [(child, f"{prefix}{node.name}.") for child in node.body]
        elif isinstance(node, (ast.If, ast.Try)):
            stack += [(child, prefix) for child in ast.iter_child_nodes(node)]


def report(work: pathlib.Path, out: pathlib.Path) -> None:
    dumps = list(out.glob("*.txt"))
    entered = set()
    for dump in dumps:
        entered.update(dump.read_text().split())
    package = (work / "src" / "repro").resolve()
    rows, dead = [], []
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package.parent).as_posix()
        defs = list(outermost_defs(ast.parse(path.read_text())))
        missed = [d for d in defs if f"{path}:{d[1]}" not in entered]
        lines = sum(last - first + 1 for _, first, last in missed)
        rows.append((module, len(defs), len(missed), lines))
        dead += [(module, name, last - first + 1) for name, first, last in missed]
    print(f"{len(dumps)} processes recorded\n")
    print("| module | defs | never entered | lines |")
    print("|---|---:|---:|---:|")
    for module, total, missed, lines in rows:
        if missed:
            print(f"| `{module}` | {total} | {missed} | {lines} |")
    print(
        f"| **total** | {sum(r[1] for r in rows)} | {sum(r[2] for r in rows)} "
        f"| {sum(r[3] for r in rows)} |\n"
    )
    for module, name, lines in dead:
        print(f"{module}:{name}  {lines}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=pathlib.Path, default=pathlib.Path(__file__).resolve().parents[2])
    parser.add_argument("--keep", type=pathlib.Path, help="scratch directory to use and keep")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only this entry point (repeatable)")
    args = parser.parse_args(argv)
    scratch = (args.keep or pathlib.Path(tempfile.mkdtemp(prefix="reachability-"))).resolve()
    work, out = scratch / "tree", scratch / "calls"
    try:
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
        for part in ("src", "examples", "benchmarks"):
            shutil.copytree(args.tree / part, work / part, ignore=ignore)
        shutil.copy(args.tree / "BENCHMARK.json", work)
        out.mkdir()
        run_entry_points(work, out, args.only)
        report(work, out)
    finally:
        if args.keep is None:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
