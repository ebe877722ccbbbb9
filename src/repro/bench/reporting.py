"""Result persistence and pretty-printing for the benchmark suite.

Every benchmark writes its regenerated figure data to
``benchmarks/results/<name>.txt`` (human table) and ``<name>.json``
(machine form) so EXPERIMENTS.md can be refreshed from a bench run.
"""

from __future__ import annotations

import datetime
import json
import pathlib
import platform
import subprocess

import numpy as np

from repro.bench.harness import ExperimentResult

#: Default output directory, relative to the repository root.
RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def report_meta(seed: int) -> dict:
    """Environment stamp for a committed bench report.

    Identifies *where* and *from what* the numbers came: interpreter and
    numpy versions, the RNG seed, the git revision, and the wall-clock
    date.
    """
    try:
        git_rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=pathlib.Path(__file__).resolve().parent,
            check=False,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        git_rev = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "git_rev": git_rev,
        "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def write_json(payload: object, path: str) -> None:
    """The one JSON report writer: indented, key-sorted, newline-ended."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_result(result: ExperimentResult, directory: pathlib.Path | None = None) -> pathlib.Path:
    """Persist a result; returns the table path."""
    directory = RESULTS_DIR if directory is None else directory
    directory.mkdir(parents=True, exist_ok=True)
    table_path = directory / f"{result.name}.txt"
    table_path.write_text(result.format_table() + "\n", encoding="utf-8")
    json_path = directory / f"{result.name}.json"
    json_path.write_text(
        json.dumps(
            {
                "name": result.name,
                "description": result.description,
                "series": result.series,
                "meta": {k: v for k, v in result.meta.items()},
            },
            indent=2,
            sort_keys=True,
            default=str,
        )
        + "\n",
        encoding="utf-8",
    )
    return table_path


#: Glyphs for the grouped bar chart, one per series.
_BAR_GLYPHS = "#=+*o%"


def ascii_chart(result: ExperimentResult, width: int = 48) -> str:
    """Grouped horizontal bars of a result — the figure, in a terminal.

    Bars are scaled to the maximum value across all series; each series
    gets its own glyph, listed in the legend line.
    """
    series_names = list(result.series)
    labels = result.row_labels()
    peak = max(
        (v for rows in result.series.values() for v in rows.values()),
        default=0.0,
    )
    if peak <= 0:
        return "(no positive values to chart)"
    label_width = max((len(l) for l in labels), default=4)
    lines = [
        "legend: "
        + "  ".join(
            f"{_BAR_GLYPHS[i % len(_BAR_GLYPHS)]} {name}"
            for i, name in enumerate(series_names)
        )
    ]
    for label in labels:
        for i, name in enumerate(series_names):
            value = result.series[name].get(label)
            if value is None:
                continue
            bar = _BAR_GLYPHS[i % len(_BAR_GLYPHS)] * max(
                1, int(round(width * value / peak))
            )
            row_label = label if i == 0 else ""
            lines.append(f"{row_label:>{label_width}} |{bar} {value:.4g}")
    return "\n".join(lines)


def attribution_summary(result: ExperimentResult) -> str:
    """Per-series critical-path breakdown lines, if the run traced.

    Reads the ``attribution_<series>`` meta entries experiments attach
    (fractions per queueing/network/disk/compute category).
    """
    lines = []
    for key, value in sorted(result.meta.items()):
        if not key.startswith("attribution_") or not isinstance(value, dict):
            continue
        series = key[len("attribution_"):]
        parts = "  ".join(
            f"{cat}={frac:6.1%}" for cat, frac in sorted(value.items())
        )
        lines.append(f"{series:>12}: {parts}")
    if not lines:
        return ""
    return "critical-path latency attribution:\n" + "\n".join(lines)


def report(result: ExperimentResult) -> None:
    """Print and persist a result (stdout shows with pytest -s)."""
    print()
    print(result.format_table())
    print()
    print(ascii_chart(result))
    summary = attribution_summary(result)
    if summary:
        print()
        print(summary)
    save_result(result)
