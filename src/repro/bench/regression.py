"""Bench regression sentinel: compare a fresh kernel run to a baseline.

``repro bench check`` re-runs the micro-kernel harness with the
baseline's own sizes/repeats/seed and flags any kernel whose wall-clock
seconds drifted past a noise-aware threshold.  Two guards keep it from
crying wolf:

* **Environment refusal** — wall-clock numbers from a different
  interpreter or numpy build (or a different seed) are not comparable;
  if the ``meta`` blocks disagree on those keys the check refuses
  (exit 2) instead of reporting a bogus regression.
* **Re-run variance floor** — the harness is run twice; per metric the
  *faster* of the two runs is compared (a real regression persists in
  both, a scheduler hiccup doesn't) and the observed run-to-run ratio
  widens that metric's threshold: a kernel whose own back-to-back runs
  differ by 1.4x cannot be failed at 1.5x.  Timings below
  ``MIN_SECONDS`` are skipped outright (timer noise).
"""

from __future__ import annotations

from typing import Any

from repro.bench.reporting import ENV_META_KEYS

#: Default regression threshold: fresh/baseline ratio above this fails.
DEFAULT_THRESHOLD = 1.5

#: Margin applied on top of the observed re-run variance.
NOISE_MARGIN = 1.25

#: Timings below this are pure timer noise; never compared.
MIN_SECONDS = 5e-5

#: The timing fields a kernel entry may carry (v3 reports: one per
#: kernel, the production function's best-of-repeats wall time).
_TIMING_FIELDS = ("seconds",)


def meta_of(report: dict[str, Any]) -> dict[str, Any]:
    """The environment stamp of a report (v1 fallback: top-level keys)."""
    meta = report.get("meta")
    if isinstance(meta, dict):
        return meta
    return {key: report.get(key) for key in ENV_META_KEYS}


def env_mismatches(
    baseline: dict[str, Any], fresh: dict[str, Any]
) -> list[str]:
    """Human-readable mismatch lines, empty when comparable."""
    base_meta, fresh_meta = meta_of(baseline), meta_of(fresh)
    out = []
    for key in ENV_META_KEYS:
        if base_meta.get(key) != fresh_meta.get(key):
            out.append(
                f"{key}: baseline={base_meta.get(key)!r} "
                f"fresh={fresh_meta.get(key)!r}"
            )
    return out


def flatten_metrics(report: dict[str, Any]) -> dict[str, float]:
    """``kernel@size/field -> seconds`` over every timing in a report."""
    out: dict[str, float] = {}
    for kernel, by_size in report.get("kernels", {}).items():
        for size, entry in by_size.items():
            for field in _TIMING_FIELDS:
                value = entry.get(field)
                if isinstance(value, (int, float)):
                    out[f"{kernel}@{size}/{field}"] = float(value)
    return out


def compare_reports(
    baseline: dict[str, Any],
    fresh: dict[str, Any],
    rerun: dict[str, Any] | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict[str, Any]:
    """Compare reports; returns a verdict dict (never raises on content).

    ``status`` is ``"env-mismatch"``, ``"regression"``, or ``"ok"``.
    """
    mismatches = env_mismatches(baseline, fresh)
    if mismatches:
        return {"status": "env-mismatch", "mismatches": mismatches, "rows": []}
    base_metrics = flatten_metrics(baseline)
    fresh_metrics = flatten_metrics(fresh)
    rerun_metrics = flatten_metrics(rerun) if rerun else {}
    rows = []
    regressions = 0
    for name in sorted(set(base_metrics) & set(fresh_metrics)):
        base_s, fresh_s = base_metrics[name], fresh_metrics[name]
        if base_s < MIN_SECONDS or fresh_s < MIN_SECONDS:
            rows.append(
                {"metric": name, "baseline_s": base_s, "fresh_s": fresh_s,
                 "skipped": "below timer-noise floor"}
            )
            continue
        effective = threshold
        rerun_s = rerun_metrics.get(name)
        if rerun_s is not None and rerun_s >= MIN_SECONDS:
            noise = max(fresh_s, rerun_s) / min(fresh_s, rerun_s)
            effective = max(threshold, noise * NOISE_MARGIN)
            # A real regression shows up in both runs; a one-off spike
            # doesn't.  Judge the faster of the two.
            fresh_s = min(fresh_s, rerun_s)
        ratio = fresh_s / base_s
        regressed = ratio > effective
        regressions += regressed
        rows.append(
            {"metric": name, "baseline_s": base_s, "fresh_s": fresh_s,
             "ratio": ratio, "threshold": effective, "regressed": regressed}
        )
    return {
        "status": "regression" if regressions else "ok",
        "regressions": regressions,
        "compared": sum(1 for row in rows if "ratio" in row),
        "rows": rows,
    }


def format_check(verdict: dict[str, Any]) -> str:
    """Terminal rendering of a :func:`compare_reports` verdict."""
    if verdict["status"] == "env-mismatch":
        lines = ["bench check: REFUSED — baseline from a different environment"]
        lines += [f"  {line}" for line in verdict["mismatches"]]
        lines.append(
            "  regenerate the baseline in this environment: "
            "python -m repro bench kernels --output BENCH_kernels.json"
        )
        return "\n".join(lines)
    lines = [
        f"== bench check ({verdict['compared']} metrics compared, "
        f"{verdict['regressions']} regressions)"
    ]
    for row in verdict["rows"]:
        name = row["metric"]
        if "skipped" in row:
            lines.append(f"  {name:>44}  skipped ({row['skipped']})")
            continue
        flag = "REGRESSED" if row["regressed"] else "ok"
        lines.append(
            f"  {name:>44}  {row['baseline_s'] * 1e3:9.3f} ms -> "
            f"{row['fresh_s'] * 1e3:9.3f} ms  "
            f"x{row['ratio']:5.2f} (limit x{row['threshold']:.2f})  {flag}"
        )
    return "\n".join(lines)
