"""Observability: query tracing, latency attribution, time-series metrics.

This package is the instrumentation layer the rest of the repository
reports into (see ``docs/observability.md``):

- :mod:`repro.obs.tracer` — a dependency-free span tracer producing
  per-query span trees over the simulated clock;
- :mod:`repro.obs.critical_path` — critical-path analysis attributing
  each query's end-to-end latency to queueing / network / disk / compute;
- :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON export;
- :mod:`repro.obs.registry` — the metrics registry, one per participant:
  counters, latency histograms, gauges sampled on a fixed simulated-time
  grid, with an exact cross-participant merge;
- :mod:`repro.obs.histogram` — mergeable log-bucketed latency
  histograms (an exact monoid: merge across nodes or runs loses
  nothing);
- :mod:`repro.obs.recorder` — the query flight recorder: trace-context
  propagation, per-class/per-node SLO histograms, and outcome events;
- :mod:`repro.obs.explain` — leg-by-leg waterfall rendering for a
  single query ("why was this one slow?").

Everything here *observes* the simulation and never schedules events,
so enabling tracing, sampling, or the flight recorder cannot change
simulated results.
"""

from repro.obs.critical_path import (
    ATTRIBUTION_CATEGORIES,
    attribute_span,
    attribution_fractions,
)
from repro.obs.explain import explain_result, format_waterfall
from repro.obs.export import chrome_trace_events, to_chrome_trace, write_chrome_trace
from repro.obs.histogram import LatencyHistogram, bucket_bounds, bucket_index
from repro.obs.recorder import FlightRecorder, OutcomeEvent, QueryContext
from repro.obs.registry import MetricsRegistry, TimeSeries
from repro.obs.tracer import Span, Tracer

__all__ = [
    "ATTRIBUTION_CATEGORIES",
    "FlightRecorder",
    "LatencyHistogram",
    "MetricsRegistry",
    "OutcomeEvent",
    "QueryContext",
    "Span",
    "TimeSeries",
    "Tracer",
    "attribute_span",
    "attribution_fractions",
    "bucket_bounds",
    "bucket_index",
    "chrome_trace_events",
    "explain_result",
    "format_waterfall",
    "to_chrome_trace",
    "write_chrome_trace",
]
