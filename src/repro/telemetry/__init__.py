"""Unified telemetry: structured spans, per-server metrics, exporters.

The telemetry layer mirrors how the paper evaluates ROADS (Section V):
per-server load attribution, per-category byte counts, and per-phase
latency distributions. It has three cooperating pieces:

* :class:`Telemetry` — an event bus plus a span API. ``tel.span("query.
  forward", server=7)`` opens a context manager stamped with sim-clock
  times, parent/child span ids and a tag dict; closed spans and point
  events land in a bounded ring buffer (:class:`EventBus`).
* :class:`MetricsRegistry` — counters, byte gauges and streaming
  percentile histograms keyed by ``(server, category, phase)``; a
  run's one metrics store (``Network.metrics``).
* exporters — JSON-Lines event dumps, Prometheus-style text snapshots,
  and Chrome ``trace_event`` JSON loadable in Perfetto /
  ``chrome://tracing`` (:mod:`repro.telemetry.export`).
* causal tracing — :class:`TraceContext` coordinates propagated on
  every message, :func:`assemble_traces` span trees and
  :func:`critical_path` latency attribution
  (:mod:`repro.telemetry.tracing`).
* time series — :class:`SeriesSampler`, the one periodic reader of
  federation state: gauge snapshots into bounded downsampling
  :class:`RingSeries` rings (:mod:`repro.telemetry.series`).
* health probes — :class:`HealthProbe`, an SLO judge over a sampler's
  tick, feeding :class:`HealthReport` verdicts
  (:mod:`repro.telemetry.probes`).
* flight recorder — :class:`FlightRecorder` per-server event rings that
  freeze SLO breaches into :class:`PostmortemBundle` evidence windows
  (:mod:`repro.telemetry.recorder`).
* profiling — :class:`CallPathProfiler` hierarchical dual-clock
  hot-path attribution with collapsed-stack / speedscope exporters and
  hotspot diffing (:mod:`repro.telemetry.profiling`).

When no telemetry is attached (``telemetry=None``, the default),
instrumented code paths skip all recording — the one way to switch it
off.
"""

from .events import EventBus, TelemetryEvent, TraceEvent
from .histogram import StreamingHistogram
from .metrics import MetricKey, MetricsRegistry
from .core import Span, Telemetry
from .export import (
    chrome_trace,
    prometheus_text,
    read_jsonl,
    read_series_jsonl,
    series_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
    write_series_jsonl,
)
from .profiling import (
    CallPathProfiler,
    PROFILE_SCHEMA,
    census_fingerprint,
    collapsed_stacks,
    diff_documents,
    flatten_document,
    format_top,
    format_tree,
    hotspot_shares,
    parse_collapsed,
    parse_speedscope,
    speedscope_document,
    top_frames,
)
from .probes import HealthCheck, HealthProbe, HealthReport, HealthSLO
from .quality import DivergenceAttribution, QualityPlane, QualityReport
from .recorder import FlightRecorder, PostmortemBundle
from .report import per_server_load_rows, root_load_share
from .series import (
    RingSeries,
    RollupPoint,
    SeriesConfig,
    SeriesSampler,
    sparkline,
)
from .tracing import (
    CriticalPath,
    PATH_CATEGORIES,
    SpanNode,
    TraceContext,
    TraceTree,
    assemble_traces,
    critical_path,
    diff_critical_paths,
    path_category,
)

__all__ = [
    "Telemetry",
    "Span",
    "EventBus",
    "TelemetryEvent",
    "TraceEvent",
    "StreamingHistogram",
    "MetricKey",
    "MetricsRegistry",
    "chrome_trace",
    "prometheus_text",
    "read_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
    "per_server_load_rows",
    "root_load_share",
    "TraceContext",
    "TraceTree",
    "SpanNode",
    "CriticalPath",
    "PATH_CATEGORIES",
    "assemble_traces",
    "critical_path",
    "diff_critical_paths",
    "path_category",
    "HealthProbe",
    "HealthSLO",
    "HealthCheck",
    "HealthReport",
    "RingSeries",
    "RollupPoint",
    "SeriesConfig",
    "SeriesSampler",
    "sparkline",
    "series_jsonl",
    "read_series_jsonl",
    "write_series_jsonl",
    "FlightRecorder",
    "PostmortemBundle",
    "QualityPlane",
    "QualityReport",
    "DivergenceAttribution",
    "CallPathProfiler",
    "PROFILE_SCHEMA",
    "census_fingerprint",
    "collapsed_stacks",
    "diff_documents",
    "flatten_document",
    "format_top",
    "format_tree",
    "hotspot_shares",
    "parse_collapsed",
    "parse_speedscope",
    "speedscope_document",
    "top_frames",
]
