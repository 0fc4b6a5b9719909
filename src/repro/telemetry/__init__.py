"""Unified telemetry: structured spans, per-server metrics, exporters.

The telemetry layer mirrors how the paper evaluates ROADS (Section V):
per-server load attribution, per-category byte counts, and per-phase
latency distributions. Its pieces:

* :class:`Telemetry` — a bounded event log plus a span API.
  ``tel.emit_span("query.execute", start, end, server=7)`` records a
  measured interval stamped with sim-clock times and a tag dict; spans
  and point events land in its ring buffer. Parentage is the
  :class:`TraceContext` tags a span carries.
* :class:`MetricsRegistry` — counters, byte gauges and streaming
  percentile histograms keyed by ``(server, category, phase)``; a
  run's one metrics store (``Network.metrics``).
* exporters — JSON-Lines event dumps and Chrome ``trace_event`` JSON
  loadable in Perfetto / ``chrome://tracing``
  (:mod:`repro.telemetry.export`).
* causal tracing — :class:`TraceContext` coordinates propagated on
  every message, :func:`assemble_traces` span trees and
  :func:`critical_path` latency attribution
  (:mod:`repro.telemetry.tracing`).
* time series — :class:`SeriesSampler`, the one periodic reader of
  federation state: gauge snapshots into bounded :class:`RingSeries`
  rings (:mod:`repro.telemetry.series`).
* health probes — :class:`HealthProbe`, an SLO judge over a sampler's
  tick, feeding :class:`HealthReport` verdicts
  (:mod:`repro.telemetry.probes`).
* flight recorder — :class:`FlightRecorder` per-server event rings that
  freeze SLO breaches into :class:`PostmortemBundle` evidence windows
  (:mod:`repro.telemetry.recorder`).
* profiling — :class:`CallPathProfiler`, a hierarchical wall-clock
  frame recorder (:mod:`repro.telemetry.profiling`); host time is
  reported by ``perf/run.py --trace 1``.

When no telemetry is attached (``telemetry=None``, the default),
instrumented code paths skip all recording — the one way to switch it
off.
"""

from .events import TelemetryEvent
from .histogram import StreamingHistogram
from .metrics import MetricKey, MetricsRegistry
from .core import Telemetry
from .export import chrome_trace, read_jsonl, write_chrome_trace, write_jsonl
from .profiling import CallPathProfiler
from .probes import HealthCheck, HealthProbe, HealthReport, HealthSLO
from .quality import DivergenceAttribution, QualityPlane, QualityReport
from .recorder import FlightRecorder, PostmortemBundle
from .report import per_server_load_rows, root_load_share
from .series import RingSeries, SeriesSampler, sparkline
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
    "TelemetryEvent",
    "StreamingHistogram",
    "MetricKey",
    "MetricsRegistry",
    "chrome_trace",
    "read_jsonl",
    "write_chrome_trace",
    "write_jsonl",
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
    "SeriesSampler",
    "sparkline",
    "FlightRecorder",
    "PostmortemBundle",
    "QualityPlane",
    "QualityReport",
    "DivergenceAttribution",
    "CallPathProfiler",
]
