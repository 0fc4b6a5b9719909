"""Telemetry exporters: JSON-Lines, Prometheus text, Chrome trace_event.

* :func:`write_jsonl` / :func:`read_jsonl` — lossless event dump, one
  JSON object per line; round-trips :class:`TelemetryEvent` exactly.
* :func:`prometheus_text` — text-format metrics snapshot
  (``roads_bytes_total{category="query",server="3",phase="forward"} 42``)
  suitable for a Prometheus scrape or a plain diff in tests.
* :func:`chrome_trace` — the Chrome ``trace_event`` JSON Object Format:
  spans become complete (``"ph": "X"``) events and point events become
  instants (``"ph": "i"``), timestamps in microseconds, grouped by the
  ``server`` tag as the pid so Perfetto / ``chrome://tracing`` renders
  one track per server; overlapping spans within a server are fanned out
  to distinct ``tid`` lanes so none of them hide each other. Events that
  carry causal-trace tags additionally emit flow events (``"ph": "s"`` /
  ``"ph": "f"``) whenever parent and child live on different pids, so
  Perfetto draws the sender→receiver arrows of every traced hop.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence

from .events import TelemetryEvent
from .metrics import MetricsRegistry

# -- JSON-Lines ----------------------------------------------------------------
def series_jsonl(rows: Iterable[Dict[str, object]]) -> str:
    """Render time-series rows as JSONL (one object per line).

    Rows follow the schema produced by
    :meth:`repro.telemetry.series.SeriesSampler.rows`: raw points are
    ``{"kind": "raw", "metric": ..., "server": ..., "t": ..., "value":
    ...}`` and downsampled buckets are ``{"kind": "rollup", "metric":
    ..., "server": ..., "t_start": ..., "t_end": ..., "count": ...,
    "min": ..., "max": ..., "mean": ..., "p95": ...}`` — the schema the
    bench observatory and ``repro watch --format jsonl`` share.
    """
    return "\n".join(json.dumps(r, sort_keys=True) for r in rows)


def write_series_jsonl(rows: Iterable[Dict[str, object]], path) -> int:
    """Write one JSON object per row; returns the row count."""
    lines = [json.dumps(r, sort_keys=True) + "\n" for r in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return len(lines)


def write_jsonl(events: Iterable[TelemetryEvent], path) -> int:
    """Write one JSON object per event; returns the event count."""
    return write_series_jsonl((e.to_dict() for e in events), path)


def read_jsonl(path) -> List[TelemetryEvent]:
    """The events of a :func:`write_jsonl` file; :class:`ValueError`
    naming the first line that is not JSON or not an event."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            try:
                if line.strip():
                    out.append(TelemetryEvent.from_dict(json.loads(line)))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
    return out


# -- Prometheus text format ----------------------------------------------------
def _escape_label_value(value: str) -> str:
    # Text exposition format: backslash, double-quote and newline must be
    # escaped inside label values.
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_str(labels: Dict[str, str]) -> str:
    # Empty values are kept: `server=""` (registry-level totals) must stay
    # distinguishable from a series that has no server label at all.
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in labels.items()
    )
    return "{" + inner + "}" if inner else ""


def prometheus_text(
    registry: MetricsRegistry, prefix: str = "roads"
) -> str:
    """Render the registry as Prometheus text exposition format."""
    lines: List[str] = []
    rows = registry.rows()
    lines.append(f"# HELP {prefix}_messages_total Messages per (category, server, phase).")
    lines.append(f"# TYPE {prefix}_messages_total counter")
    for r in rows:
        labels = _label_str({
            "category": str(r["category"]),
            "server": "" if r["server"] is None else str(r["server"]),
            "phase": str(r["phase"]),
        })
        lines.append(f"{prefix}_messages_total{labels} {r['messages']}")
    lines.append(f"# HELP {prefix}_bytes_total Bytes per (category, server, phase).")
    lines.append(f"# TYPE {prefix}_bytes_total counter")
    for r in rows:
        labels = _label_str({
            "category": str(r["category"]),
            "server": "" if r["server"] is None else str(r["server"]),
            "phase": str(r["phase"]),
        })
        lines.append(f"{prefix}_bytes_total{labels} {r['bytes']}")
    hists = registry.snapshot()["histograms"]
    if hists:
        lines.append(f"# HELP {prefix}_observation Streaming histogram summaries.")
        lines.append(f"# TYPE {prefix}_observation summary")
        for h in hists:
            base = {
                "name": str(h["name"]),
                "server": "" if h["server"] is None else str(h["server"]),
                "phase": str(h["phase"]),
            }
            for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                labels = _label_str({**base, "quantile": str(q)})
                lines.append(f"{prefix}_observation{labels} {h[key]:.9g}")
            labels = _label_str(base)
            lines.append(f"{prefix}_observation_count{labels} {h['count']}")
    return "\n".join(lines) + "\n"


def write_prometheus(registry: MetricsRegistry, path, prefix: str = "roads") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(registry, prefix))


# -- Chrome trace_event format -------------------------------------------------
def _trace_pid(event: TelemetryEvent) -> int:
    server = event.tags.get("server")
    if server is None:
        server = event.tags.get("dst")
    try:
        return int(server)
    except (TypeError, ValueError):
        return 0


def _assign_lanes(
    spans: List[Dict[str, object]],
) -> None:
    """Give overlapping spans within one pid distinct ``tid`` lanes.

    Greedy interval colouring: spans sorted by start time (longest first
    on ties) take the lowest-numbered lane that is already free at their
    start. Non-overlapping spans share lane 0; concurrent spans fan out
    to higher lanes instead of overwriting each other.
    """
    order = sorted(
        range(len(spans)),
        key=lambda i: (spans[i]["ts"], -spans[i]["dur"]),
    )
    lane_free_at: List[float] = []
    for i in order:
        start = float(spans[i]["ts"])
        end = start + float(spans[i]["dur"])
        for lane, free_at in enumerate(lane_free_at):
            if free_at <= start:
                break
        else:
            lane = len(lane_free_at)
            lane_free_at.append(0.0)
        lane_free_at[lane] = end
        spans[i]["tid"] = lane


def _causal_flows(
    tagged: List[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Flow-event pairs for cross-pid causal edges.

    For every causally-tagged entry whose parent entry sits on a
    different pid, emit a flow start (``"ph": "s"``) anchored to the
    parent's lane and a flow finish (``"ph": "f"``, binding point
    ``"e"`` = enclosing slice) anchored to the child's, with the child's
    span id as the flow id. Perfetto then draws the sender→receiver
    arrow of the hop. Runs after lane assignment so the anchors carry
    their final ``tid``.
    """
    by_sid: Dict[int, Dict[str, object]] = {}
    for entry in tagged:
        sid = int(entry["args"]["span_id"])
        prev = by_sid.get(sid)
        # A span outranks an instant that carried the same context
        # (matching :func:`repro.telemetry.tracing.assemble_traces`).
        if prev is None or (prev["ph"] != "X" and entry["ph"] == "X"):
            by_sid[sid] = entry
    flows: List[Dict[str, object]] = []
    for entry in by_sid.values():
        parent = by_sid.get(int(entry["args"].get("parent_span_id", 0)))
        if parent is None or parent is entry or parent["pid"] == entry["pid"]:
            continue
        child_ts = float(entry["ts"])
        parent_end = float(parent["ts"]) + float(parent.get("dur", 0.0))
        fid = int(entry["args"]["span_id"])
        common = {"name": "causal", "cat": "causal", "id": fid}
        flows.append({
            **common, "ph": "s",
            "ts": min(parent_end, child_ts),
            "pid": parent["pid"], "tid": parent["tid"],
        })
        flows.append({
            **common, "ph": "f", "bp": "e",
            "ts": child_ts,
            "pid": entry["pid"], "tid": entry["tid"],
        })
    return flows


def chrome_trace(
    events: Sequence[TelemetryEvent],
    *,
    process_name: str = "roads",
) -> Dict[str, object]:
    """Convert bus events into a ``chrome://tracing``-loadable object."""
    entries: List[Dict[str, object]] = []
    spans_by_pid: Dict[int, List[Dict[str, object]]] = {}
    tagged: List[Dict[str, object]] = []
    pids = set()
    for e in events:
        pid = _trace_pid(e)
        pids.add(pid)
        ts_us = e.ts * 1e6
        args = {k: v for k, v in e.tags.items()}
        if e.kind == "span":
            entry = {
                "name": e.name,
                "cat": e.name.split(".")[0],
                "ph": "X",
                "ts": ts_us,
                "dur": e.dur * 1e6,
                "pid": pid,
                "tid": 0,
                "args": args,
            }
            entries.append(entry)
            spans_by_pid.setdefault(pid, []).append(entry)
        else:
            entry = {
                "name": e.name,
                "cat": e.name.split(".")[0],
                "ph": "i",
                "s": "p",  # process-scoped instant
                "ts": ts_us,
                "pid": pid,
                "tid": 0,
                "args": args,
            }
            entries.append(entry)
        if "trace_id" in args and "span_id" in args:
            tagged.append(entry)
    for spans in spans_by_pid.values():
        _assign_lanes(spans)
    entries.extend(_causal_flows(tagged))
    for pid in sorted(pids):
        entries.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": f"{process_name} server {pid}"},
        })
    return {"traceEvents": entries, "displayTimeUnit": "ms"}


def write_chrome_trace(
    events: Sequence[TelemetryEvent],
    path,
    *,
    process_name: str = "roads",
) -> int:
    """Write Chrome trace JSON; returns the number of trace events."""
    doc = chrome_trace(events, process_name=process_name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])
