"""Telemetry exporters: JSON-Lines and Chrome trace_event.

* :func:`write_jsonl` / :func:`read_jsonl` — lossless event dump, one
  JSON object per line; round-trips :class:`TelemetryEvent` exactly.
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

from .events import TelemetryEvent, attributed_server, parse_json

# -- JSON-Lines ----------------------------------------------------------------
def write_jsonl(events: Iterable[TelemetryEvent], path) -> int:
    """Write one JSON object per event; returns the event count."""
    lines = [json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in events]
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return len(lines)


def read_jsonl(path) -> List[TelemetryEvent]:
    """The events of a :func:`write_jsonl` file; :class:`ValueError`
    naming the first line that is not JSON or not an event."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            try:
                if line.strip():
                    out.append(TelemetryEvent.from_dict(parse_json(line)))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
    return out


# -- Chrome trace_event format -------------------------------------------------
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


def chrome_trace(events: Sequence[TelemetryEvent]) -> Dict[str, object]:
    """Convert recorded events into a ``chrome://tracing``-loadable object."""
    entries: List[Dict[str, object]] = []
    spans_by_pid: Dict[int, List[Dict[str, object]]] = {}
    tagged: List[Dict[str, object]] = []
    pids = set()
    for e in events:
        pid = attributed_server(e) or 0
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
            "args": {"name": f"roads server {pid}"},
        })
    return {"traceEvents": entries, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Sequence[TelemetryEvent], path) -> int:
    """Write Chrome trace JSON; returns the number of trace events."""
    doc = chrome_trace(events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])
